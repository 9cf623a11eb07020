"""Saddle-flow vector fields.

Every flow follows one sign convention: gradient descent in the first block,
gradient ascent in the second. ``standard_flow`` builds the flow of any
``SaddleProblem``, transformed ones included, and projects it onto the
problem's domain; ``projected_flow`` applies the element-wise vector field
projection inside the field, so the integrator sees a single autonomous map
z -> F(z). One flow keeps its own field: ``proximal_primal_dual`` (an inner
minimization per evaluation, projected through ``projected_flow``), the
saddle flow of the proximal surrogate of f(x) + y^T g(x) written out for a
general constraint map g. The CLI runs the affine-constraint case as
``standard_flow`` of ``proximal_surrogate(qp_lagrangian(bundle), rho).problem``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from ._inner import WarmCache, newton_solve
from .core import AFFINE_MAX_DIM, ConstraintMap, ConvexObjective, SaddleProblem, full_domain
from .projection import FeasibleSet, project_vector_field

__all__ = [
    "AffineField",
    "AffineMap",
    "Flow",
    "Piece",
    "standard_flow",
    "projected_flow",
    "proximal_primal_dual",
]

# Relative tolerance of the probe of a declared Hessian: far above the
# rounding of either side, far below any error in one entry of it.
_PROBE_TOL = 1e-10
# Largest chunk of RK4 steps, in entries of its [W | w] (256 KB of float64).
# On the benchmark's dim-52 min-cost-flow runs it allows chunks of 4 and 5
# steps, and integrate took 9.6 and 7.9 ms against 17.8 and 9.4 ms with
# one-step maps; 2**14 allows 2 steps and gained little, 2**16 took 11.2 and
# 11.7 ms. On dims 2 to 10 every cap from 2**13 up ran as fast (medians of
# 25 interleaved runs, 2-vCPU Xeon).
CHUNK_MAX_ENTRIES = 2**15
# Entries of W per block of the build checks' |W| @ |z|: 128 KB of float64, half
# the largest chunk.
_CHECK_BLOCK = 2**14


@dataclass(frozen=True)
class Flow:
    """An autonomous vector field with optional feasible set and equilibrium.

    When ``feasible`` is present the projection is already applied inside
    ``field``; the integrator additionally clamps states onto the set.
    ``integrate`` clears each of ``caches`` (the field's warm starts) first.
    """

    dim: int
    field: Callable[[np.ndarray], np.ndarray]
    feasible: Optional[FeasibleSet] = None
    equilibrium_hint: Optional[np.ndarray] = None
    label: str = ""
    caches: tuple = ()

    def residual(self, z) -> float:
        """Norm of the (projected) field: zero exactly at equilibria."""
        return float(np.linalg.norm(self.field(np.asarray(z, dtype=float))))


def standard_flow(problem: SaddleProblem) -> Flow:
    """Saddle flow of a problem: descend grad_x, ascend grad_y.

    Projected onto ``full_domain(problem)`` whenever the problem has a
    ``y_set``. Every transformed problem (augmented, proximal, preconditioned,
    reduced, Lasso dual-proximal) runs through this constructor, and the
    flow takes on the problem's ``caches``.
    A problem that declares its ``hessian`` and has at most
    ``AFFINE_MAX_DIM`` coordinates gets the ``AffineField`` ``K @ z + k0`` (one
    matrix-vector product per evaluation), checked here against the oracles
    at one probe point; any other problem evaluates its gradient oracles on
    every call.
    """
    n = problem.n

    def oracle_field(z):
        x, y = z[:n], z[n:]
        return np.concatenate((-problem.grad_x(x, y), problem.grad_y(x, y)))

    field = oracle_field
    if problem.hessian is not None and problem.dim <= AFFINE_MAX_DIM:
        field = _affine_field(problem, oracle_field)
    flow = Flow(
        dim=problem.dim,
        field=field,
        equilibrium_hint=problem.saddle,
        label=f"standard({problem.label or 'problem'})",
        caches=problem.caches,
    )
    domain = full_domain(problem)
    return flow if domain is None else projected_flow(flow, domain)


def _affine_field(problem: SaddleProblem, oracle_field: Callable) -> "AffineField":
    """The field ``K @ z + k0`` of a declared constant Hessian, checked at one probe.

    K = diag(-I_n, I_m) @ hessian and k0 is the oracle field at the origin.
    A declaration that does not reproduce the oracle field at a fixed generic
    point raises ``ValueError``: no coordinate of the point is near zero, so
    an error in any one entry of the declaration shows.
    """
    K = problem.hessian.copy()
    K[: problem.n] *= -1.0
    k0 = oracle_field(np.zeros(problem.dim))
    # cos(j) + sign(cos(j))/2 for j = 1, 2, ...: sizes 0.5 to 1.5, distinct, signs mixed
    wave = np.cos(np.arange(1.0, problem.dim + 1.0))
    probe = wave + np.copysign(0.5, wave)
    what = f"declared hessian of {problem.label or 'problem'} does not match its gradient oracles"
    _check(K, k0, probe, oracle_field(probe), f"{what}: affine field at the probe point off")
    return AffineField(K, k0)


@dataclass(frozen=True, eq=False)
class AffineMap:
    """Affine rows ``W @ z + w`` with a sign test: ``dim`` output rows, then signed rows.

    Calling the map at z gives its output rows when every signed row is >=
    its ``floor``, else None; NaN fails the test. A ``Piece`` outputs field
    values (``records == ()``). Any other map is ``records[-1]`` RK4 steps of
    a piece, its one-step map (``Piece.step_map``) or a *chunk* of several
    (``Piece.chunk``), and outputs the states after each step count in
    ``records``, one after another. Maps compare and hash by identity.
    """

    dim: int
    W: np.ndarray
    w: np.ndarray
    floor: np.ndarray
    records: tuple = (1,)

    def __call__(self, z) -> Optional[np.ndarray]:
        out = self.W @ z
        out += self.w
        # one array comparison and count_nonzero: the cheapest test of a short array
        if np.count_nonzero(self.floor <= out[self.dim :]) == self.floor.shape[0]:
            return out[: self.dim]
        return None


@dataclass(frozen=True, eq=False)
class Piece(AffineMap):
    """A field on one active set: the ``AffineMap`` of rows ``W = [M; G]`` and ``w = [m; g]``.

    The field is M z + m wherever the signed rows G z + g are >= ``floor``,
    and calling the piece at z gives it there, in one product of ``W``.
    ``faces`` stacks the active set's lower- and upper-face masks, and their
    bytes are the ``key``. A field exposes its piece at a state z:
    ``AffineField.piece`` from K and the faces of its box at z,
    ``LassoDualProx.piece`` from the active set of its inner box QP.
    ``step_map`` turns the piece into the map of one RK4 step, and ``chunk``
    composes that map into runs of steps.
    """

    records: tuple = ()
    faces: np.ndarray = field(kw_only=True)

    @property
    def key(self) -> bytes:
        return self.faces.tobytes()

    def step_map(self, z, h: float) -> AffineMap:
        """One RK4 step of size h on this piece, checked at z.

        The step is z -> R z + r with R = I + hM + (hM)^2/2 + (hM)^3/6 +
        (hM)^4/24 (Hairer, Norsett & Wanner, *Solving ODEs I*, IV.2), where
        M = ``W[:dim]``; the map's own ``W[:dim]`` is R. Its signed rows are
        the piece's own rows at the four stage points z, p2, p3 and p4, and
        they hold exactly where the 4-stage step, with its projection and
        clamps, is this map. A stage row that equals the same row at z, such
        as a face that the stages hold fixed, is kept once. The next state
        needs no row, since both paths clamp it.
        ``ValueError`` if the map's rows at z are off the 4-stage arithmetic
        there by more than ``_PROBE_TOL`` relative.
        """
        dim = z.shape[0]
        state, stages = self._step_rows(np.eye(dim + 1), h)
        keep = np.ones(stages.shape[:2], dtype=bool)
        keep[1:] = (stages[1:] != stages[0]).any(axis=2)
        rows = np.concatenate((state, stages[keep]))
        amap = AffineMap(dim, rows[:, :dim].copy(), rows[:, dim].copy(), np.tile(self.floor, 4)[keep.ravel()])
        at_z, stages_at_z = self._step_rows(np.append(z, 1.0)[:, None], h)
        expected = np.concatenate((at_z, stages_at_z[keep]))[:, 0]
        _check(amap.W, amap.w, z, expected, "RK4 step map off the 4-stage step at its build state")
        return amap

    def _step_rows(self, p, h: float) -> tuple:
        """(next state, signed rows at the four stage points) of the step map applied to p.

        p is the identity of dim + 1, which gives [R | r] and the stages'
        [G | g] products, or a state with a trailing 1 as one column, which
        gives their values at that state: both run the same 4-stage
        arithmetic, in homogeneous coordinates. [G | g] are the rows of
        [W | w] from row ``dim`` on; the signed rows have shape (4, rows of G, columns of p).
        """
        dim = self.dim
        slope = np.zeros((dim + 1, dim + 1))  # (z, 1) -> (M z + m, 0)
        slope[:dim, :dim], slope[:dim, dim] = self.W[:dim], self.w[:dim]
        points, slopes = [p], []
        for c in (0.5 * h, 0.5 * h, h, None):
            slopes.append(slope @ points[-1])
            if c is not None:
                points.append(p + c * slopes[-1])
        k1, k2, k3, k4 = slopes
        state = (p + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))[:dim]
        return state, np.column_stack((self.W[dim:], self.w[dim:])) @ np.stack(points)

    def chunk(self, amap: AffineMap, z, every: int, room: int) -> AffineMap:
        """The longest chunk of this piece's one-step map ``amap`` that fits, checked at z.

        A chunk of L steps is ``amap`` composed L times in homogeneous
        coordinates, T^j for T = [[R, r], [0, 1]]. Its output rows are the
        states T^j z at j = every, 2 every, ..., L (L a multiple of ``every``)
        or at j = L alone (L a divisor of it), so a chunk that starts on the
        record grid, or at a multiple of L, gives exactly the states the grid
        records, and its last. Its signed rows are each step's signed rows at
        T^j (j = 0..L-1). Where they pass, every one of the L one-step maps
        passes at its state: each intermediate state lies on this piece, so
        the per-step clamp changes none of them.

        L is at most ``room`` and the largest such that the chunk holds at
        most ``CHUNK_MAX_ENTRIES`` entries, rows x (dim + 1), unless equal
        shorter chunks cover more of ``room`` (``_chunk_steps``). At L = 1, or
        where L steps from z leave the finite numbers, the chunk is ``amap``
        itself. ``ValueError`` if the chunk's rows at z are off the same rows
        made of its states there, each one application of ``amap`` after the
        one before, by more than ``_PROBE_TOL`` relative.
        """
        dim, signed = amap.dim, amap.floor.shape[0]
        steps = _chunk_steps(dim, signed, every, room)
        if steps == 1:
            return amap
        records = tuple(range(every, steps + 1, every)) if steps >= every else (steps,)
        c, k = dim + 1, len(records)
        cut = k * dim  # output rows, then signed rows
        T = np.zeros((c, c))
        T[:dim, :dim], T[:dim, dim], T[dim, dim] = amap.W[:dim], amap.w[:dim], 1.0
        S = np.column_stack((amap.W[dim:], amap.w[dim:]))

        def rows(powers):  # (L + 1, c, cols): T^j p for j = 0..L; filled in place, no temporaries
            cols = powers.shape[2]
            out = np.empty((cut + steps * signed, cols))
            out[:cut].reshape(k, dim, cols)[...] = powers[records[0] :: every, :dim]
            np.matmul(S, powers[:steps], out=out[cut:].reshape(steps, signed, cols))
            return out

        with np.errstate(over="ignore", invalid="ignore"):  # non-finite entries are caught below
            # T^0..T^L by doubling: one batched product per doubling
            powers, Tk = np.eye(c)[None], T
            while powers.shape[0] <= steps:
                powers = np.concatenate((powers, Tk @ powers[: steps + 1 - powers.shape[0]]))
                Tk = Tk @ Tk
            full = rows(powers)
            # the check: the chunk's states at z, each one step of amap after the one before
            states = powers @ np.append(z, 1.0)
            del powers  # the check's products copy the strided W into its memory
            expected = rows(np.concatenate((states[:1], states[:-1] @ T.T))[:, :, None])[:, 0]
        if not (np.isfinite(expected).all() and np.isfinite(full).all()):
            return amap  # the state leaves the finite numbers: one-step maps find where
        floor = np.tile(amap.floor, steps)
        chunk = AffineMap(k * dim, full[:, :dim], full[:, dim].copy(), floor, records=records)
        _check(chunk.W, chunk.w, z, expected, f"RK4 chunk of {steps} steps off its step map at its build state")
        return chunk


@dataclass(frozen=True, eq=False)
class AffineField:
    """The field ``K @ z + k0``, projected onto ``box`` when one is set.

    ``standard_flow`` builds it of a declared Hessian and ``projected_flow``
    sets its box. ``integrate`` takes its full RK4 steps as ``AffineMap``
    products of its ``piece`` at the state, whose signed rows hold the
    box's faces: chunks of several steps (``Piece.chunk``) where they pass
    their sign test, else one-step maps (``Piece.step_map``).
    """

    K: np.ndarray
    k0: np.ndarray
    box: Optional[FeasibleSet] = None

    def __call__(self, z):
        if self.box is None:
            return self.K @ z + self.k0
        return project_vector_field(self.box, z, self.K @ z + self.k0)

    def faces(self, z) -> np.ndarray:
        """Lower- and upper-face masks of the active set A at z, stacked.

        A is where the projection zeroes the field: a face coordinate whose
        field K z + k0 points out of its face or vanishes, and every pinned
        coordinate (on both faces).
        """
        if self.box is None:
            return np.zeros((2, z.shape[0]), dtype=bool)
        g = self.K @ z + self.k0
        lower, upper = self.box.on_faces(z)
        active = (lower & (g <= 0.0)) | (upper & (g >= 0.0)) | (lower & upper)
        return np.stack((lower & active, upper & active))

    def piece(self, z) -> Piece:
        """The piece at z: K z + k0 projected onto the box, on the active set A at z (``faces``).

        Its field rows M and m are K and k0 with the rows of A zeroed. The
        box's faces become signed rows: each free coordinate with a finite
        bound lies strictly inside it (floor the next float past the bound),
        and each coordinate of A on one face only sits on that face, with its
        raw field K z + k0 pointing out of it or zero. A pinned coordinate
        needs no row. Wherever the rows hold, M z + m is the projected field,
        and a step map's rows on A are e_i, so a map step never moves them.
        """
        faces, dim = self.faces(z), z.shape[0]
        if self.box is None:
            return Piece(dim, self.K, self.k0, np.zeros(0), faces=faces)
        active = faces.any(axis=0)
        eye, lo, up = np.eye(dim), self.box.lower, self.box.upper
        lower, upper = np.flatnonzero(~active & (lo > -np.inf)), np.flatnonzero(~active & (up < np.inf))
        on_lower, on_upper = np.flatnonzero(faces[0] & ~faces[1]), np.flatnonzero(faces[1] & ~faces[0])
        held = on_lower.shape[0] + on_upper.shape[0]
        # field rows, then signed rows: z_i > lo_i and -z_i > -up_i inside; -z_i >= -lo_i
        # or z_i >= up_i on a face, with the raw field -(K z + k0)_i or (K z + k0)_i >= 0 there
        bounds = (eye[lower], -eye[upper], -eye[on_lower], eye[on_upper])
        W = np.concatenate((self.K,) + bounds + (-self.K[on_lower], self.K[on_upper]))
        w = np.concatenate((self.k0, np.zeros(W.shape[0] - dim - held), -self.k0[on_lower], self.k0[on_upper]))
        W[:dim][active], w[:dim][active] = 0.0, 0.0
        inside = np.nextafter(np.concatenate((lo[lower], -up[upper])), np.inf)
        floor = np.concatenate((inside, -lo[on_lower], up[on_upper], np.zeros(held)))
        return Piece(dim, W, w, floor, faces=faces)


def _scale(W: np.ndarray, w: np.ndarray, z) -> float:
    """1 + max_i (|W_i| @ |z| + |w_i|), over blocks of rows: no |W| as large as W."""
    size, top = np.abs(z), np.abs(w)
    block = max(1, _CHECK_BLOCK // size.shape[0])
    for r in range(0, top.shape[0], block):
        top[r : r + block] += np.abs(W[r : r + block]) @ size
    return 1.0 + top.max()


def _check(W: np.ndarray, w: np.ndarray, z, expected: np.ndarray, what: str) -> None:
    """``ValueError`` (``what`` by the gap) if ``W @ z + w`` is off ``expected`` beyond ``_PROBE_TOL``.

    The gap is relative to ``_scale``: 1 plus the largest row of |W| |z| + |w|.
    """
    gap = np.abs(W @ z + w - expected).max()
    if not gap <= _PROBE_TOL * _scale(W, w, z):
        raise ValueError(f"{what} by {gap:.3e}")


def _chunk_steps(dim: int, signed: int, every: int, room: int) -> int:
    """The most steps L <= room of a chunk that fits ``CHUNK_MAX_ENTRIES``.

    L is a multiple of ``every`` or a divisor of it. The chunk has
    k dim + L signed rows of dim + 1 entries, for k output states: L /
    every, or 1 when L < every.
    """
    budget = CHUNK_MAX_ENTRIES // (dim + 1)  # rows
    m = min(budget // (dim + every * signed), room // every)
    if m >= 1:
        whole = room // every  # record intervals in the room
        chunks = -(-whole // m)
        if whole % m >= chunks:  # equal shorter chunks leave fewer steps to one-step maps
            m = whole // chunks
        return m * every
    divisors = [d for k in range(1, math.isqrt(every) + 1) if every % k == 0 for d in (k, every // k)]
    fitting = [d for d in divisors if d < every and d <= room and dim + d * signed <= budget]
    return max(fitting, default=1)


def projected_flow(flow: Flow, feasible: FeasibleSet) -> Flow:
    """Project a flow's field onto a box: outward boundary components vanish."""
    if feasible.dim != flow.dim:
        raise ValueError(f"feasible set dimension {feasible.dim} != flow dimension {flow.dim}")
    inner_field = flow.field
    if isinstance(inner_field, AffineField) and inner_field.box is None:
        field = replace(inner_field, box=feasible)
    else:
        def field(z):
            return project_vector_field(feasible, z, inner_field(z))

    return replace(flow, field=field, feasible=feasible, label=f"projected({flow.label})")


def proximal_primal_dual(f: ConvexObjective, g: ConstraintMap, rho: float) -> Flow:
    """Proximal primal-dual dynamics for min f(x) s.t. g(x) <= 0.

    State (u, y) with y >= 0. Each evaluation resolves the regularized
    primal minimizer x_tilde(u, y) from f'(x) + Dg(x)^T y + rho*(x - u) = 0;
    the u block descends the surrogate gradient rho*(u - x_tilde). With a
    quadratic f (``hess_constant``) the inverse of Hess f + rho*I is factored
    once here; it is exact for affine g, and for any other g the residual
    gate hands the solve to damped Newton after that first step.
    """
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    n, m = f.dim, g.m
    cache = WarmCache()
    eye = np.eye(n)
    jacobian_inverse = None
    if f.hess_constant:
        jacobian_inverse = np.linalg.inv(f.hess(np.zeros(n)) + rho * eye)

    def field(z):
        u, y = z[:n], z[n:]

        def solve(x0):
            def residual(x):
                return f.grad(x) + g.jacobian(x).T @ y + rho * (x - u)

            jacobian = None
            if f.hess is not None and g.hess is not None:
                jacobian = lambda x: f.hess(x) + g.hess(x, y) + rho * eye
            return newton_solve(residual, x0, jacobian, jacobian_inverse=jacobian_inverse)

        x = cache.solve(solve, u, u, y)
        return np.concatenate((rho * (x - u), g.value(x)))

    flow = Flow(dim=n + m, field=field, label=f"proximal_pd(rho={rho})", caches=(cache,))
    return projected_flow(flow, FeasibleSet.stack(FeasibleSet.free(n), FeasibleSet.nonnegative(m)))
