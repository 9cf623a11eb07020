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

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from ._inner import WarmCache, newton_solve
from .core import ConstraintMap, ConvexObjective, SaddleProblem, full_domain
from .projection import FeasibleSet, project_vector_field

__all__ = [
    "AFFINE_MAX_DIM",
    "AffineField",
    "AffineMap",
    "Flow",
    "Piece",
    "standard_flow",
    "projected_flow",
    "proximal_primal_dual",
]

# Largest state dimension whose saddle flow runs as the dense affine field
# K @ z + k0 of a declared ``hessian``. K @ z costs dim^2 multiply-adds where
# the oracles cost a few block products plus a fixed ~10-20 us of numpy calls;
# on one core of a 2-vCPU Xeon (numpy 2.4) the affine field was 1.7-7x faster
# for bilinear, quadratic, LP and augmented problems up to dim 128, split
# either way at 256 and lost 3-10x from 512 on.
AFFINE_MAX_DIM = 128

# Relative tolerance of the probe of a declared Hessian: far above the
# rounding of either side, far below any error in one entry of it.
_PROBE_TOL = 1e-10
# Largest block of RK4 steps, in entries of its float64 temporaries (128 KB, one
# buffer per run): its states, then their signed rows or the check in the same
# place. It allows 136-149 steps on the benchmark's dim-52 min-cost flows.
# integrate on the benchmark's 15 runs with pieces (seed 2024) took 23.3 ms in
# all, against 24.4 ms at 2**13 and 23.8 ms at 2**15, where the projected_direct
# bench read about 0.3 MB more peak_rss_mb (fewest of 25 calls each, one BLAS
# thread, 2-vCPU Xeon).
BLOCK_MAX_ENTRIES = 2**14


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
    values. Any other map is the one-step map of a piece (``Piece.step_map``):
    it outputs the state after one RK4 step, and ``block`` takes several.
    Maps compare and hash by identity.
    """

    dim: int
    W: np.ndarray
    w: np.ndarray
    floor: np.ndarray

    def __call__(self, z) -> Optional[np.ndarray]:
        out = self.W @ z
        out += self.w
        # one array comparison and count_nonzero: the cheapest test of a short array
        if np.count_nonzero(self.floor <= out[self.dim :]) == self.floor.shape[0]:
            return out[: self.dim]
        return None

    @property
    def max_block(self) -> int:
        """The most steps of a ``block`` whose temporaries fit in ``BLOCK_MAX_ENTRIES``."""
        c = self.dim + 1
        return (BLOCK_MAX_ENTRIES - c) // (c + max(c, self.floor.shape[0]))

    @cached_property
    def _threshold(self) -> np.ndarray:
        """floor - s for the signed rows' constants s: ``block`` tests S x >= it."""
        return self.floor - self.w[self.dim :]

    def block(self, z, steps: int, buf: np.ndarray, powers: list) -> np.ndarray:
        """The states after each of the first j <= ``steps`` steps of this one-step map from z, one a row.

        The map is z -> R z + r, or T = [[R, r], [0, 1]] in homogeneous
        coordinates. The states come by doubling: X_0 = (z, 1), then
        X_(2^k + t) = T^(2^k) X_t. ``powers`` caches the powers, transposed:
        given the same list, each block of the map squares each power once.
        Step t passes where its signed rows hold at X_t, tested for every
        step in one product, and X_(t+1) is finite; j counts the steps before
        the first that fails. A passing step's rows put its start state on
        the piece, so a clamp changes none of X_1 .. X_(j-1). The rows
        returned are a view of ``buf``, which holds every temporary:
        ``BLOCK_MAX_ENTRIES`` entries, for at most ``max_block`` steps.
        ``ValueError`` if X_1 .. X_j are off T (``powers[0]``, made of ``W``
        and ``w`` at the map's first block), applied once to X_0 ..
        X_(j-1), by more than ``_PROBE_TOL`` relative (``_scale``).
        """
        dim, signed, c = self.dim, self.floor.shape[0], self.dim + 1
        X = buf[: (steps + 1) * c].reshape(steps + 1, c)
        Y = buf[X.size : X.size + steps * signed].reshape(steps, signed)
        X[0, :dim], X[0, dim] = z, 1.0
        if not powers:
            Tt = np.zeros((c, c))  # T transposed: the states are rows
            Tt[:dim, :dim], Tt[dim, :dim], Tt[dim, dim] = self.W[:dim].T, self.w[:dim], 1.0
            powers.append(Tt)
        Tt = powers[0]
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite states fail the test
            for k in range(steps.bit_length()):
                if k == len(powers):
                    powers.append(powers[-1] @ powers[-1])
                n = 2**k
                np.matmul(X[: min(n, steps + 1 - n)], powers[k], out=X[n : 2 * n])
            np.matmul(X[:steps, :dim], self.W[dim:].T, out=Y)
            passed = (Y >= self._threshold).all(axis=1)  # S x + s >= floor, s not added to Y
            # a sum of each row's entries times 0.5/c cannot overflow: it is finite where they are
            passed &= np.isfinite(X[1:] @ np.full(c, 0.5 / c))
        j = steps if passed.all() else int(passed.argmin())
        if j:  # the check, in the place of Y: each state T applied once to the one before
            E = buf[X.size : X.size + j * c].reshape(j, c)
            np.matmul(X[:j], Tt, out=E)
            E -= X[1 : j + 1]
            gap = np.abs(E, out=E).max()
            if not gap <= _PROBE_TOL:  # else within _PROBE_TOL times any scale, which is >= 1
                scale = 1.0 + (np.abs(X[:j]) @ np.abs(Tt)).max()
                if not gap <= _PROBE_TOL * scale:
                    raise ValueError(f"RK4 block of {j} steps off its step map by {gap:.3e}")
        return X[1 : j + 1, :dim]


@dataclass(frozen=True, eq=False)
class Piece(AffineMap):
    """A field on one active set: the ``AffineMap`` of rows ``W = [M; G]`` and ``w = [m; g]``.

    The field is M z + m wherever the signed rows G z + g are >= ``floor``,
    and calling the piece at z gives it there, in one product of ``W``.
    ``faces`` stacks the active set's lower- and upper-face masks, and their
    bytes are the ``key``. A field exposes its piece at a state z:
    ``AffineField.piece`` from K and the faces of its box at z,
    ``LassoDualProx.piece`` from the active set of its inner box QP.
    ``step_map`` turns the piece into the map of one RK4 step, at a state
    where the piece's rows hold at all four stage points; the map's
    ``block`` takes runs of steps.
    """

    faces: np.ndarray = field(kw_only=True)

    @property
    def key(self) -> bytes:
        return self.faces.tobytes()

    def step_map(self, z, h: float) -> Optional[AffineMap]:
        """One RK4 step of size h on this piece, checked at z; None where it does not hold at z.

        The step is z -> R z + r with R = I + hM + (hM)^2/2 + (hM)^3/6 +
        (hM)^4/24 (Hairer, Norsett & Wanner, *Solving ODEs I*, IV.2), where
        M = ``W[:dim]``; the map's own ``W[:dim]`` is R. Its signed rows are
        the piece's own rows at the four stage points z, p2, p3 and p4, and
        they hold exactly where the 4-stage step, with its projection and
        clamps, is this map. A stage row that equals the same row at z, such
        as a face that the stages hold fixed, is kept once. The next state
        needs no row, since both paths clamp it.
        The 4-stage arithmetic at z comes first: where a signed row fails
        there at any stage point (NaN fails), nothing is built and the
        result is None. Else ``ValueError`` if the map's rows at z are off
        that arithmetic by more than ``_PROBE_TOL`` relative.
        """
        dim = z.shape[0]
        at_z, stages_at_z = self._step_rows(np.append(z, 1.0)[:, None], h)
        if not (stages_at_z[:, :, 0] >= self.floor).all():
            return None
        state, stages = self._step_rows(np.eye(dim + 1), h)
        keep = np.ones(stages.shape[:2], dtype=bool)
        keep[1:] = (stages[1:] != stages[0]).any(axis=2)
        rows = np.concatenate((state, stages[keep]))
        amap = AffineMap(dim, rows[:, :dim].copy(), rows[:, dim].copy(), np.tile(self.floor, 4)[keep.ravel()])
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


@dataclass(frozen=True, eq=False)
class AffineField:
    """The field ``K @ z + k0``, projected onto ``box`` when one is set.

    ``standard_flow`` builds it of a declared Hessian and ``projected_flow``
    sets its box. ``integrate`` takes its full RK4 steps as ``AffineMap``
    products of its ``piece`` at the state, whose signed rows hold the
    box's faces: blocks of several steps (``AffineMap.block``) where they
    pass their sign test, else one-step maps (``Piece.step_map``).
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
    """1 + max_i (|W_i| @ |z| + |w_i|), over blocks of rows of ``BLOCK_MAX_ENTRIES`` entries:
    no |W| as large as W."""
    size, top = np.abs(z), np.abs(w)
    block = max(1, BLOCK_MAX_ENTRIES // size.shape[0])
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
