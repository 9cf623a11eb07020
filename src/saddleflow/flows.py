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
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._inner import WarmCache, newton_solve
from .core import AFFINE_MAX_DIM, ConstraintMap, ConvexObjective, SaddleProblem, full_domain
from .projection import FeasibleSet, project_vector_field

__all__ = [
    "AffineField",
    "AffineMap",
    "Flow",
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
    gap = np.abs(K @ probe + k0 - oracle_field(probe)).max()
    scale = 1.0 + (np.abs(K) @ np.abs(probe) + np.abs(k0)).max()
    if not gap <= _PROBE_TOL * scale:
        raise ValueError(
            f"declared hessian of {problem.label or 'problem'} does not match its gradient "
            f"oracles: affine field off by {gap:.3e} at the probe point"
        )
    return AffineField(K, k0)


@dataclass(frozen=True)
class AffineMap:
    """``W @ z + w`` with a sign test: ``dim`` output rows, then signed rows.

    The map holds on one active set; ``faces`` stacks its lower-face and
    upper-face masks, and their bytes are the map's ``key``. Calling the map
    at z gives its output rows when every signed row is >= its ``floor``,
    else None; NaN fails the test. The RK4 steps of an ``AffineField`` and
    the Lasso dual-prox field on an inner active set are such maps; ``parts``
    holds what a builder keeps to check its map.

    A map of RK4 steps takes ``records[-1]`` steps: the one-step map of
    ``AffineField.step_map`` (``records == (1,)``) or a *chunk* of several
    (``AffineField.chunk``). Its output rows are the states after each step
    count in ``records``, one state after another.
    """

    faces: np.ndarray
    dim: int
    W: np.ndarray
    w: np.ndarray
    floor: np.ndarray
    parts: tuple = ()
    records: tuple = (1,)

    @property
    def key(self) -> bytes:
        return self.faces.tobytes()

    def __call__(self, z) -> Optional[np.ndarray]:
        out = self.W @ z
        out += self.w
        # one array comparison and count_nonzero: the cheapest test of a short array
        if np.count_nonzero(self.floor <= out[self.dim :]) == self.floor.shape[0]:
            return out[: self.dim]
        return None


@dataclass(frozen=True, eq=False)
class AffineField:
    """The field ``K @ z + k0``, projected onto ``box`` when one is set.

    ``standard_flow`` builds it of a declared Hessian and ``projected_flow``
    sets its box. ``integrate`` takes its full RK4 steps as ``AffineMap``
    products: chunks of several steps (``chunk``) where they pass their sign
    test, else one-step maps (``step_map``).
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
        lower, upper = z <= self.box._lower_face, z >= self.box._upper_face
        active = (lower & (g <= 0.0)) | (upper & (g >= 0.0)) | (lower & upper)
        return np.stack((lower & active, upper & active))

    def step_map(self, z, h: float, faces: np.ndarray) -> AffineMap:
        """One RK4 step of size h on the active set ``faces``, checked at z.

        With the field zeroed on A, the step is z -> R z + r with
        R = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24 for M = K off A (Hairer,
        Norsett & Wanner, *Solving ODEs I*, IV.2); its rows on A are e_i with
        r_i = 0. The signed rows hold exactly where the projected and clamped
        4-stage step is this map: every free coordinate with a finite bound
        strictly inside it at the stage points p2, p3, p4; every coordinate of
        A on its face at z, with K p + k0 pointing out of it or zero at all
        four stages. The next state needs no row, since both paths clamp it.
        ``ValueError`` if the map's rows at z are off the 4-stage arithmetic
        there by more than ``_PROBE_TOL`` relative.
        """
        dim = z.shape[0]
        rows, floor = self._step_rows(np.eye(dim + 1), h, faces)
        amap = AffineMap(faces, dim, rows[:, :dim].copy(), rows[:, dim].copy(), floor)
        expected = self._step_rows(np.append(z, 1.0)[:, None], h, faces)[0][:, 0]
        _check(amap, z, expected, "RK4 step map off the 4-stage step")
        return amap

    def _step_rows(self, p, h: float, faces: np.ndarray) -> tuple:
        """(rows, floor) of the step map applied to p, in homogeneous coordinates.

        p is the identity of dim + 1, which gives [W | w], or a state with a
        trailing 1 as one column, which gives W @ z + w: both run the same
        4-stage arithmetic.
        """
        dim, cols = faces.shape[1], p.shape[1]
        raw = np.zeros((dim + 1, dim + 1))  # (z, 1) -> (K z + k0, 0)
        raw[:dim, :dim], raw[:dim, dim] = self.K, self.k0
        active = faces.any(axis=0)
        moving = np.where(np.append(active, True)[:, None], 0.0, raw)
        points, slopes = [p], []
        for c in (0.5 * h, 0.5 * h, h, None):
            slopes.append(moving @ points[-1])
            if c is not None:
                points.append(p + c * slopes[-1])
        k1, k2, k3, k4 = slopes
        state = (p + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))[:dim]
        if self.box is None:  # no bound, so no signed row
            return state, np.zeros(0)
        lo, up = self.box.lower, self.box.upper
        stages = np.stack(points[1:])  # p2, p3, p4
        lower, upper = np.flatnonzero(~active & (lo > -np.inf)), np.flatnonzero(~active & (up < np.inf))
        on_lower = np.flatnonzero(faces[0] & ~faces[1])
        on_upper = np.flatnonzero(faces[1] & ~faces[0])
        g = raw[np.concatenate((on_lower, on_upper))] @ np.stack(points)  # K p + k0 at the four stages
        rows = np.concatenate((
            state,
            stages[:, lower].reshape(-1, cols),
            -stages[:, upper].reshape(-1, cols),
            -p[on_lower],
            p[on_upper],
            -g[:, : on_lower.shape[0]].reshape(-1, cols),
            g[:, on_lower.shape[0] :].reshape(-1, cols),
        ))
        floor = np.concatenate((
            np.tile(np.nextafter(lo[lower], np.inf), 3),
            np.tile(np.nextafter(-up[upper], np.inf), 3),
            -lo[on_lower],
            up[on_upper],
            np.zeros(4 * (on_lower.shape[0] + on_upper.shape[0])),
        ))
        return rows, floor

    def chunk(self, amap: AffineMap, z, every: int, room: int) -> AffineMap:
        """The longest chunk of the one-step map ``amap`` that fits, checked at z.

        A chunk of L steps is ``amap`` composed L times in homogeneous
        coordinates, T^j for T = [[R, r], [0, 1]]. Its output rows are the
        states T^j z at j = every, 2 every, ..., L (L a multiple of ``every``)
        or at j = L alone (L a divisor of it), so a chunk that starts on the
        record grid, or at a multiple of L, gives exactly the states the grid
        records, and its last. Its signed rows are each step's signed rows at
        T^j (j = 0..L-1), then, at every intermediate state (j = 1..L-1), one
        row per finite bound of each free coordinate, strictly inside it, as
        the stage points already are. Where they pass, every one of the L
        one-step maps passes at its state and the per-step clamp changes no
        intermediate state: the chunk stays on the active set of ``amap``.

        L is at most ``room`` and the largest such that the chunk holds at
        most ``CHUNK_MAX_ENTRIES`` entries, rows x (dim + 1), unless equal
        shorter chunks cover more of ``room`` (``_chunk_steps``). At L = 1, or
        where L steps from z leave the finite numbers, the chunk is ``amap``
        itself. ``ValueError`` if the chunk's rows at z are off the same rows
        made of its states there, each one application of ``amap`` after the
        one before, by more than ``_PROBE_TOL`` relative.
        """
        dim, signed = amap.faces.shape[1], amap.floor.shape[0]
        free = ~amap.faces.any(axis=0)
        lo = self.box.lower if self.box is not None else np.full(dim, -np.inf)
        up = self.box.upper if self.box is not None else np.full(dim, np.inf)
        lower, upper = np.flatnonzero(free & (lo > -np.inf)), np.flatnonzero(free & (up < np.inf))
        inner = np.concatenate((lower, upper))
        inner_floor = np.concatenate((np.nextafter(lo[lower], np.inf), np.nextafter(-up[upper], np.inf)))
        sign = np.concatenate((np.ones(lower.shape[0]), -np.ones(upper.shape[0])))[:, None]
        steps = _chunk_steps(dim, signed, inner.shape[0], every, room)
        if steps == 1:
            return amap
        records = tuple(range(every, steps + 1, every)) if steps >= every else (steps,)
        c, k, b = dim + 1, len(records), inner.shape[0]
        cut = (k * dim, k * dim + steps * signed)  # output rows, then signed rows, then inner rows
        T = np.zeros((c, c))
        T[:dim, :dim], T[:dim, dim], T[dim, dim] = amap.W[:dim], amap.w[:dim], 1.0
        S = np.column_stack((amap.W[dim:], amap.w[dim:]))

        def rows(powers):  # (L + 1, c, cols): T^j p for j = 0..L; filled in place, no temporaries
            cols = powers.shape[2]
            out = np.empty((cut[1] + (steps - 1) * b, cols))
            out[: cut[0]].reshape(k, dim, cols)[...] = powers[records[0] :: every, :dim]
            np.matmul(S, powers[:steps], out=out[cut[0] : cut[1]].reshape(steps, signed, cols))
            np.multiply(sign, powers[1:steps, inner], out=out[cut[1] :].reshape(steps - 1, b, cols))
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
            del powers  # the check's |W| takes its memory
            expected = rows(np.concatenate((states[:1], states[:-1] @ T.T))[:, :, None])[:, 0]
        if not (np.isfinite(expected).all() and np.isfinite(full).all()):
            return amap  # the state leaves the finite numbers: one-step maps find where
        floor = np.concatenate((np.tile(amap.floor, steps), np.tile(inner_floor, steps - 1)))
        chunk = AffineMap(amap.faces, k * dim, full[:, :dim], full[:, dim].copy(), floor, records=records)
        _check(chunk, z, expected, f"RK4 chunk of {steps} steps off its step map")
        return chunk


def _check(amap: AffineMap, z, expected: np.ndarray, what: str) -> None:
    """``ValueError`` if ``amap``'s rows at z are off ``expected`` beyond ``_PROBE_TOL``."""
    gap = np.abs(amap.W @ z + amap.w - expected).max()
    scale = 1.0 + (np.abs(amap.W) @ np.abs(z) + np.abs(amap.w)).max()
    if not gap <= _PROBE_TOL * scale:
        raise ValueError(f"{what} by {gap:.3e} at its build state")


def _chunk_steps(dim: int, signed: int, bounded: int, every: int, room: int) -> int:
    """The most steps L <= room of a chunk that fits ``CHUNK_MAX_ENTRIES``.

    L is a multiple of ``every`` or a divisor of it. The chunk has
    k dim + L signed + (L - 1) bounded rows of dim + 1 entries, for k
    output states: L / every, or 1 when L < every.
    """
    budget = CHUNK_MAX_ENTRIES // (dim + 1) + bounded  # for k dim + L (signed + bounded) rows
    per_step = signed + bounded
    m = min(budget // (dim + every * per_step), room // every)
    if m >= 1:
        whole = room // every  # record intervals in the room
        chunks = -(-whole // m)
        if whole % m >= chunks:  # equal shorter chunks leave fewer steps to one-step maps
            m = whole // chunks
        return m * every
    divisors = [d for k in range(1, math.isqrt(every) + 1) if every % k == 0 for d in (k, every // k)]
    fitting = [d for d in divisors if d < every and d <= room and dim + d * per_step <= budget]
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
