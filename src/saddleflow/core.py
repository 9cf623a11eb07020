"""Saddle problems, gradient oracles, and saddle/stationary-point predicates.

A :class:`SaddleProblem` packages the value and the two block gradients of a
convex-concave function together with its known curvature constants. Every
flow, transformation, and certificate in the library consumes this interface;
gradients are analytic (builders supply them), finite differences are used
only as a test oracle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .projection import FeasibleSet, project_vector_field

__all__ = [
    "ConvexityMeta",
    "ConvexObjective",
    "ConstraintMap",
    "SaddleProblem",
    "PointZ",
    "DimensionMismatchError",
    "grad",
    "stationarity_residual",
    "saddle_inequality_check",
    "full_domain",
]

logger = logging.getLogger(__name__)


class DimensionMismatchError(ValueError):
    """A vector does not match the block dimension it is used for."""


def _as_vector(v, dim: int, block: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.ndim != 1 or v.shape[0] != dim:
        raise DimensionMismatchError(
            f"block '{block}' expects dimension {dim}, got shape {v.shape}"
        )
    return v


@dataclass(frozen=True)
class ConvexityMeta:
    """Known curvature constants; any entry may be absent (None).

    mu    : strong convexity constant of the minimization block
    q     : strong concavity constant of the maximization block
    l     : Lipschitz constant of the minimization-block gradient
    kappa : lower eigenvalue bound of the cross-coupling Gram matrix
    sigma : upper eigenvalue bound of the cross-coupling Gram matrix
    """

    mu: Optional[float] = None
    q: Optional[float] = None
    l: Optional[float] = None
    kappa: Optional[float] = None
    sigma: Optional[float] = None

    def __post_init__(self):
        for name in ("mu", "q", "l", "kappa", "sigma"):
            v = getattr(self, name)
            if v is not None and not v >= 0.0:
                raise ValueError(f"meta.{name} must be >= 0, got {v}")
        if self.mu is not None and self.l is not None and self.mu > self.l * (1 + 1e-12):
            raise ValueError(f"inconsistent meta: mu={self.mu} > l={self.l}")
        if (
            self.kappa is not None
            and self.sigma is not None
            and self.kappa > self.sigma * (1 + 1e-12)
        ):
            raise ValueError(f"inconsistent meta: kappa={self.kappa} > sigma={self.sigma}")

    def require(self, *names: str) -> tuple:
        """Return the requested constants, failing loudly on a missing one."""
        out = []
        for name in names:
            v = getattr(self, name)
            if v is None:
                raise ValueError(f"required convexity constant '{name}' is not known")
            out.append(v)
        return tuple(out)


@dataclass(frozen=True)
class ConvexObjective:
    """A convex function with gradient (and optionally Hessian) oracle.

    ``hess_constant`` declares that ``hess`` returns the same matrix at every
    point (a quadratic objective); inner solves then factor it once.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    mu: Optional[float] = None
    l: Optional[float] = None
    label: str = ""
    hess_constant: bool = False

    def __post_init__(self):
        if self.hess_constant and self.hess is None:
            raise ValueError("hess_constant declares a Hessian oracle, but hess is None")


@dataclass(frozen=True)
class ConstraintMap:
    """A vector of convex constraint functions ``g(x) <= 0`` with Jacobian.

    ``hess(x, y)`` returns ``sum_j y_j * hess(g_j)(x)``; leave it None for an
    unknown curvature (a finite-difference fallback is used by inner solvers)
    and supply an explicit zero for affine maps.
    """

    m: int
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    hess: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    label: str = ""


@dataclass(frozen=True)
class SaddleProblem:
    """A convex-concave function S(x, y) presented through oracles.

    ``value(x, y)`` evaluates S, ``grad_x``/``grad_y`` its block gradients.
    ``y_set`` is the (box) domain of the maximization block when the problem
    is meant to be run with a projected flow; None means free. ``saddle``
    carries the analytic saddle point when the builder knows it.
    ``hess_constant`` declares that ``hess_xx`` and ``hess_yy`` (those
    supplied) return the same matrix at every point. Instances are immutable
    and safe to share across concurrent runs.
    """

    n: int
    m: int
    value: Callable[[np.ndarray, np.ndarray], float]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_y: Callable[[np.ndarray, np.ndarray], np.ndarray]
    meta: ConvexityMeta = field(default_factory=ConvexityMeta)
    convex_concave: bool = True
    y_set: Optional[FeasibleSet] = None
    saddle: Optional[tuple] = None
    hess_xx: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    hess_yy: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    label: str = ""
    hess_constant: bool = False

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"block dimensions must be positive, got n={self.n}, m={self.m}")
        if self.hess_constant and self.hess_xx is None and self.hess_yy is None:
            raise ValueError("hess_constant declares Hessian oracles, but none is supplied")
        if self.y_set is not None and self.y_set.dim != self.m:
            raise DimensionMismatchError(
                f"y_set has dimension {self.y_set.dim}, expected m={self.m}"
            )

    @property
    def dim(self) -> int:
        return self.n + self.m

    def split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = _as_vector(z, self.n + self.m, "z")
        return z[: self.n], z[self.n :]

    def join(self, x, y) -> np.ndarray:
        return np.concatenate(
            (_as_vector(x, self.n, "x"), _as_vector(y, self.m, "y"))
        )

    def saddle_vector(self) -> Optional[np.ndarray]:
        if self.saddle is None:
            return None
        x_star, y_star = self.saddle
        return self.join(x_star, y_star)


@dataclass(frozen=True)
class PointZ:
    """A stacked primal-dual point (x, y)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))

    @property
    def concat(self) -> np.ndarray:
        return np.concatenate((self.x, self.y))

    @classmethod
    def from_concat(cls, z, n: int, m: int) -> "PointZ":
        z = _as_vector(z, n + m, "z")
        return cls(z[:n], z[n:])


def grad(problem: SaddleProblem, z: PointZ) -> tuple[np.ndarray, np.ndarray]:
    """Both block gradients of the problem at ``z``; dimensions are checked."""
    x = _as_vector(z.x, problem.n, "x")
    y = _as_vector(z.y, problem.m, "y")
    gx = _as_vector(problem.grad_x(x, y), problem.n, "grad_x")
    gy = _as_vector(problem.grad_y(x, y), problem.m, "grad_y")
    return gx, gy


def flow_field_at(problem: SaddleProblem, z: PointZ) -> np.ndarray:
    """The raw saddle-flow direction (-grad_x, +grad_y) at ``z``."""
    gx, gy = grad(problem, z)
    return np.concatenate((-gx, gy))


def stationarity_residual(
    problem: SaddleProblem, z: PointZ, feasible: Optional[FeasibleSet] = None
) -> float:
    """Norm of the (projected) saddle-flow direction at ``z``.

    Zero exactly at equilibria: stationary points without a feasible set,
    and points where the projected field vanishes with one. ``feasible``
    is a box over the stacked state (x, y); ``z`` must lie inside it.
    """
    f = flow_field_at(problem, z)
    if feasible is not None:
        f = project_vector_field(feasible, z.concat, f)
    return float(np.linalg.norm(f))


def full_domain(problem: SaddleProblem) -> Optional[FeasibleSet]:
    """The stacked-state box (free x) x (y_set), or None for a free problem."""
    if problem.y_set is None:
        return None
    return FeasibleSet.stack(FeasibleSet.free(problem.n), problem.y_set)


def saddle_inequality_check(
    problem: SaddleProblem,
    z_star: PointZ,
    samples: int = 100,
    radius: float = 1.0,
    tol: float = 1e-9,
    seed: int = 0,
    feasible: Optional[FeasibleSet] = None,
) -> bool:
    """Empirically test the two-sided saddle inequality at ``z_star``.

    Draws ``samples`` points uniformly from the ball of the given radius
    around ``z_star`` (intersected with ``feasible`` when given) and checks
    S(x*, y) <= S(x*, y*) <= S(x, y*) within ``tol`` at each. Returns False
    and logs the first violating sample on failure.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not radius > 0:
        raise ValueError("radius must be > 0")
    rng = np.random.default_rng(seed)
    x_star = _as_vector(z_star.x, problem.n, "x")
    y_star = _as_vector(z_star.y, problem.m, "y")
    center = np.concatenate((x_star, y_star))
    d = center.shape[0]
    s_star = float(problem.value(x_star, y_star))

    def draw() -> np.ndarray:
        # uniform in the ball: gaussian direction, radius ~ U^(1/d)
        v = rng.standard_normal(d)
        v /= max(np.linalg.norm(v), 1e-300)
        w = center + radius * rng.uniform() ** (1.0 / d) * v
        if feasible is None:
            return w
        for _ in range(64):
            if feasible.contains(w):
                return w
            v = rng.standard_normal(d)
            v /= max(np.linalg.norm(v), 1e-300)
            w = center + radius * rng.uniform() ** (1.0 / d) * v
        return np.clip(w, feasible.lower, feasible.upper)

    for k in range(samples):
        w = draw()
        xs, ys = w[: problem.n], w[problem.n :]
        upper = float(problem.value(x_star, ys))
        lower = float(problem.value(xs, y_star))
        if upper > s_star + tol or lower < s_star - tol:
            logger.info(
                "saddle inequality violated at sample %d: S(x*,y)=%.12g, "
                "S(x*,y*)=%.12g, S(x,y*)=%.12g, point=%s",
                k,
                upper,
                s_star,
                lower,
                np.array2string(w, precision=6),
            )
            return False
    return True
