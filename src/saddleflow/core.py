"""Saddle problems, gradient oracles, and the stationarity residual.

A :class:`SaddleProblem` packages the value and the two block gradients of a
convex-concave function together with its known curvature constants. Every
flow, transformation, and certificate in the library consumes this interface;
gradients are analytic (builders supply them), finite differences are used
only as a test oracle. A point is one stacked vector z = (x, y) of length
n + m, as flows carry it; the functions here split it by the problem's ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .projection import FeasibleSet, project_vector_field

__all__ = [
    "ConvexityMeta",
    "ConvexObjective",
    "ConstraintMap",
    "SaddleProblem",
    "DimensionMismatchError",
    "grad",
    "stationarity_residual",
    "full_domain",
]


class DimensionMismatchError(ValueError):
    """A vector does not match the length it is used for."""


def _as_vector(v, dim: int, what: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.ndim != 1 or v.shape[0] != dim:
        raise DimensionMismatchError(f"{what} expects length {dim}, got shape {v.shape}")
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
    carries the analytic saddle point when the builder knows it, as one
    stacked vector (x*, y*) of length n + m.
    ``hessian`` declares S quadratic: it is the constant (n+m) x (n+m)
    Jacobian of the stacked gradient (grad_x, grad_y) with respect to (x, y),
    as the oracles are written (not necessarily symmetric), or None. It is
    stored read-only: a read-only float64 array that owns its data, as the
    builders hand over, is kept as it is, and anything else is copied.
    ``hess_xx`` and ``hess_yy`` are the Hessian oracles of the inner solves;
    a declaring problem that leaves one out gets its constant block of
    ``hessian``. ``caches`` holds the mutable state the oracles close over
    (a transform's warm starts), each with ``clear()``; ``integrate`` clears
    them before every run. A problem with caches serves one run at a time.
    """

    n: int
    m: int
    value: Callable[[np.ndarray, np.ndarray], float]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_y: Callable[[np.ndarray, np.ndarray], np.ndarray]
    meta: ConvexityMeta = field(default_factory=ConvexityMeta)
    y_set: Optional[FeasibleSet] = None
    saddle: Optional[np.ndarray] = None
    hess_xx: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    hess_yy: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    label: str = ""
    hessian: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    caches: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"block dimensions must be positive, got n={self.n}, m={self.m}")
        if self.saddle is not None:
            saddle = _as_vector(np.array(self.saddle, dtype=float), self.dim, "saddle")
            saddle.flags.writeable = False
            object.__setattr__(self, "saddle", saddle)
        if self.hessian is not None:
            hessian = self.hessian  # a copy of a large one would double the build's peak
            if not (type(hessian) is np.ndarray and hessian.dtype == np.float64
                    and hessian.base is None and not hessian.flags.writeable):
                hessian = np.array(hessian, dtype=float)
            if hessian.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"hessian has shape {hessian.shape}, expected ({self.dim}, {self.dim})"
                )
            if not np.isfinite(hessian).all():
                raise ValueError("hessian must be finite")
            hessian.flags.writeable = False
            object.__setattr__(self, "hessian", hessian)
            xx, yy = hessian[: self.n, : self.n], hessian[self.n :, self.n :]
            if self.hess_xx is None:
                object.__setattr__(self, "hess_xx", lambda x, y: xx)
            if self.hess_yy is None:
                object.__setattr__(self, "hess_yy", lambda x, y: yy)
        if self.y_set is not None and self.y_set.dim != self.m:
            raise DimensionMismatchError(
                f"y_set has dimension {self.y_set.dim}, expected m={self.m}"
            )

    @property
    def dim(self) -> int:
        return self.n + self.m


def grad(problem: SaddleProblem, z) -> tuple[np.ndarray, np.ndarray]:
    """Both block gradients at the stacked point z = (x, y); lengths are checked."""
    z = _as_vector(z, problem.dim, "point z = (x, y)")
    x, y = z[: problem.n], z[problem.n :]
    gx = _as_vector(problem.grad_x(x, y), problem.n, "grad_x")
    gy = _as_vector(problem.grad_y(x, y), problem.m, "grad_y")
    return gx, gy


def stationarity_residual(
    problem: SaddleProblem, z, feasible: Optional[FeasibleSet] = None
) -> float:
    """Norm of the (projected) saddle-flow direction at the stacked point ``z``.

    Zero exactly at equilibria: stationary points without a feasible set,
    and points where the projected field vanishes with one. ``feasible``
    is a box over the stacked state (x, y); ``z`` must lie inside it.
    """
    gx, gy = grad(problem, z)
    f = np.concatenate((-gx, gy))
    if feasible is not None:
        f = project_vector_field(feasible, np.asarray(z, dtype=float), f)
    return float(np.linalg.norm(f))


def full_domain(problem: SaddleProblem) -> Optional[FeasibleSet]:
    """The stacked-state box (free x) x (y_set), or None for a free problem."""
    y_set = problem.y_set
    if y_set is None:
        return None
    free = np.full(problem.n, np.inf)
    return FeasibleSet(np.concatenate((-free, y_set.lower)), np.concatenate((free, y_set.upper)))

