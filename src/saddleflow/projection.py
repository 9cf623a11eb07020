"""Box/orthant feasible sets with point and vector-field projection.

The vector field projection removes the outward component of a direction at
the boundary of a box: it is the one-sided directional derivative of the
point projection, which for axis-aligned boxes reduces to an element-wise
rule (pass the component through in the interior, drop it when it points
out of an active face).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FeasibleSet", "project_point", "project_vector_field", "SNAP_TOL"]

# Boundary snap tolerance: states are clamped onto the set by the integrator
# after every step, so active faces are detected by exact comparison after a
# snap of at most this size.
SNAP_TOL = 1e-12


@dataclass(frozen=True)
class FeasibleSet:
    """Axis-aligned box ``{p : lower <= p <= upper}``; entries may be +-inf.

    The bounds are stored as read-only copies, so what is derived from them
    at construction stays valid.
    """

    lower: np.ndarray
    upper: np.ndarray
    # Face thresholds of project_vector_field: p <= _lower_face is the lower
    # face of the clipped point. A pinned coordinate (lower == upper) clips
    # onto both faces from anywhere, so its thresholds are +inf and -inf.
    _lower_face: np.ndarray = field(init=False, repr=False, compare=False)
    _upper_face: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = np.atleast_1d(np.array(self.lower, dtype=float))
        up = np.atleast_1d(np.array(self.upper, dtype=float))
        if lo.ndim != 1 or up.ndim != 1 or lo.shape != up.shape:
            raise ValueError(
                f"bounds must be 1-d of equal length, got {lo.shape} and {up.shape}"
            )
        if np.isnan(lo).any() or np.isnan(up).any():
            raise ValueError("bounds must not contain NaN")
        empty = lo > up
        if empty.any():
            j = int(np.argmax(empty))
            raise ValueError(f"empty set: lower[{j}]={lo[j]} > upper[{j}]={up[j]}")
        pinned = lo == up
        derived = {
            "lower": lo,
            "upper": up,
            "_lower_face": np.where(pinned, np.inf, lo),
            "_upper_face": np.where(pinned, -np.inf, up),
        }
        for name, value in derived.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @classmethod
    def box(cls, lower, upper) -> "FeasibleSet":
        return cls(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))

    @classmethod
    def nonnegative(cls, dim: int) -> "FeasibleSet":
        """The orthant ``p >= 0`` in ``dim`` coordinates."""
        return cls(np.zeros(dim), np.full(dim, np.inf))

    @classmethod
    def free(cls, dim: int) -> "FeasibleSet":
        """Unconstrained coordinates, encoded as the (-inf, +inf) box."""
        return cls(np.full(dim, -np.inf), np.full(dim, np.inf))

    @staticmethod
    def stack(*sets: "FeasibleSet") -> "FeasibleSet":
        """Concatenate sets block-wise into one box over the stacked state."""
        return FeasibleSet(
            np.concatenate([s.lower for s in sets]),
            np.concatenate([s.upper for s in sets]),
        )

    def contains(self, p, tol: float = 0.0) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))

    def violation(self, p) -> float:
        """Largest distance by which ``p`` leaves the box (0 inside)."""
        p = np.asarray(p, dtype=float)
        out = np.maximum(self.lower - p, p - self.upper)
        return float(max(np.max(out, initial=0.0), 0.0))

    def clamp(self, p) -> np.ndarray:
        """Element-wise clamp of ``p`` onto the box, without validation.

        Bit for bit ``np.clip(p, lower, upper)`` (signed zeros and NaN
        included, since ``lower <= upper``) at the cost of two ufunc calls;
        the integrator and the inner box solvers clamp with it at every step.
        """
        return np.minimum(np.maximum(p, self.lower), self.upper)


def project_point(fs: FeasibleSet, r) -> np.ndarray:
    """Euclidean projection onto the box: element-wise clamp of ``r``."""
    r = np.asarray(r, dtype=float)
    if r.shape != fs.lower.shape:
        raise ValueError(f"dimension mismatch: point {r.shape}, set ({fs.dim},)")
    return fs.clamp(r)


def project_vector_field(fs: FeasibleSet, p, s) -> np.ndarray:
    """Project the direction ``s`` at the point ``p`` of the box.

    Per coordinate: keep ``s_j`` strictly inside, drop negative components on
    the lower face and positive components on the upper face. ``p`` must lie
    in the set up to :data:`SNAP_TOL`; a coordinate within that distance
    outside a face counts as on it, as if snapped onto the set first.
    """
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    lo, up = fs.lower, fs.upper
    if p.shape != lo.shape or s.shape != lo.shape:
        raise ValueError(
            f"dimension mismatch: point {p.shape}, direction {s.shape}, set ({fs.dim},)"
        )
    # same value as fs.violation(p), NaN included, in one reduction
    viol = np.maximum.reduce(np.maximum(lo - p, p - up), initial=0.0)
    if viol > SNAP_TOL:
        raise ValueError(f"point outside the feasible set by {viol:.3e} (> {SNAP_TOL:.0e})")
    # the faces of np.clip(p, lo, up), found without the clip
    out = np.where(p <= fs._lower_face, np.maximum(s, 0.0), s)
    return np.where(p >= fs._upper_face, np.minimum(out, 0.0), out)
