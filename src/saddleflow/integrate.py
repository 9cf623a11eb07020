"""Fixed-step integration of flows, trajectory recording, and rate fitting.

Classical RK4 with a fixed step (no other method), plus one fractional last
step to end exactly on the horizon. For projected flows the projected field
is evaluated at every stage and stage points as well as accepted states are
clamped onto the feasible set, which keeps trajectories feasible. Away from
faces the error is fourth order. Near face events, measured against exact
piecewise-affine solutions of lp_augmented and mincostflow_augmented over
t in [0, 4], each halving of the step from 0.02 to 0.0025 cut the error 2.6
to 36 times: between first and third order, depending on where an event
falls in a step. A field that exposes its *piece* at a state, the affine
field M z + m of its active set with the signed rows where it holds
(``flows.Piece``), has its full RK4 steps taken as ``AffineMap`` products of
that piece: the same steps in closed form, taken while their sign test
holds (see ``integrate``). ``AffineField`` does, on the faces of its box, and
so does the Lasso dual-prox field (``LassoDualProx``), on the active sets of
its inner box QP.
"""

from __future__ import annotations

import contextlib
import functools
import os
import stat
import warnings
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Optional

import numpy as np

from . import flows
from .flows import Flow
from .projection import project_point

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "RateReport",
    "IntegrationError",
    "integrate",
    "detect_equilibrium",
    "distance_series",
    "lyapunov_series",
    "max_increment",
    "fit_rate",
    "envelope_check",
]

# steps of the first block of each new one-step map with signed rows. On the benchmark's runs
# (see flows.BLOCK_MAX_ENTRIES) 8 took 20.9-21.7 ms, 16 took 21.2-21.3 ms, 4
# took 22.4-22.6 ms and 2 took 27.6 ms.
_BLOCK_START = 8
# distances at or below this are rounding noise to the rate fit
_FIT_FLOOR = 1e-12


class IntegrationError(RuntimeError):
    """A non-finite state was produced; carries the last finite time."""

    def __init__(self, message: str, t_last: float):
        super().__init__(f"{message} (last finite time t={t_last:.6g})")
        self.t_last = t_last


@dataclass(frozen=True)
class IntegratorConfig:
    method: ClassVar[str] = "rk4"  # the only method, not a setting; reports print it
    step: float = 1e-3
    horizon: float = 1.0
    record_every: int = 1

    def __post_init__(self):
        if not 0 < self.step < np.inf:
            raise ValueError(f"step must be finite and > 0, got {self.step}")
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        if not self.step < self.horizon:
            raise ValueError(f"step {self.step} must be smaller than horizon {self.horizon}")
        # where int(horizon / step + 1e-9) counts the steps exactly
        if not self.horizon / self.step < 2.0**53:
            raise ValueError(f"horizon / step must be < 2**53, got {self.horizon / self.step:.3g}")
        if not isinstance(self.record_every, (int, np.integer)) or self.record_every < 1:  # it slices the states
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every!r}")


@contextlib.contextmanager
def _overwrite(path):
    """A binary handle that writes ``path`` over its old bytes, cut to their new length on exit.

    The library's one writer of files. Opened without ``O_TRUNC``: on an ext4
    root mounted with ``discard``, that truncation cost 146-171 us for a
    150 KB file, and writing over it and cutting it 17-20 us. A new file gets
    the mode of ``open(path, "w")``, an existing one keeps its own, and a
    symlink is written through; a device or pipe is not cut. A write that
    stops part way (an exception, a killed process) leaves the new bytes
    followed by the rest of the old ones, where ``O_TRUNC`` left a short file.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        yield fh
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped states recorded along one integration run."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or s.ndim != 2 or t.shape[0] != s.shape[0]:
            raise ValueError(f"inconsistent trajectory shapes {t.shape}, {s.shape}")
        if t.shape[0] > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def write_csv(self, path) -> None:
        """CSV with header t,state_0,... and each value written as ``'%.17g' % v``.

        That is at most 17 significant digits with trailing zeros (and a bare
        ``.``) dropped, in exponent form outside 1e-4 <= |v| < 1e17. A table
        of ``_CSV_VECTOR_MIN`` values or more is written in blocks of whole
        rows by ``_g17_text``, which computes the same bytes with numpy. It
        leaves to ``'%.17g'`` nan, +-inf, and the values whose rounding it
        cannot settle exactly: within 1e-6 of a midpoint where 10^(16-k) is
        no double, or rounding up to 10^17. A smaller table is written row
        by row. The file is written over in place (``_overwrite``).
        """
        dim = self.states.shape[1]
        header = "t," + ",".join(f"state_{j}" for j in range(dim)) + "\n"
        with _overwrite(path) as fh:
            fh.write(header.encode())
            if len(self) * (dim + 1) < _CSV_VECTOR_MIN:
                line = b"%.17g," + b",".join([b"%.17g"] * dim) + b"\n"
                for t, row in zip(self.times, self.states):  # row by row: no copy of the whole array
                    fh.write(line % (t, *row.tolist()))
                return
            rows = max(1, _CSV_BLOCK // (dim + 1))
            # each value's end: "," inside a row, "\n" after its last, ",\n" after a lone t
            ends = np.tile(np.append(np.zeros(dim, np.uint8), 1 if dim else 2), rows)
            for r0 in range(0, len(self), rows):
                block = np.column_stack((self.times[r0 : r0 + rows], self.states[r0 : r0 + rows]))
                fh.write(_g17_text(block.ravel(), ends[: block.size]))


@dataclass(frozen=True)
class RateReport:
    """Fitted exponential decay rate against a theoretical lower bound."""

    c_fit: float
    c_bound: Optional[float]
    r_squared: float
    window: tuple
    verdict: str  # "pass" | "fail" | "no_bound"


def integrate(flow: Flow, z0, config: IntegratorConfig) -> Trajectory:
    """Run a fixed-step integration; deterministic for given inputs.

    When the flow has a feasible set, the start point is clamped onto it
    with a warning if it lies outside, and every accepted state is clamped.
    A free flow's clamp is ``np.copy``, which moves nothing, so every flow
    takes its RK4 stages, its states and a wrapper's walk by ``flows._rk4``
    with its field and clamp. ``Piece.step_map`` takes its rows at z from
    ``_rk4`` with the piece's field rows, and the map's rows from the same
    ``_rk4`` on the identity in homogeneous coordinates.
    Raises :class:`IntegrationError` on a non-finite state.

    The config fixes the record grid: step 0, every ``record_every``-th
    step and the last one (at the horizon after a fractional step). Every
    path writes exactly the grid states, once each, into one array.

    The full RK4 steps of a field with pieces (an ``AffineField``, or the
    bound ``field`` of a ``LassoDualProx``) are taken by one map path, in
    this order of fallback. Once the one-step map of the piece at the state
    (``Piece.step_map``) has taken a step, a *block* (``AffineMap.block``)
    takes up to B steps of it at the state, and the run keeps the steps
    before the first whose sign test fails, or whose state is not finite.
    B starts at ``_BLOCK_START`` for each new map with signed rows and
    doubles after each block that passes whole, up to
    ``AffineMap.max_block``; a map with none, whose blocks stop only at a
    non-finite state, starts at ``max_block``. After a block
    stops short, the one-step map is tried. One that fails its test, or
    its absence, sends the run to its piece: where the piece's own rows
    still hold at the state, the step is a 4-stage step, unless the piece
    has no map yet and builds one there; else the field gives its piece at
    the state, and a new piece builds its map. A piece builds its map only
    at a state where its rows hold at all four stage points
    (``Piece.step_map`` returns None elsewhere, having built nothing), and
    then tries it once. Where no map is built, its try fails, or the piece
    is not new, the 4-stage step is taken. A step from a state where a free
    coordinate sits on its face, with its field pointing inward, fails the
    piece's inside rows at that state and is a 4-stage step. The fractional
    last step and any other field take 4-stage steps.
    """
    z = np.atleast_1d(np.asarray(z0, dtype=float)).copy()
    if z.shape != (flow.dim,):
        raise ValueError(f"initial state has shape {z.shape}, flow dimension is {flow.dim}")
    fs = flow.feasible
    if fs is not None and not fs.contains(z, tol=1e-12):
        warnings.warn(
            f"initial state outside the feasible set by {fs.violation(z):.3e}; clamping",
            stacklevel=2,
        )
        z = project_point(fs, z)
    for cache in flow.caches:
        cache.clear()

    h = config.step
    every = config.record_every
    n_full = int(config.horizon / h + 1e-9)
    rem = config.horizon - n_full * h
    has_rem = rem > 1e-9 * h
    n_steps = n_full + (1 if has_rem else 0)
    field = flow.field
    clamp = fs.clamp if fs is not None else np.copy
    # A wrapper of a field with pieces (``__wrapped__``, as functools.wraps
    # sets) is evaluated at all four stages, and keeps the map's states while
    # the two agree: a pass-through wrapper records the same run. From the
    # first block where they differ, the run is the wrapper's own, in 4-stage steps.
    owner, wrapped = _piece_owner(field)
    piece = amap = None  # the run's piece and its one-step map
    powers = []  # the map's powers, squared for its blocks
    held = False  # the one-step map took the last step, and no block has stopped short since
    size = 0  # B: the steps of the next block
    buf = np.empty(flows.BLOCK_MAX_ENTRIES) if owner is not None else None  # the blocks' temporaries

    # the record grid; the row of grid step i is ceil(i / every)
    times = np.append(np.arange(0, n_steps, every), n_steps) * h
    if has_rem:
        times[-1] = config.horizon
    states = np.empty((times.shape[0], z.shape[0]))
    states[0] = z
    i = 0
    while i < n_steps:
        rows = None  # the states after the next steps, one a row
        if owner is not None and i < n_full:
            steps = min(size, n_full - i)
            if held and steps > 1:  # the one-step map holds: a block
                rows = amap.block(z, steps, buf, powers)
                held = rows.shape[0] == steps
                size = min(2 * size, amap.max_block) if rows.shape[0] == size else size
            if rows is None or rows.shape[0] == 0:
                out = None if amap is None else amap(z)
                if out is None:
                    if piece is None or piece(z) is None:  # off the piece: the field gives its piece at z
                        new = owner.piece(z)
                        build = new is not None and (piece is None or new.key != piece.key)
                        piece = new if build else piece
                    else:  # on the piece: a piece without a map tries to build it here
                        build = amap is None
                    if build:
                        amap, powers = None, []  # the old map and its powers go first
                        amap = piece.step_map(z, h)  # None where the piece's stage rows fail at z
                    if build and amap is not None:
                        # a map with no signed rows fails only on a non-finite state
                        size = amap.max_block if amap.floor.shape[0] == 0 else min(_BLOCK_START, amap.max_block)
                        out = amap(z)
                held = out is not None
                rows = None if out is None else out[None]
        if rows is None:  # a 4-stage step; the fractional last step ends on the horizon
            rows = flows._rk4(field, clamp, z, h if i < n_full else rem)[0][None]
        elif wrapped:
            walk, p = np.empty_like(rows), z
            for j in range(rows.shape[0]):
                p = flows._rk4(field, clamp, p, h)[0]
                if j < rows.shape[0] - 1:
                    p = clamp(p)
                walk[j] = p
            gap = np.abs(rows - walk).max(axis=1)
            if not np.all(gap <= 1e-12 * (1.0 + np.linalg.norm(walk, axis=1))):
                rows, owner = walk, None
        z = clamp(rows[-1])  # a new array: rows may be a view of buf
        if np.count_nonzero(np.isfinite(z)) != z.shape[0]:  # cheaper than .all() on short arrays
            raise IntegrationError("non-finite state encountered", i * h)  # the failing step starts at i
        # intermediate states: on the piece, so unclamped; the first grid step after i is s
        s = -(-(i + 1) // every) * every
        mid = rows[s - i - 1 : -1 : every]
        states[s // every : s // every + mid.shape[0]] = mid
        i += rows.shape[0]
        if i % every == 0 or i == n_steps:
            states[-(-i // every)] = z
    return Trajectory(times, states)


def _piece_owner(field) -> tuple:
    """(owner, wrapped): what gives ``field``'s pieces (``piece(z)``), and if field wraps it.

    The owner is the field itself (an ``AffineField``) or the object of a
    bound method (``LassoDualProx.field``), found on the field or on its
    ``__wrapped__``; else None.
    """
    for f, wrapped in ((field, False), (getattr(field, "__wrapped__", None), True)):
        owner = getattr(f, "__self__", f)
        if hasattr(owner, "piece"):
            return owner, wrapped
    return None, False


def detect_equilibrium(flow: Flow, traj: Trajectory, tol: float) -> Optional[np.ndarray]:
    """Final trajectory state, if the flow residual there is within ``tol``."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    z = traj.final_state
    return z if flow.residual(z) <= tol else None


def distance_series(traj: Trajectory, z_star) -> np.ndarray:
    """(t, ||z(t) - z_star||) pairs as a (k, 2) array."""
    z_star = np.asarray(z_star, dtype=float)
    if z_star.shape != (traj.states.shape[1],):
        raise ValueError(
            f"z_star has shape {z_star.shape}, trajectory dimension is {traj.states.shape[1]}"
        )
    d = np.linalg.norm(traj.states - z_star, axis=1)
    return np.column_stack((traj.times, d))


def lyapunov_series(traj: Trajectory, z_star) -> np.ndarray:
    """(t, V(t)) with V = 0.5*||z - z_star||^2, as a (k, 2) array."""
    series = distance_series(traj, z_star)
    series[:, 1] = 0.5 * series[:, 1] ** 2
    return series


def max_increment(series) -> float:
    """Largest step-to-step increase of the second column (<= 0 means monotone)."""
    v = np.asarray(series, dtype=float)[:, 1]
    if v.shape[0] < 2:
        return 0.0
    return float(np.max(np.diff(v)))


def _auto_window(t: np.ndarray, d: np.ndarray) -> tuple:
    """Fit window: skip the transient, stop above the numerical noise floor."""
    d0 = d[0]
    below_half = np.nonzero(d < 0.5 * d0)[0]
    t_start = t[below_half[0]] if below_half.size else t[0]
    cutoff = max(100.0 * _FIT_FLOOR, 1e-9 * d0)
    tail = np.nonzero(d <= cutoff)[0]
    t_end = t[tail[0]] if tail.size else t[-1]
    if t_end <= t_start:
        t_end = t[-1]
    return (float(t_start), float(t_end))


def fit_rate(series, window: Optional[tuple] = None, c_bound: Optional[float] = None) -> RateReport:
    """Least-squares slope of ln d(t) over a window, negated.

    With an automatic window the fit starts once d drops below half its
    initial value and stops when d reaches max(100*floor, 1e-9*d(0)), for the
    floor 1e-12. The verdict is "pass" when c_fit >= 0.9*c_bound, "fail"
    below it, and "no_bound" when no bound is supplied. Requires at least 3
    usable samples (d above the floor) in the window. r^2 is NaN when ln d
    spans less than 1e-9 over them: a series that does not decay leaves it
    nothing to explain.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"series must be a (k, 2) array, got shape {arr.shape}")
    t, d = arr[:, 0], arr[:, 1]
    if window is None:
        window = _auto_window(t, d)
    t0, t1 = float(window[0]), float(window[1])
    mask = (t >= t0) & (t <= t1) & (d > _FIT_FLOOR)
    if int(mask.sum()) < 3:
        raise ValueError(f"too few usable samples in window [{t0}, {t1}]: {int(mask.sum())}")
    tw = t[mask]
    logd = np.log(d[mask])
    slope, intercept = np.polyfit(tw, logd, 1)
    resid = logd - (slope * tw + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((logd - logd.mean()) ** 2))
    r2 = float("nan") if np.ptp(logd) < 1e-9 else 1.0 - ss_res / ss_tot
    c_fit = float(-slope) + 0.0  # a flat series gives -0.0, which prints as -0
    if c_bound is None:
        verdict = "no_bound"
    else:
        verdict = "pass" if c_fit >= 0.9 * c_bound else "fail"
    return RateReport(
        c_fit=c_fit, c_bound=c_bound, r_squared=r2, window=(t0, t1), verdict=verdict
    )


def envelope_check(series, c: float, K: float) -> bool:
    """True when d(t) <= K*d(t0)*exp(-c*(t - t0)) holds at every sample."""
    if not K >= 1.0:
        raise ValueError(f"K must be >= 1, got {K}")
    if not c > 0:
        raise ValueError(f"c must be > 0, got {c}")
    arr = np.asarray(series, dtype=float)
    t, d = arr[:, 0], arr[:, 1]
    bound = K * d[0] * np.exp(-c * (t - t[0])) * (1.0 + 1e-6)
    return bool(np.all(d <= bound))


# -- trajectory.csv values ---------------------------------------------------
#
# CPython makes the digits of '%.17g' with dtoa's bignum path (Gay, AT&T
# Numerical Analysis Manuscript 90-10, 1990), 0.5-1 us a value: most of the
# time of writing a densely recorded trajectory. ``_g17_text`` computes the
# same bytes for a block of values with numpy.
#
# For finite nonzero v = m 2^e with k = floor(log10 |v|), S = |v| 10^q with
# q = 16 - k lies in [1e16, 1e17), and N = round(S) holds the 17 significant
# digits. 10^q is tabled as a double-double (H + L) 2^F (Dekker, Numer. Math.
# 18, 1971), and hi + lo = m (H + L) 2^(e+F) with Dekker's exact product m H.
# k is moved by one where hi + lo falls outside [1e16, 1e17), compared
# exactly: hi = 1e16 with lo < 0 is below it. Then N = hi + rint(lo).
# - Where 10^q is a double (0 <= q <= 22), L = 0 and hi + lo is S exactly, so
#   N rounds half to even as '%.17g' does (hi >= 1e16 is even).
# - Elsewhere hi + lo is S to about 1e-31 S. A value whose S lies within 1e-6
#   of a midpoint N + 1/2 is left to '%.17g', as are nan, +-inf and an S that
#   rounds up to 1e17.

_CSV_BLOCK = 2048  # values per block: about 0.5 MB of numpy temporaries at the peak
# Below this many values the row loop is faster: a call of _g17_text costs
# about 0.13 ms more, and each value 0.15-0.2 us against 0.5-0.7 us. Measured
# crossover: 400-700 values for 4 to 52 states a record.
_CSV_VECTOR_MIN = 640
_Q0, _Q1 = -293, 342  # q of the tabled 10^q: k from -325 to 309
_U8 = np.dtype("<u8")  # text words: byte i of the text is bits 8i..8i+7 on any host
_ENDS = (b",", b"\n", b",\n")  # the byte strings that end a value


class _G17Tables(NamedTuple):
    pow10: np.ndarray  # (4, q): H, its high and low 26-bit halves, and L of 10^q
    exp2: np.ndarray  # (q,) int32: F of 10^q
    quads: np.ndarray  # (10000,) "<u4": the 4 digits of g
    ndigits: np.ndarray  # (4, 10000) uint8: digits of N through the last nonzero one of g in group j; 0 for g = 0
    first: np.ndarray  # (60,) words: a sign slot, "0000", digit d; d + 10 (1 + r) has "-" at byte 4 - r
    by_exp: np.ndarray  # (3, 633) by exponent X from -324: r (X = -r in -4..-1: "0." and r - 1 zeros
    # lead the digits; else 0), the byte the "." goes to, and the row of tail
    tail: np.ndarray  # (634, 3) words: "" (fixed form) or "e-dd" for each X, then each of _ENDS
    tail_len: np.ndarray  # (634, 3): the bytes of tail
    below: np.ndarray  # (3, 24) words by "." byte: the bytes before it
    above: np.ndarray  # (3, 24) words by "." byte: the bytes after it
    point: np.ndarray  # (3, 24) words by "." byte: "." there
    keep: np.ndarray  # (6 * 24 * 8, 32) bool by (start, stop, n): bytes start to stop-1 and n bytes of tail


def _words(rows) -> np.ndarray:
    """Rows of 24 bytes as three words each, word-major: (3, rows)."""
    return np.ascontiguousarray(np.ascontiguousarray(rows, np.uint8).view(_U8).T)


def _padded_words(strings) -> np.ndarray:
    """Byte strings of at most 8 bytes as one word each."""
    return np.frombuffer(b"".join(s.ljust(8, b"\0") for s in strings), _U8)


@functools.lru_cache(maxsize=None)
def _g17_tables() -> _G17Tables:
    """The tables of ``_g17_text``, built on its first call (about 180 KB)."""
    H, L, F = [], [], []
    for q in range(_Q0, _Q1 + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        f = num.bit_length() - 1 if q >= 0 else -den.bit_length()  # 2^f <= 10^q < 2^(f+1)
        s = 120 - f
        V = ((num << max(s + 1, 0)) // (den << max(-s - 1, 0)) + 1) >> 1  # round(10^q 2^s): 121 bits
        h = float(V)
        H.append(h * 2.0**-120)
        L.append(float(V - int(h)) * 2.0**-120)
        F.append(f)
    H = np.array(H)
    c = H * 134217729.0  # Veltkamp's split
    Hh = c - (c - H)
    g = np.arange(10000, dtype=np.int16)
    chars = np.empty((10000, 4), np.uint8)  # the digits of g
    last = np.zeros(10000, np.uint8)  # where its last nonzero one is, from 1; 0 for g = 0
    for j, p10 in enumerate((1000, 100, 10, 1)):
        chars[:, j] = g // p10 % 10
        last[chars[:, j] != 0] = j + 1
    first = []
    for code in range(6):
        for d in range(10):
            word = bytearray(b"\x000000%d\0\0" % d)
            if code:
                word[5 - code] = ord("-")
            first.append(bytes(word))
    X = np.arange(-324, 309)
    r = np.where((X >= -4) & (X < 0), -X, 0)
    expo = (X < -4) | (X > 16)
    exps = [b""] + [b"e%+03d" % x for x in X.tolist()]
    shifts = np.array([8 * len(e) for e in exps], np.uint64)[:, None]
    byte, at = np.arange(24), np.arange(24)[:, None]
    keep = np.zeros((6, 24, 8, 32), bool)
    for start in range(6):
        for stop in range(start, 24):
            keep[start, stop, :, start:stop] = True
    for n in range(8):
        keep[:, :, n, 24 : 24 + n] = True
    return _G17Tables(
        pow10=np.stack((H, Hh, H - Hh, np.array(L))),
        exp2=np.array(F, np.int32),
        quads=np.ascontiguousarray(chars + ord("0")).view("<u4").ravel(),
        ndigits=((last + 1 + 4 * np.arange(4, dtype=np.uint8)[:, None]) * (last > 0)).astype(np.uint8),
        first=np.frombuffer(b"".join(first), _U8),
        by_exp=np.stack((r, np.where(r > 0, 6 - r, np.where(expo, 6, 6 + X)), np.where(expo, X + 325, 0))),
        tail=(_padded_words(exps)[:, None] | (_padded_words(_ENDS) << shifts)).astype(_U8),
        tail_len=(shifts // 8).astype(np.intp) + [len(e) for e in _ENDS],
        below=_words((byte < at) * 255),
        above=_words((byte > at) * 255),
        point=_words((byte == at) * ord(".")),
        keep=keep.reshape(-1, 32),
    )


def _g17_text(x: np.ndarray, ends: np.ndarray) -> bytes:
    """``b"".join(b"%.17g" % v + _ENDS[c] for v, c in zip(x, ends))`` for a 1-D float array x.

    Each value is laid out in a row of four words (32 bytes): a sign slot
    and "0000" (bytes 0-4), its 17 digits (5-21), into which the "." is put
    by moving the digits after it one byte up, and its exponent and end
    (24-31). A mask keeps the text's bytes, and the rows are joined.
    """
    T = _g17_tables()
    N, X, slow = _g17_digits(x, T)
    neg = np.signbit(x) & ~slow
    r, at, tail = T.by_exp.take(X + 324, axis=1)
    W, nd = _g17_words(N, neg, r, at, T)
    start = 5 - r - neg
    stop = np.where(nd + 5 > at, nd + 6, at)  # with no digit after the ".", the text stops before it
    tail = tail * 3 + ends
    if slow.any():
        start[slow] = stop[slow] = 5
        tail[slow] = ends[slow]
    T.tail.take(tail, out=W[3])
    tail_len = T.tail_len.take(tail)
    keep = T.keep.take((start * 24 + stop) * 8 + tail_len, axis=0)
    text = np.ascontiguousarray(W.T).view(np.uint8)[keep].tobytes()
    if not slow.any():
        return text
    cut = np.cumsum(stop - start + tail_len) - tail_len  # where each value's end starts
    parts, done = [], 0
    for i in np.flatnonzero(slow).tolist():
        parts += [text[done : cut[i]], b"%.17g" % x[i]]
        done = cut[i]
    parts.append(text[done:])
    return b"".join(parts)


def _g17_digits(x: np.ndarray, T: _G17Tables) -> tuple:
    """(N, X, slow): the 17 significant digits N and the exponent X of each x,
    so that |x| rounds to N 10^(X-16); 0 and 0 for a zero and for ``slow``,
    the values left to '%.17g'."""
    a = np.abs(x)
    finite = np.isfinite(a)
    ok = finite & (a != 0)
    a[~ok] = 1.0
    m, e = np.frexp(a)
    k = np.floor(np.log10(a)).astype(np.intp)  # may be 1 off next to a power of 10
    hi, lo = _g17_scaled(m, e, k, T)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    moved = np.flatnonzero(below | above)
    if moved.size:
        k[moved] += np.where(above[moved], 1, -1)
        hi[moved], lo[moved] = _g17_scaled(m[moved], e[moved], k[moved], T)
    r = np.rint(lo)
    N = hi.astype(np.int64) + r.astype(np.int64)
    slow = (np.abs(np.abs(lo - r) - 0.5) < 1e-6) & ((k > 16) | (k < -6))  # near a midpoint, 10^q inexact
    slow |= (N < 10**16) | (N >= 10**17)  # S rounded up to 1e17: one digit, exponent k + 1
    slow |= ~finite
    ok &= ~slow
    N[~ok] = 0
    k[~ok] = 0
    return N, k, slow


def _g17_scaled(m, e, k, T: _G17Tables) -> tuple:
    """hi + lo = m 2^e 10^(16-k), by Dekker's product of m and 10^(16-k)."""
    i = (16 - _Q0) - k
    H, Hh, Hl, L = T.pow10.take(i, axis=1)
    p = m * H
    c = m * 134217729.0
    mh = c - (c - m)
    ml = m - mh
    t = ((mh * Hh - p) + mh * Hl + ml * Hh) + ml * Hl + m * L
    hi = p + t
    lo = t - (hi - p)
    scale = e + T.exp2.take(i)
    return np.ldexp(hi, scale), np.ldexp(lo, scale)


def _g17_words(N, neg, r, at, T: _G17Tables) -> tuple:
    """(W, nd): the (4, n) text words of each N with its "." and sign, word 3
    left for the tail; and nd, the digits of N without its trailing zeros."""
    n = N.shape[0]
    G = np.empty((5, n), np.int64)  # the first digit and four groups of four
    G[0] = N // 10**16
    rest = N - G[0] * 10**16
    for j, p10 in ((1, 10**12), (2, 10**8), (3, 10**4)):
        G[j] = rest // p10
        rest -= G[j] * p10
    G[4] = rest
    nd = T.ndigits.take(G[1:] + np.array([[0], [10000], [20000], [30000]])).max(axis=0)
    np.maximum(nd, 1, out=nd)
    W = np.empty((4, n), _U8)
    quads = T.quads.take(G[1:]).astype(_U8)
    T.first.take(G[0] + 10 * (neg * (1 + r)), out=W[0])
    W[0] |= quads[0] << 48
    W[1] = (quads[0] >> 16) | (quads[1] << 16) | (quads[2] << 48)
    W[2] = (quads[2] >> 16) | (quads[3] << 16)
    up = W[:3] << 8  # every byte one up
    up[1:] |= W[:2] >> 56
    W[:3] &= T.below.take(at, axis=1)
    up &= T.above.take(at, axis=1)
    W[:3] |= up
    W[:3] |= T.point.take(at, axis=1)
    return W, nd
