"""Array-geometry optimization for direction estimation accuracy.

The 1D problem (maximize position variance on a segment) has a closed-form
optimum: split the antennas into two maximally separated edge groups at
minimum spacing.  The 2D problem trades variance between axes and is solved
by alternating coordinate descent from structured starts.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from ..errors import InfeasibleError
from ..geometry import _close_pairs, _too_close
from ..sensing import crb_2d_lower_bound, effective_variances
from .report import OptReport, improves, memo_get, memo_put, start_memo

__all__ = ["sensing_1d_optimal", "sensing_2d_ao", "effective_variances", "crb_metric_2d"]

_log = logging.getLogger(__name__)

# A sweep scores its scans in windows from one placement: _WINDOW0 scans after a start or an
# accepted move, doubling while none is accepted, up to a (scans, n_grid, n, 2) candidate stack
# of _STACK_FLOATS (512 KB).  So it scores at most _WINDOW0 times the layouts of one scan at a
# time, and a stalled sweep of 72 scans at n 36 takes 5 calls.
_WINDOW0 = 4
_STACK_FLOATS = 1 << 16
_DESCENDED_CAP = 256  # descended starts sensing_2d_ao keeps, least recently used out first
_descended = start_memo()  # sensing_2d_ao's key of one start -> what _descend returned for it


def sensing_1d_optimal(n: int, aperture: float, d_min: float) -> np.ndarray:
    """Variance-maximizing positions on [0, aperture] with spacing >= d_min.

    Half the antennas sit at the left end and half at the right end, each
    group at minimum spacing.
    """
    if n < 1:
        raise ValueError("need at least one antenna")
    if (n - 1) * d_min > aperture + 1e-12:
        raise InfeasibleError(f"{n} antennas at spacing {d_min} exceed aperture {aperture}")
    i = np.arange(n)
    return np.where(i < n // 2, i * d_min, aperture - (n - 1 - i) * d_min)


def crb_metric_2d(xy: np.ndarray, metric: str = "max", coef: float = 1.0) -> float | np.ndarray:
    """CRB objective (max or sum over the two spatial frequencies) for a 2D layout,
    or (...) values for a (..., n, 2) stack of layouts; inf where a variance is <= 0."""
    if metric not in ("max", "sum"):
        raise ValueError(f"unknown CRB metric {metric!r}")
    ex, ey = effective_variances(np.asarray(xy, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        fx, fy = 1.0 / ex, 1.0 / ey
        val = coef * (np.maximum(fx, fy) if metric == "max" else fx + fy)
    val = np.where((ex <= 0) | (ey <= 0), np.inf, val)
    return float(val) if val.ndim == 0 else val


def _perimeter_init(n: int, ax: float, ay: float) -> np.ndarray:
    """n points spread at equal arc length along the rectangle boundary."""
    per = 2.0 * (ax + ay)
    t = (np.arange(n) + 0.5) * per / n
    side = [t < ax, t < ax + ay, t < 2 * ax + ay]  # bottom, right, top; else left
    return np.column_stack([np.select(side, [t, ax, 2 * ax + ay - t], 0.0),
                            np.select(side, [0.0, t - ax, ay], per - t)])


def _corner_init(n: int, ax: float, ay: float, d_min: float) -> np.ndarray:
    """Four corner clusters filled in minimum-spacing rows."""
    pts = []
    per_corner = math.ceil(n / 4)
    corners = [(0, 0, 1, 1), (ax, 0, -1, 1), (0, ay, 1, -1), (ax, ay, -1, -1)]
    side = math.ceil(math.sqrt(per_corner))
    for cx, cy, sx, sy in corners:
        for i in range(per_corner):
            if len(pts) >= n:
                break
            r, c = divmod(i, side)
            pts.append((cx + sx * c * d_min, cy + sy * r * d_min))
    return np.asarray(pts[:n], dtype=float)


def _feasible(xy: np.ndarray, ax: float, ay: float, d_min: float) -> bool:
    inside = np.all((xy >= -1e-12) & (xy <= np.array([ax, ay]) + 1e-12))
    return bool(inside) and not _close_pairs(xy, d_min).any()


def _descend(xy, grid, d_min, metric, coef, max_sweeps):
    """Descend from xy, moving it in place: (layout, score, trace, layouts scored past the
    start's own, sweeps, whether it stopped at max_sweeps)."""
    n, n_grid = len(xy), grid.shape[1]
    scans = np.array(np.divmod(np.arange(2 * n), 2))  # scan s moves antenna s // 2 along s % 2
    cap = max(1, _STACK_FLOATS // (n_grid * n * 2))
    cur = crb_metric_2d(xy, metric, coef)
    trace, evaluations = [cur], 0
    for _ in range(max_sweeps):
        improved, s, width = False, 0, _WINDOW0
        while s < 2 * n:
            i, axis = scans[:, s:s + min(width, cap)]
            t = np.arange(len(i))
            stack = np.broadcast_to(xy, (len(t), n_grid, n, 2)).copy()
            stack[t, :, i, axis] = grid[axis]
            vals = crb_metric_2d(stack, metric, coef)
            evaluations += vals.size
            if d_min > 0:  # a candidate too close to another antenna is never taken
                close = _too_close(stack[t, :, i][:, :, None], xy, d_min)
                close[t, :, 0, i] = False
                vals[close.any(axis=(2, 3))] = np.inf
            j = np.argmin(vals, axis=1)
            hit = np.flatnonzero(improves(-vals[t, j], -cur))
            if hit.size:  # the first scan that improves, as one scan at a time would take it
                h, g = hit[0], j[hit[0]]
                xy[i[h], axis[h]], cur, improved = grid[axis[h], g], float(vals[h, g]), True
                s, width = s + h + 1, _WINDOW0
            else:
                s, width = s + len(t), 2 * width
        trace.append(cur)
        if not improved:
            return xy, cur, trace, evaluations, len(trace) - 1, False
    return xy, cur, trace, evaluations, max_sweeps, True


def sensing_2d_ao(n: int, extents, d_min: float, metric: str = "max", coef: float = 1.0,
                  circumradius: float | None = None, max_sweeps: int = 40,
                  n_grid: int = 33, seed: int = 0) -> OptReport:
    """Minimize the 2D direction-estimation CRB metric over antenna positions.

    extents is the (ax, ay) rectangle; a degenerate axis reduces the problem
    to the 1D closed form.  Coordinate descent sweeps each antenna along each
    axis on a candidate grid and takes the best feasible one (the first on
    ties) if it `improves` on the current metric, so the trace is monotone.
    A sweep scores a window of these scans from one placement in one call and
    takes the first that improves, so it moves exactly as one scan at a time
    would; evaluations counts every layout scored, those past that scan too.
    extra carries the aperture lower bound 2*coef/circumradius^2 and the gap.
    A least-recently-used memo of 256 starts, keyed by layout, extents, d_min,
    metric, coef, max_sweeps and n_grid, gives a known start what it descended
    to, so the report, evaluations included, is the same as a cold call's.
    """
    ax, ay = (float(e) for e in extents[:2])
    if ax <= 0 or ay <= 0:
        x = sensing_1d_optimal(n, max(ax, ay), d_min)
        xy = np.zeros((n, 2))
        xy[:, 0 if ax > 0 else 1] = x
        score = float(coef / np.var(x))
        return OptReport(best_placement=xy, best_score=score, iterations=0, trace=[score],
                         extra={"reduced_to_1d": True})
    if d_min > 0 and n > (math.floor(ax / d_min) + 1) * (math.floor(ay / d_min) + 1):
        raise InfeasibleError("too many antennas for the region at the required spacing")

    rng = np.random.default_rng(seed)
    starts = [_perimeter_init(n, ax, ay), _corner_init(n, ax, ay, d_min)]
    starts += [rng.uniform(0, 1, (n, 2)) * (ax, ay) for _ in range(3)]
    starts = [xy for xy in starts if _feasible(xy, ax, ay, d_min)]
    if not starts:
        # fall back to a regular lattice at minimum spacing
        cand = d_min * np.column_stack(np.divmod(np.arange(n), math.floor(ax / d_min) + 1)[::-1])
        if not _feasible(cand, ax, ay, d_min):
            raise InfeasibleError("could not build a feasible starting placement")
        starts.append(cand)

    grid = np.stack([np.linspace(0.0, ax, n_grid), np.linspace(0.0, ay, n_grid)])
    best, evaluations, sweeps, stop, known = None, len(starts), 0, "stalled", 0
    for xy0 in starts:
        key = (xy0.tobytes(), xy0.shape, ax, ay, d_min, metric, coef, max_sweeps, n_grid)
        got = memo_get(_descended, key)
        known += got is not None
        if got is None:
            got = _descend(xy0.copy(), grid, d_min, metric, coef, max_sweeps)
            memo_put(_descended, key, got, _DESCENDED_CAP)
        xy, cur, trace, scored, start_sweeps, capped = got
        evaluations, sweeps = evaluations + scored, sweeps + start_sweeps
        if capped:
            stop = "max_sweeps"
            _log.debug("sensing_2d_ao: a start stopped at max_sweeps=%d at %.6g", max_sweeps, cur)
        if best is None or cur < best.best_score:
            best = OptReport(best_placement=xy, best_score=float(cur),
                             iterations=len(trace) - 1, trace=trace, extra={})
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("sensing_2d_ao: %d sweeps scored %d layouts; one scan at a time: %d; "
                   "%d of %d starts from the memo", sweeps, evaluations,
                   len(starts) + sweeps * 2 * n * n_grid, known, len(starts))
    best.evaluations, best.stop_reason = evaluations, stop
    best.extra["lower_bound"] = lower = crb_2d_lower_bound(
        circumradius if circumradius is not None else 0.5 * math.hypot(ax, ay), coef)
    best.extra["gap_db"] = 10.0 * math.log10(best.best_score / lower) if metric == "max" else None
    return best
