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
from ..sensing import effective_variances
from .report import OptReport, improves

__all__ = ["sensing_1d_optimal", "sensing_2d_ao", "effective_variances", "crb_metric_2d"]

_log = logging.getLogger(__name__)


def sensing_1d_optimal(n: int, aperture: float, d_min: float) -> np.ndarray:
    """Variance-maximizing positions on [0, aperture] with spacing >= d_min.

    Half the antennas sit at the left end and half at the right end, each
    group at minimum spacing.
    """
    if n < 1:
        raise ValueError("need at least one antenna")
    if (n - 1) * d_min > aperture + 1e-12:
        raise InfeasibleError(f"{n} antennas at spacing {d_min} exceed aperture {aperture}")
    half = n // 2
    left = [(i) * d_min for i in range(half)]
    right = [aperture - (n - 1 - i) * d_min for i in range(half, n)]
    return np.array(left + right)


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


def sensing_2d_ao(n: int, extents, d_min: float, metric: str = "max", coef: float = 1.0,
                  circumradius: float | None = None, max_sweeps: int = 40,
                  n_grid: int = 33, seed: int = 0) -> OptReport:
    """Minimize the 2D direction-estimation CRB metric over antenna positions.

    extents is the (ax, ay) rectangle; a degenerate axis reduces the problem
    to the 1D closed form.  Coordinate descent sweeps each antenna along each
    axis on a candidate grid and takes the best feasible one (the first on
    ties) if it `improves` on the current metric, so the trace is monotone.
    extra carries the aperture lower bound 2*coef/circumradius^2 and the gap.
    """
    ax, ay = (float(e) for e in extents[:2])
    if ax <= 0 or ay <= 0:
        aperture = max(ax, ay)
        x = sensing_1d_optimal(n, aperture, d_min)
        xy = np.zeros((n, 2))
        xy[:, 0 if ax > 0 else 1] = x
        score = coef / np.var(x)
        return OptReport(best_placement=xy, best_score=float(score), iterations=0,
                         trace=[float(score)], extra={"reduced_to_1d": True})
    if d_min > 0 and n > (math.floor(ax / d_min) + 1) * (math.floor(ay / d_min) + 1):
        raise InfeasibleError("too many antennas for the region at the required spacing")

    rng = np.random.default_rng(seed)
    starts = [_perimeter_init(n, ax, ay), _corner_init(n, ax, ay, d_min)]
    starts += [rng.uniform(0, 1, (n, 2)) * (ax, ay) for _ in range(3)]
    starts = [xy for xy in starts if _feasible(xy, ax, ay, d_min)]
    if not starts:
        # fall back to a regular lattice at minimum spacing
        cols = math.floor(ax / d_min) + 1
        cand = np.array([(d_min * (i % cols), d_min * (i // cols)) for i in range(n)], dtype=float)
        if not _feasible(cand, ax, ay, d_min):
            raise InfeasibleError("could not build a feasible starting placement")
        starts.append(cand)

    best, evaluations, stop = None, len(starts), "stalled"
    for xy0 in starts:
        xy = xy0.copy()
        cur = crb_metric_2d(xy, metric, coef)
        trace = [cur]
        for _ in range(max_sweeps):
            improved = False
            for i in range(n):
                for axis, hi in ((0, ax), (1, ay)):
                    cand_vals = np.linspace(0.0, hi, n_grid)
                    stack = np.repeat(xy[None], n_grid, axis=0)
                    stack[:, i, axis] = cand_vals
                    vals = crb_metric_2d(stack, metric, coef)
                    evaluations += n_grid
                    if d_min > 0:  # a candidate too close to another antenna is never taken
                        close = _too_close(stack[:, i:i + 1], np.delete(stack, i, axis=1), d_min)
                        vals[close.any(axis=(1, 2))] = np.inf
                    j = np.argmin(vals)
                    if improves(-vals[j], -cur):
                        xy[i, axis], cur, improved = cand_vals[j], float(vals[j]), True
            trace.append(cur)
            if not improved:
                break
        else:
            stop = "max_sweeps"
            _log.debug("sensing_2d_ao: a start stopped at max_sweeps=%d at %.6g", max_sweeps, cur)
        if best is None or cur < best.best_score:
            best = OptReport(best_placement=xy, best_score=float(cur),
                             iterations=len(trace) - 1, trace=trace, extra={})
    rcirc = circumradius if circumradius is not None else 0.5 * math.hypot(ax, ay)
    lower = 2.0 * coef / rcirc ** 2
    best.evaluations, best.stop_reason = evaluations, stop
    best.extra["lower_bound"] = lower
    best.extra["gap_db"] = 10.0 * math.log10(best.best_score / lower) if metric == "max" else None
    return best
