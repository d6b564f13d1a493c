"""The placement kernels against the loops they replaced.

The reference functions below are the earlier implementations, kept here only
as oracles: a 200-step bisection for water-filling, a coordinate-descent CRB
scan that scores one candidate layout per call, and a field response matrix
that pads positions to 3D one at a time.  The exact water-filling must agree
with the bisection to rounding; the batched CRB scan and the stacked field
response matrix must agree bitwise.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from makit.beamforming import water_filling
from makit.channel import PathSet, frm, sample_directions
from makit.errors import InfeasibleError
from makit.optimize import sensing_2d_ao
from makit.optimize.sensing import _corner_init, _feasible, _perimeter_init, sensing_1d_optimal


# ---------------------------------------------------------------------------
# reference implementations

def ref_water_filling(singular_values, total_power, sigma2, tol=1e-12):
    s = np.asarray(singular_values, dtype=float).reshape(-1)
    active = s > 1e-300
    inv = np.full_like(s, np.inf)
    inv[active] = sigma2 / s[active] ** 2
    lo = float(np.min(inv))
    hi = lo + total_power + float(np.max(inv[np.isfinite(inv)]))
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        p = np.maximum(0.0, mu - inv)
        if abs(p.sum() - total_power) < tol:
            break
        if p.sum() > total_power:
            hi = mu
        else:
            lo = mu
    p = np.maximum(0.0, 0.5 * (lo + hi) - inv)
    on = p > 0
    if np.any(on):
        p[on] += (total_power - p.sum()) / on.sum()
        p = np.maximum(p, 0.0)
    return p


def ref_crb_metric_2d(xy, metric, coef):
    x, y = xy[:, 0], xy[:, 1]
    vx, vy = np.var(x), np.var(y)
    cov = np.mean(x * y) - np.mean(x) * np.mean(y)
    ex = vx - (cov ** 2 / vy if vy > 0 else (0.0 if cov == 0 else np.inf))
    ey = vy - (cov ** 2 / vx if vx > 0 else (0.0 if cov == 0 else np.inf))
    if ex <= 0 or ey <= 0:
        return np.inf
    if metric == "max":
        return coef * max(1.0 / ex, 1.0 / ey)
    return coef * (1.0 / ex + 1.0 / ey)


def ref_sensing_2d_ao(n, extents, d_min, metric, coef, max_sweeps, n_grid, seed):
    ax, ay = (float(e) for e in extents[:2])
    if ax <= 0 or ay <= 0:
        x = sensing_1d_optimal(n, max(ax, ay), d_min)
        xy = np.zeros((n, 2))
        xy[:, 0 if ax > 0 else 1] = x
        score = coef / np.var(x)
        return xy, float(score), [float(score)], 0
    if d_min > 0 and n > (math.floor(ax / d_min) + 1) * (math.floor(ay / d_min) + 1):
        raise InfeasibleError("too many antennas for the region at the required spacing")
    rng = np.random.default_rng(seed)
    starts = [c for c in (_perimeter_init(n, ax, ay), _corner_init(n, ax, ay, d_min))
              if _feasible(c, ax, ay, d_min)]
    for _ in range(3):
        cand = rng.uniform(0, 1, (n, 2)) * (ax, ay)
        if _feasible(cand, ax, ay, d_min):
            starts.append(cand)
    if not starts:
        cols = math.floor(ax / d_min) + 1
        cand = np.array([(d_min * (i % cols), d_min * (i // cols)) for i in range(n)], dtype=float)
        if not _feasible(cand, ax, ay, d_min):
            raise InfeasibleError("could not build a feasible starting placement")
        starts.append(cand)
    best = None
    for xy0 in starts:
        xy = xy0.copy()
        cur = ref_crb_metric_2d(xy, metric, coef)
        trace = [cur]
        for _ in range(max_sweeps):
            improved = False
            for i in range(n):
                for axis, hi in ((0, ax), (1, ay)):
                    orig = xy[i, axis]
                    best_v, best_c = cur, orig
                    for c in np.linspace(0.0, hi, n_grid):
                        xy[i, axis] = c
                        others = np.delete(xy, i, axis=0)
                        if d_min > 0 and np.min(np.linalg.norm(others - xy[i], axis=1)) \
                                < d_min * (1 - 1e-12):
                            continue
                        v = ref_crb_metric_2d(xy, metric, coef)
                        if v < best_v - 1e-15:
                            best_v, best_c = v, c
                    xy[i, axis] = best_c
                    if best_v < cur - 1e-15:
                        cur = best_v
                        improved = True
            trace.append(cur)
            if not improved:
                break
        if best is None or cur < best[1]:
            best = (xy, float(cur), trace, len(trace) - 1)
    return best


def ref_pos3(x):
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size == 2:
        p = np.append(p, 0.0)
    if p.size == 1:
        p = np.array([p[0], 0.0, 0.0])
    return p.reshape(3)


def ref_frm(positions, paths, wavelength):
    pos = np.asarray([ref_pos3(p) for p in positions])
    return np.exp(2j * np.pi / wavelength * (paths.wave_vectors @ pos.T))


# ---------------------------------------------------------------------------
# water-filling

gains = st.sampled_from([0.0, 1e-4, 1e-2, 1.0, 3.0]) | st.floats(1e-3, 1e3)


@settings(max_examples=400, deadline=None)
@given(st.lists(gains, min_size=1, max_size=16), st.floats(1e-3, 1e4), st.floats(1e-3, 1e2))
@example([1e-3] * 3 + [1e3], 1e-3, 1e2)  # floors ~1e8 above a tiny budget
def test_water_filling_matches_bisection(s, power, sigma2):
    s = np.asarray(s)
    if not np.any(s > 1e-300):
        with pytest.raises(ValueError):
            water_filling(s, power, sigma2)
        return
    p = water_filling(s, power, sigma2)
    ref = ref_water_filling(s, power, sigma2)
    on = p > 0
    assert np.array_equal(on, ref > 0)
    assert np.max(np.abs(p - ref)) <= 1e-12 * power
    assert abs(p.sum() - power) <= 1e-12 * power
    floors = sigma2 / s[on] ** 2
    level = p[on] + floors  # KKT: one water level across the active modes
    assert np.ptp(level) <= 1e-12 * np.max(level)
    assert np.all(sigma2 / s[~on & (s > 1e-300)] ** 2 >= np.max(level) * (1 - 1e-12))


def test_water_filling_budget_below_floor_resolution():
    # P is below one ulp of the noise floors 1e20, so every candidate level
    # rounds to the lowest floor; the budget still goes to the lowest modes
    p = water_filling([0.0, 1e-9, 1e-9, 1e-10], 1e-3, 1e2)
    assert np.array_equal(p > 0, [False, True, True, False])
    assert abs(p.sum() - 1e-3) <= 1e-15


def test_water_filling_errors():
    with pytest.raises(ValueError):
        water_filling([1.0, 2.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        water_filling([0.0, 0.0], 1.0, 1.0)
    with pytest.raises(ValueError), np.errstate(divide="ignore"):
        water_filling([1e-200], 1.0, 1.0)  # s^2 underflows: every noise floor is infinite


# ---------------------------------------------------------------------------
# batched CRB scan

@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), ax=st.sampled_from([0.0, 1.0, 2.0, 3.5]),
       ay=st.sampled_from([1.0, 2.0, 3.0]), d_min=st.sampled_from([0.0, 0.3, 0.5]),
       metric=st.sampled_from(["max", "sum"]), coef=st.sampled_from([1.0, 1e-4, 1e-12]),
       max_sweeps=st.integers(1, 3), n_grid=st.sampled_from([9, 17, 33]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=16, ax=3.0, ay=3.0, d_min=0.5, metric="max", coef=1.0, max_sweeps=2, n_grid=33,
         seed=0)
@example(n=4, ax=2.0, ay=0.0, d_min=0.5, metric="max", coef=1.0, max_sweeps=1, n_grid=33,
         seed=0)
# a CRB near 1e-12, where many moves gain less than the 1e-15 acceptance margin
@example(n=9, ax=2.0, ay=3.0, d_min=0.3, metric="max", coef=1e-12, max_sweeps=2, n_grid=17,
         seed=0)
def test_sensing_2d_ao_matches_scalar_scan(n, ax, ay, d_min, metric, coef, max_sweeps, n_grid,
                                           seed):
    args = (n, (ax, ay), d_min, metric, coef)
    try:
        placement, score, trace, iterations = ref_sensing_2d_ao(*args, max_sweeps, n_grid, seed)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            sensing_2d_ao(*args, max_sweeps=max_sweeps, n_grid=n_grid, seed=seed)
        return
    rep = sensing_2d_ao(*args, max_sweeps=max_sweeps, n_grid=n_grid, seed=seed)
    assert np.array_equal(rep.best_placement, placement)
    assert float(rep.best_score).hex() == float(score).hex()
    assert [float(v).hex() for v in rep.trace] == [float(v).hex() for v in trace]
    assert rep.iterations == iterations


# ---------------------------------------------------------------------------
# field response matrix

@settings(max_examples=60, deadline=None)
@given(n_pos=st.integers(1, 16), width=st.sampled_from([0, 1, 2, 3]), as_list=st.booleans(),
       n_paths=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_frm_matches_per_position_padding(n_pos, width, as_list, n_paths, seed):
    rng = np.random.default_rng(seed)
    paths = PathSet(sample_directions(rng, n_paths, "sphere"))
    pos = rng.uniform(-3.0, 3.0, (n_pos, max(width, 1)))
    if width == 0:
        pos = pos[:, 0]  # (N,) x coordinates
    if as_list:
        pos = [float(p) for p in pos] if width == 0 else [tuple(p) for p in pos.tolist()]
    assert np.array_equal(frm(pos, paths, 0.7), ref_frm(pos, paths, 0.7))


def test_frm_strided_positions():
    rng = np.random.default_rng(5)
    paths = PathSet(sample_directions(rng, 6, "sphere"))
    wide = rng.uniform(-2.0, 2.0, (9, 5))
    for view in (wide[:, :3], wide[::2, 1:3], wide[:, 4], wide.T[:3].T):
        assert np.array_equal(frm(view, paths, 1.0), ref_frm(view, paths, 1.0))
