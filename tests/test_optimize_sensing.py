import itertools
import logging
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from makit.errors import InfeasibleError
from makit.optimize import report as report_module
from makit.optimize import sensing as sensing_module
from makit.optimize import (crb_metric_2d, effective_variances, sensing_1d_optimal,
                            sensing_2d_ao)
from oracles import ref_effective_variances, ref_sensing_2d_ao

LAM = 1.0


def same_report(got, want):
    """Field-by-field equality of two sensing_2d_ao reports, the placement bitwise."""
    assert got.best_placement.shape == want.best_placement.shape
    assert got.best_placement.tobytes() == want.best_placement.tobytes()
    assert got.best_score == want.best_score and got.trace == want.trace
    assert got.iterations == want.iterations and got.evaluations == want.evaluations
    assert got.stop_reason == want.stop_reason and got.extra == want.extra


def counting_metric(monkeypatch):
    """Route sensing_2d_ao's CRB scoring through a counter: the list of scored stack shapes."""
    scored = []
    crb_metric = sensing_module.crb_metric_2d

    def counting(xy, metric, coef):  # every layout the descent scores passes through here
        scored.append(np.shape(xy)[:-2])
        return crb_metric(xy, metric, coef)

    monkeypatch.setattr(sensing_module, "crb_metric_2d", counting)
    return scored


def test_1d_reference_instance():
    # 16 antennas on a 10-wavelength segment at half-wavelength spacing:
    # two edge groups, variance 11.875 lambda^2
    x = sensing_1d_optimal(16, 10.0, 0.5)
    left = [i * 0.5 for i in range(8)]
    right = [10.0 - (15 - i) * 0.5 for i in range(8, 16)]
    assert np.allclose(x, left + right)
    assert abs(np.var(x) - 11.875) < 1e-12


def test_1d_two_antennas_at_ends():
    x = sensing_1d_optimal(2, 3.0, 0.5)
    assert np.allclose(x, [0.0, 3.0])
    assert abs(np.var(x) - 9.0 / 4.0) < 1e-12


def test_1d_boundary_collapses_to_dense():
    x = sensing_1d_optimal(5, 2.0, 0.5)
    assert np.allclose(np.diff(x), 0.5)


def test_1d_infeasible_aperture():
    with pytest.raises(InfeasibleError):
        sensing_1d_optimal(8, 2.0, 0.5)


def brute_force_var_1d(n, aperture, d_min, step):
    # bijection: gap-constrained subsets of the full grid <-> unconstrained
    # ascending subsets of a compressed grid
    grid = np.arange(0.0, aperture + step / 2, step)
    a_min = int(round(d_min / step))
    m_comp = len(grid) - (a_min - 1) * (n - 1)
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m_comp), n)),
        dtype=np.int64).reshape(-1, n)
    actual = combos + np.arange(n) * (a_min - 1)
    return float(np.max(np.var(grid[actual], axis=1)))


@pytest.mark.parametrize("n,aperture", [(2, 1.0), (3, 1.5), (4, 2.0), (5, 2.5), (6, 3.0)])
def test_1d_beats_fine_brute_force(n, aperture):
    d_min = 0.5
    x = sensing_1d_optimal(n, aperture, d_min)
    best = brute_force_var_1d(n, aperture, d_min, d_min / 10.0)
    assert np.var(x) >= best - 1e-12


def test_2d_degenerate_region_reduces_to_1d():
    rep = sensing_2d_ao(6, (4.0, 0.0), 0.5)
    x1d = sensing_1d_optimal(6, 4.0, 0.5)
    assert np.allclose(np.sort(rep.best_placement[:, 0]), x1d)
    assert np.allclose(rep.best_placement[:, 1], 0.0)


def test_2d_small_instance_matches_coarse_brute_force():
    # 4 antennas in a 1x1 box at spacing 0.5: enumerate a coarse grid
    n, side, dmin = 4, 1.0, 0.5
    rep = sensing_2d_ao(n, (side, side), dmin, metric="max")
    grid = [(x, y) for x in np.linspace(0, side, 5) for y in np.linspace(0, side, 5)]
    best = np.inf
    for combo in itertools.combinations(grid, n):
        pts = np.asarray(combo)
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        if d.min() < dmin - 1e-12:
            continue
        best = min(best, crb_metric_2d(pts, "max"))
    assert rep.best_score <= best + 1e-9


def test_2d_trace_monotone_and_feasible():
    rep = sensing_2d_ao(9, (3.0, 3.0), 0.5, metric="sum", seed=1)
    assert np.all(np.diff(rep.trace) <= 1e-12)
    pts = rep.best_placement
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 0.5 * (1 - 1e-9)
    assert np.all(pts >= -1e-9) and np.all(pts <= 3.0 + 1e-9)


def test_2d_reference_instance_within_3db_of_bound():
    rep = sensing_2d_ao(36, (5.0, 5.0), 0.5, metric="max")
    assert rep.best_score <= 2.0 * rep.extra["lower_bound"]
    assert rep.extra["gap_db"] <= 3.01


@pytest.mark.parametrize("kw", [{}, {"max_sweeps": 1}], ids=["default", "max_sweeps-1"])
def test_2d_reports_evaluations_and_stop_reason(monkeypatch, caplog, kw):
    quiet = sensing_2d_ao(9, (3.0, 3.0), 0.5, **kw)
    sensing_module._descended.clear()  # the counted call descends cold
    shapes = counting_metric(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="makit"):
        rep = sensing_2d_ao(9, (3.0, 3.0), 0.5, **kw)
    capped = [r for r in caplog.records if r.name == "makit.optimize.sensing"
              and "stopped at max_sweeps" in r.getMessage()]
    scored = [int(np.prod(s)) for s in shapes]
    assert rep.evaluations == sum(scored) > len(scored)
    assert np.array_equal(rep.best_placement, quiet.best_placement)
    assert rep.trace == quiet.trace and rep.evaluations == quiet.evaluations
    if kw:
        assert rep.stop_reason == "max_sweeps" and capped
    else:
        assert rep.stop_reason == "stalled" and not capped
        assert rep.trace[-1] == rep.trace[-2]
    # a warm repeat takes every start from the memo: the same report, no layout scored
    shapes.clear()
    same_report(sensing_2d_ao(9, (3.0, 3.0), 0.5, **kw), rep)
    assert shapes == []


@pytest.mark.parametrize("n, side, kw", [
    (36, 5.0, {"max_sweeps": 1}),  # the catalog geometry: one corner start, a stalled sweep
    (9, 3.0, {"metric": "sum", "seed": 1}),  # starts that move in many scans
], ids=["stalled", "moving"])
def test_2d_debug_line_counts_speculative_layouts(monkeypatch, caplog, n, side, kw):
    sensing_module._descended.clear()  # the counted call descends cold
    scored = counting_metric(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="makit"):
        rep = sensing_2d_ao(n, (side, side), 0.5, **kw)
    lines = [r for r in caplog.records if r.name == "makit.optimize.sensing"
             and "sweeps scored" in r.getMessage()]
    assert len(lines) == 1
    sweeps, layouts, one_at_a_time, known, n_starts = lines[0].args
    starts = scored.count(())  # each start is scored once on its own
    assert known == 0 and n_starts == starts
    ref = ref_sensing_2d_ao(n, (side, side), 0.5, kw.get("metric", "max"), 1.0,
                            kw.get("max_sweeps", 40), 33, kw.get("seed", 0))
    assert layouts == rep.evaluations == sum(int(np.prod(s)) for s in scored)
    assert one_at_a_time == ref[-1] == starts + sweeps * 2 * n * 33
    assert one_at_a_time <= layouts <= 4 * one_at_a_time
    if n == 36:  # a stalled sweep wastes no layout, and scores its 72 scans in 5 calls
        assert layouts == one_at_a_time and len(scored) == 1 + 5
    else:
        assert layouts > one_at_a_time


MEMO_GEOMETRIES = [(36, 5.0, {"seed": seed}) for seed in range(4)]  # the catalog: one corner start
MEMO_GEOMETRIES.append((9, 3.0, {"metric": "sum", "seed": 1}))  # starts that move in many scans


def memo_line(caplog, *args, **kw):
    """sensing_2d_ao(*args, **kw) with its DEBUG line's starts from the memo and in all."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="makit"):
        rep = sensing_2d_ao(*args, **kw)
    (line,) = [r for r in caplog.records if "starts from the memo" in r.getMessage()]
    return rep, line.args[-2:]


@pytest.mark.parametrize("n, side, kw", MEMO_GEOMETRIES,
                         ids=[f"catalog-{seed}" for seed in range(4)] + ["moving"])
def test_2d_memo_hits_give_the_cold_report(monkeypatch, caplog, n, side, kw):
    cold, (known, n_starts) = memo_line(caplog, n, (side, side), 0.5, **kw)
    assert known == 0 and any(memo is sensing_module._descended for memo in report_module._memos)
    scored = counting_metric(monkeypatch)
    warm, counts = memo_line(caplog, n, (side, side), 0.5, **kw)
    same_report(warm, cold)
    assert counts == (n_starts, n_starts) and scored == []
    # a caller changing a returned report in place changes no later hit
    want, trace = cold.best_placement.tobytes(), list(cold.trace)
    cold.best_placement[:] = -1.0
    warm.best_placement[:] = -2.0
    warm.trace.append(0.0)
    again = sensing_2d_ao(n, (side, side), 0.5, **kw)
    assert again.best_placement.tobytes() == want and again.trace == trace
    # each keyed argument changed: every start misses, and the report is an empty memo's
    metric = "sum" if kw.get("metric", "max") == "max" else "max"
    for change in ({"coef": 2.0}, {"d_min": 0.4}, {"metric": metric}, {"max_sweeps": 2},
                   {"n_grid": 17}):
        args = {"n": n, "extents": (side, side), "d_min": 0.5, **kw, **change}
        rep, (known, _) = memo_line(caplog, **args)
        assert known == 0
        with mock.patch.object(sensing_module, "_descended", OrderedDict()):
            same_report(rep, sensing_2d_ao(**args))


@settings(max_examples=15, deadline=None)
@given(cap=st.integers(1, 4), calls=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(
    [9, 17, 33])), min_size=1, max_size=8))
def test_2d_memo_stays_bounded_and_gives_the_cold_report(cap, calls):
    # a geometry whose seeded uniform starts are often feasible, so seeds share some starts
    sensing_module._descended.clear()
    with mock.patch.object(sensing_module, "_DESCENDED_CAP", cap):
        for seed, n_grid in calls:
            rep = sensing_2d_ao(4, (2.0, 2.0), 0.5, metric="sum", n_grid=n_grid, seed=seed)
            assert len(sensing_module._descended) <= cap
            with mock.patch.object(sensing_module, "_descended", OrderedDict()):
                same_report(rep, sensing_2d_ao(4, (2.0, 2.0), 0.5, metric="sum",
                                               n_grid=n_grid, seed=seed))


def test_2d_infeasible_antenna_count():
    with pytest.raises(InfeasibleError):
        sensing_2d_ao(100, (1.0, 1.0), 0.5)


def test_effective_variance_zero_cov_reduces_per_axis():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.0, 2.0]])
    ex, ey = effective_variances(xy)
    assert abs(ex - np.var(xy[:, 0])) < 1e-12
    assert abs(ey - np.var(xy[:, 1])) < 1e-12


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from([(), (5,), (3, 4)]), n=st.integers(1, 40),
       flat=st.sampled_from([None, 0, 1]), decimals=st.sampled_from([None, 0, 1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_effective_variances_match_np_var_reference_bitwise(shape, n, flat, decimals, seed):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-5.0, 5.0, shape + (n, 2)) * 10.0 ** rng.uniform(-3.0, 3.0)
    if flat is not None:  # a zero variance on one axis
        xy[..., flat] = rng.uniform()
    if decimals is not None:  # repeated coordinates
        xy = np.round(xy, decimals)
    for got, want in zip(effective_variances(xy), ref_effective_variances(xy)):
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
