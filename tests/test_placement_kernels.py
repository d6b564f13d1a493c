"""The placement kernels against the loops they replaced.

The oracles (in oracles.py) are the earlier implementations: a 200-step
bisection for water-filling, a coordinate-descent CRB scan that scores one
candidate layout per call (the optimizer scores windows of whole scans), a
field response matrix that pads positions to 3D one at a time, and the
one-placement kernels under the placement objectives (the scalar_* oracles,
as they were before the objectives took stacks).  The exact water-filling
must agree with the bisection to rounding; the batched CRB scan, the stacked
field response matrix and every stacked placement kernel must agree bitwise.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from makit.beamforming import (mimo_capacity, mmse_combiner, multiuser_channels,
                               user_sinr_and_rates, water_filling, zf_combiner)
from makit.channel import PathSet, frm, gen_scenario, redraw_prm_phases, sample_directions
from makit.errors import InfeasibleError
from makit.optimize import sensing_2d_ao
from makit.optimize.mimo import _draw_channels, _ensemble_capacity, _mean_utility
from oracles import (ref_frm, ref_sensing_2d_ao, ref_water_filling, scalar_ensemble_capacity,
                     scalar_mean_utility, scalar_mimo_capacity, scalar_mmse_combiner,
                     scalar_multiuser_channels, scalar_user_sinr_and_rates, scalar_water_filling,
                     scalar_zf_combiner)


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
# a CRB near 1e-12, where an absolute margin of 1e-15 would reject many moves
@example(n=9, ax=2.0, ay=3.0, d_min=0.3, metric="max", coef=1e-12, max_sweeps=2, n_grid=17,
         seed=0)
# the catalog's sensing-2d-crb geometry: only the corner start is feasible, and its sweep stalls
@example(n=36, ax=5.0, ay=5.0, d_min=0.5, metric="max", coef=1.0, max_sweeps=1, n_grid=33,
         seed=0)
# the perimeter start's first sweep accepts moves in consecutive scans and at its last scan
@example(n=8, ax=2.0, ay=3.5, d_min=0.3, metric="max", coef=1.0, max_sweeps=2, n_grid=17,
         seed=0)
@example(n=10, ax=3.0, ay=3.0, d_min=0.5, metric="max", coef=1.0, max_sweeps=1, n_grid=17,
         seed=0)
# no spacing rule: moves in most scans, so a window kept wide after a move scores > 4x
@example(n=8, ax=2.0, ay=3.0, d_min=0.0, metric="max", coef=1.0, max_sweeps=1, n_grid=17,
         seed=0)
def test_sensing_2d_ao_matches_scalar_scan(n, ax, ay, d_min, metric, coef, max_sweeps, n_grid,
                                           seed):
    args = (n, (ax, ay), d_min, metric, coef)
    try:
        placement, score, trace, iterations, layouts = ref_sensing_2d_ao(*args, max_sweeps,
                                                                         n_grid, seed)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            sensing_2d_ao(*args, max_sweeps=max_sweeps, n_grid=n_grid, seed=seed)
        return
    rep = sensing_2d_ao(*args, max_sweeps=max_sweeps, n_grid=n_grid, seed=seed)
    assert np.array_equal(rep.best_placement, placement)
    assert float(rep.best_score).hex() == float(score).hex()
    assert [float(v).hex() for v in rep.trace] == [float(v).hex() for v in trace]
    assert rep.iterations == iterations
    # the stacked sweep scores every scan the scalar one does, and at most 4x its layouts
    assert layouts <= rep.evaluations <= 4 * layouts


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


# ---------------------------------------------------------------------------
# stacked placement kernels against their one-placement forms


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def complex_draw(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def placements(rng, b, n, side=2.0):
    """b random (n, 3) planar placements; the last one has every antenna in one
    spot, so its multiuser channel has rank 1."""
    pos = np.zeros((b, n, 3))
    pos[..., :2] = rng.uniform(0.0, side, (b, n, 2))
    pos[-1] = pos[-1, :1]
    return pos


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(gains, min_size=4, max_size=4), min_size=1, max_size=6),
       st.floats(1e-3, 1e4) | st.just(1e-3), st.floats(1e-3, 1e2))
# floors 1e20 and 1e22: the budget lies below one ulp of the lowest floor
@example([[0.0, 1e-9, 1e-9, 1e-10], [1e-3, 1e-3, 1e-3, 1e3]], 1e-3, 1e2)
def test_stacked_water_filling_matches_each_row(rows, power, sigma2):
    s = np.asarray(rows)
    s[~np.any(s > 0, axis=1), 0] = 1.0  # an all-zero row is refused, stacked or not
    p = water_filling(s, power, sigma2)
    for row, got in zip(s, p):
        assert same_bits(got, scalar_water_filling(row, power, sigma2))
        assert same_bits(water_filling(row, power, sigma2), got)
    assert same_bits(water_filling(s[None], power, sigma2)[0], p)


def test_stacked_water_filling_refuses_a_row_without_power():
    with pytest.raises(ValueError):
        water_filling([[1.0, 2.0], [0.0, 0.0]], 1.0, 1.0)
    with pytest.raises(ValueError):
        water_filling(np.zeros((2, 0)), 1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), b=st.integers(1, 5), nr=st.integers(1, 5),
       nt=st.integers(1, 5), power=st.floats(1e-2, 1e3))
def test_stacked_mimo_capacity_matches_each_channel(seed, b, nr, nt, power):
    rng = np.random.default_rng(seed)
    h = complex_draw(rng, (b + 2, nr, nt))
    h[-1] = 0.0  # zero channel: capacity 0
    h[-2, :, 1:] = h[-2, :, :1]  # rank 1
    caps = mimo_capacity(h, power, 1.0)
    assert caps.shape == (b + 2,)
    for hb, got in zip(h, caps):
        want = scalar_mimo_capacity(hb, power, 1.0)
        assert float(got).hex() == want.hex()
        single = mimo_capacity(hb, power, 1.0)
        assert type(single) is float and single.hex() == want.hex()
    assert same_bits(mimo_capacity(h.reshape(1, *h.shape), power, 1.0)[0], caps)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), b=st.integers(1, 5), n=st.integers(1, 6),
       k=st.integers(1, 6), p_stacked=st.booleans())
def test_stacked_combiners_and_rates_match_each_channel(seed, b, n, k, p_stacked):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    h = complex_draw(rng, (b + 1, n, k))
    h[-1, :, -1] = h[-1, :, 0] * 2.0  # a repeated user: rank deficient when k > 1
    w = zf_combiner(h)
    for hb, wb in zip(h, w):
        try:
            want = scalar_zf_combiner(hb)
        except ValueError:
            assert np.all(np.isnan(wb))
            with pytest.raises(ValueError):
                zf_combiner(hb)
            continue
        assert same_bits(wb, want)
        assert same_bits(zf_combiner(hb), want)
    w = np.where(np.isnan(w), complex_draw(rng, w.shape), w)
    p = rng.uniform(0.1, 3.0, (b + 1, k) if p_stacked else k)
    sinr, rates = user_sinr_and_rates(h, w, p, 0.7)
    w_mmse = mmse_combiner(h, p, 0.7)
    for i in range(b + 1):
        pi = p[i] if p_stacked else p
        want_sinr, want_rates = scalar_user_sinr_and_rates(h[i], w[i], pi, 0.7)
        assert same_bits(sinr[i], want_sinr) and same_bits(rates[i], want_rates)
        single = user_sinr_and_rates(h[i], w[i], pi, 0.7)
        assert same_bits(single[0], want_sinr) and same_bits(single[1], want_rates)
        assert same_bits(w_mmse[i], scalar_mmse_combiner(h[i], pi, 0.7))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), b=st.integers(1, 4), n=st.integers(1, 9),
       k=st.integers(1, 4), n_paths=st.integers(1, 6))
def test_stacked_multiuser_channels_match_each_placement(seed, b, n, k, n_paths):
    rng = np.random.default_rng(seed)
    users = [gen_scenario(rng, n_paths=n_paths, kappa=1.0) for _ in range(k)]
    pos = placements(rng, b, n)
    h = multiuser_channels(pos, users)
    assert h.shape == (b, n, k)
    for pb, hb in zip(pos, h):
        assert same_bits(hb, scalar_multiuser_channels(pb, users))
        assert same_bits(multiuser_channels(pb, users), hb)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), b=st.integers(0, 3), n=st.integers(1, 9),
       k=st.integers(1, 4), draws=st.integers(1, 4), fresh=st.lists(st.booleans(), max_size=16))
def test_shared_draw_channels_match_per_draw_stack(seed, b, n, k, draws, fresh):
    """Phase redraws share a user's geometry, fresh scenarios do not (other path
    sets and counts); either way every draw equals its own multiuser_channels."""
    rng = np.random.default_rng(seed)
    users = [gen_scenario(rng, n_paths=int(rng.integers(1, 7)), kappa=1.0) for _ in range(k)]
    flags = iter(fresh)
    ens = [users] + [[gen_scenario(rng, n_paths=int(rng.integers(1, 7)), kappa=1.0)
                      if next(flags, False) else redraw_prm_phases(u, rng) for u in users]
                     for _ in range(draws - 1)]
    pos = placements(rng, max(b, 1), n)
    pos = pos if b else pos[0]  # b = 0: one (N, 3) placement
    h = _draw_channels(ens)(pos)
    assert same_bits(h, np.stack([multiuser_channels(pos, u) for u in ens], axis=-3))


def test_draw_channels_refuse_draws_of_other_users():
    users = [gen_scenario(s, n_paths=2) for s in (1, 2)]
    with pytest.raises(ValueError):
        _draw_channels([users, users[:1]])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), b=st.integers(1, 4), nt=st.integers(1, 4),
       nr=st.integers(1, 6), draws=st.integers(1, 3), stack_tx=st.booleans())
def test_stacked_ensemble_capacity_matches_each_placement(seed, b, nt, nr, draws, stack_tx):
    rng = np.random.default_rng(seed)
    sc = gen_scenario(rng, n_paths=4, kappa=1.0)
    ensemble = [sc] + [redraw_prm_phases(sc, rng) for _ in range(draws - 1)]
    fixed = placements(rng, 1, nr if stack_tx else nt)[0]
    stack = placements(rng, b, nt if stack_tx else nr)
    args = (lambda q: (q, fixed)) if stack_tx else (lambda q: (fixed, q))
    caps = _ensemble_capacity(*args(stack), ensemble, 10.0, 1.0)
    assert caps.shape == (b,)
    for q, got in zip(stack, caps):
        want = scalar_ensemble_capacity(*args(q), ensemble, 10.0, 1.0)
        assert float(got).hex() == want.hex()
        assert float(_ensemble_capacity(*args(q), ensemble, 10.0, 1.0)).hex() == want.hex()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), b=st.integers(1, 4), n=st.integers(3, 6),
       k=st.integers(2, 3), draws=st.integers(1, 3), combiner=st.sampled_from(["zf", "mmse"]),
       utility=st.sampled_from(["sum", "min"]), budget=st.sampled_from(["sum", "max"]))
def test_stacked_multiuser_score_matches_each_placement(seed, b, n, k, draws, combiner,
                                                        utility, budget):
    rng = np.random.default_rng(seed)
    users = [gen_scenario(rng, n_paths=3, kappa=1.0) for _ in range(k)]
    ens = [users] + [[redraw_prm_phases(u, rng) for u in users] for _ in range(draws - 1)]
    pos = placements(rng, b + 1, n)  # the last placement is rank deficient
    score = _mean_utility(pos, _draw_channels(ens), combiner, utility, budget, 10.0, 1.0)
    assert score.shape == (b + 1,)
    for q, got in zip(pos, score):
        want = scalar_mean_utility(q, ens, combiner, utility, budget, 10.0, 1.0)
        assert float(got).hex() == want.hex()
    if combiner == "zf":  # -inf for the rank-deficient placement only
        assert score[-1] == -np.inf and np.all(np.isfinite(score[:-1]))
