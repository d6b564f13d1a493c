"""Stacked channel evaluation and the shared pursuit loop against the code they replaced.

The oracles (in oracles.py) are the earlier implementations: a field-response
matrix built with a per-point coordinate rule (a column of it is the one-point
field-response vector), one channel_narrowband call per measurement built on
it, and the greedy loop omp and omp_joint wrote out before they shared one,
with their two atom pickers.  The stacked channel sums in another order, so
it matches within 1e-12; the pursuit loop does the same arithmetic in the
same order, so omp matches bitwise.  omp_joint's oracle builds its atom
tables with one complex exp per entry, where omp_joint multiplies per-axis
tables that round differently, so the picks match except at near-ties and
the fit matches within 1e-9.

The estimation trial scores a recovery from path Gram matrices; the map NMSE
it replaced, nmse(channel_mimo(...), reconstruct_mapping(...)), is its oracle.

The successive recovery pairs its Tx and Rx paths with its own minimum-cost
assignment; scipy's linear_sum_assignment, which it used before, is the
oracle for the total cost, and brute force over permutations decides when
the optimum is unique and the pairing must match too.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from makit import estimate
from makit.channel import (PathSet, Scenario, channel_mimo, channel_narrowband, frv_tx,
                           sample_directions)
from makit.estimate import (FriEstimate, MeasurementSet, nmse, omp, omp_joint, path_nmse,
                            reconstruct_mapping, uv_grid)
from makit.experiments import CATALOG
from oracles import ref_channel_narrowband, ref_frm, ref_omp, ref_omp_joint

ATOL = 1e-12
PURSUIT_TOL = 1e-9  # PRM and residual of omp_joint against its direct-table oracle


# ---------------------------------------------------------------------------
# field-response vectors and stacked channels

def random_scenario(rng, lt, lr, wavelength):
    prm = rng.standard_normal((lr, lt)) + 1j * rng.standard_normal((lr, lt))
    return Scenario(wavelength=wavelength, tx_paths=PathSet(sample_directions(rng, lt)),
                    rx_paths=PathSet(sample_directions(rng, lr)), prm=prm / math.sqrt(lt * lr))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_paths=st.integers(1, 8), dim=st.integers(1, 3),
       bare_x=st.booleans(), wavelength=st.sampled_from([0.01, 0.5, 1.0, 3.0]))
def test_frv_tx_matches_per_point_coordinate_rule(seed, n_paths, dim, bare_x, wavelength):
    rng = np.random.default_rng(seed)
    paths = PathSet(sample_directions(rng, n_paths, "sphere"))
    t = rng.uniform(-5, 5, dim) * wavelength
    point = float(t[0]) if bare_x else t
    np.testing.assert_allclose(frv_tx(point, paths, wavelength),
                               ref_frm([point], paths, wavelength)[:, 0], rtol=0, atol=ATOL)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), lt=st.integers(1, 5), lr=st.integers(1, 5),
       m=st.integers(0, 40), dim_t=st.integers(1, 3), dim_r=st.integers(1, 3),
       wavelength=st.sampled_from([0.5, 1.0, 2.0]))
def test_stacked_narrowband_matches_per_point_loop(seed, lt, lr, m, dim_t, dim_r, wavelength):
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, lt, lr, wavelength)
    t = rng.uniform(0, 4, (m, dim_t))
    r = rng.uniform(0, 4, (m, dim_r))
    got = channel_narrowband(t, r, sc)
    assert got.shape == (m,)
    want = np.array([ref_channel_narrowband(t[i], r[i], sc) for i in range(m)], dtype=complex)
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), lt=st.integers(1, 5), lr=st.integers(1, 5),
       dim_t=st.integers(0, 3), dim_r=st.integers(0, 3))
def test_single_pair_narrowband_matches_per_point_form(seed, lt, lr, dim_t, dim_r):
    # dimension 0 is a bare x coordinate
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, lt, lr, 1.0)
    t = float(rng.uniform(0, 4)) if dim_t == 0 else rng.uniform(0, 4, dim_t)
    r = float(rng.uniform(0, 4)) if dim_r == 0 else rng.uniform(0, 4, dim_r)
    got = channel_narrowband(t, r, sc)
    assert isinstance(got, complex)
    assert abs(got - ref_channel_narrowband(t, r, sc)) <= ATOL


def test_stacked_narrowband_refuses_unpaired_positions():
    sc = random_scenario(np.random.default_rng(0), 2, 2, 1.0)
    with pytest.raises(ValueError, match="paired"):
        channel_narrowband(np.zeros((3, 3)), np.zeros((4, 3)), sc)
    with pytest.raises(ValueError, match="paired"):
        channel_narrowband(np.zeros(3), np.zeros((3, 3)), sc)


# ---------------------------------------------------------------------------
# the shared pursuit loop

def assert_omp_equal(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert got[3] == want[3]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 24), d=st.integers(1, 40),
       sparsity=st.integers(0, 4), n_atoms=st.integers(0, 8),
       noise_power=st.sampled_from([0.0, 1e-6, 1e-2, 1.0]),
       repeat_columns=st.booleans())
def test_omp_matches_reference_loop(seed, m, d, sparsity, n_atoms, noise_power,
                                    repeat_columns):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    if repeat_columns:  # exact correlation ties
        a[:, d // 2:] = a[:, :d - d // 2]
    support = rng.choice(d, size=min(sparsity, d), replace=False)
    y = a[:, support] @ (rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support)))
    y = y + math.sqrt(noise_power / 2) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    assert_omp_equal(omp(a, y, n_atoms, noise_power), ref_omp(a, y, n_atoms, noise_power))


def on_grid_measurements(rng, g, l, m, noise_power, power):
    grid = uv_grid(g)
    uv_t = np.column_stack([rng.choice(grid, l), rng.choice(grid, l)]) * 0.7
    uv_r = np.column_stack([rng.choice(grid, l), rng.choice(grid, l)]) * 0.7
    sc = Scenario(wavelength=1.0, tx_paths=PathSet.from_spatial_frequencies(uv_t),
                  rx_paths=PathSet.from_spatial_frequencies(uv_r),
                  prm=np.diag(rng.standard_normal(l) + 1j * rng.standard_normal(l)))
    t = np.column_stack([rng.uniform(0, 3, (m, 2)), np.zeros(m)])
    r = np.column_stack([rng.uniform(0, 3, (m, 2)), np.zeros(m)])
    y = math.sqrt(power) * np.array([ref_channel_narrowband(t[i], r[i], sc) for i in range(m)])
    y = y + math.sqrt(noise_power / 2) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return MeasurementSet(t, r, y, power, noise_power)


def outcome(run):
    try:
        return run()
    except ValueError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), g=st.integers(1, 6), l=st.integers(1, 3),
       m=st.integers(4, 40), n_paths=st.integers(1, 9),
       noise_power=st.sampled_from([0.0, 1e-4, 1e-1]), power=st.sampled_from([1.0, 4.0]),
       block=st.sampled_from([None, 1, 3, 7]))
# pilots below the noise floor: the pursuit selects no atom
@example(seed=52, g=3, l=1, m=4, n_paths=1, noise_power=1e-1, power=1.0, block=None)
@example(seed=71, g=2, l=1, m=4, n_paths=2, noise_power=1e-1, power=1.0, block=1)
def test_omp_joint_matches_reference_loop(seed, g, l, m, n_paths, noise_power, power, block):
    rng = np.random.default_rng(seed)
    ms = on_grid_measurements(rng, g, l, max(m, n_paths), noise_power, power)
    size = estimate._JOINT_BLOCK if block is None else block
    live = []  # the pairs omp_joint picks, in order

    def spy(*args):
        out = pursuit(*args)
        live[:] = out[0]
        return out

    def joint():
        with mock.patch.object(estimate, "_JOINT_BLOCK", size), \
                mock.patch.object(estimate, "_pursuit", spy):
            fri = omp_joint(ms, g, n_paths, 1.0)
        return fri.tx_uv, fri.rx_uv, fri.prm, fri.residual, fri.converged

    pursuit, picks = estimate._pursuit, []
    got = outcome(joint)
    want = outcome(lambda: ref_omp_joint(ms, g, n_paths, 1.0, block=size, picks=picks))
    if want == "joint recovery selected no atoms":  # the oracle refuses the empty estimate
        tx_uv, rx_uv, prm, residual, converged = got
        assert tx_uv.shape == rx_uv.shape == (0, 2) and prm.shape == (0, 0)
        y_norm = float(np.linalg.norm(ms.pilots))
        assert residual == y_norm  # nothing was fitted
        # converged only where the pilots were already below the stopping floor
        assert converged == (y_norm <= max(1.1 * math.sqrt(len(ms) * ms.noise_power),
                                           1e-12 * y_norm))
        return
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    # The per-axis atom tables round differently from the oracle's direct ones, so a pick
    # must match wherever the oracle's best two correlations differ by more than 1e-12
    # relative; at a closer tie it must be one of the tied pairs, and the two pursuits may
    # part there.
    for pair, (ref_pair, corr) in zip(live, picks):
        top = np.sort(corr.ravel())[::-1]
        if len(top) == 1 or top[0] - top[1] > 1e-12 * top[0]:
            assert pair == ref_pair
        else:
            assert corr[pair] >= top[0] * (1.0 - 1e-12)
            if pair != ref_pair:
                return
    assert len(live) == len(picks)
    tx_uv, rx_uv, prm, residual, converged = got
    assert np.array_equal(tx_uv, want[0]) and np.array_equal(rx_uv, want[1])
    scale = max(float(np.max(np.abs(want[2]), initial=0.0)), 1.0)
    np.testing.assert_allclose(prm, want[2], rtol=0, atol=PURSUIT_TOL * scale)
    assert math.isclose(residual, want[3], rel_tol=PURSUIT_TOL, abs_tol=PURSUIT_TOL * scale)
    assert converged == want[4]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), g=st.integers(1, 32), m=st.integers(1, 64),
       extent=st.floats(0.1, 10.0), wavelength=st.sampled_from([0.5, 1.0, 2.0]),
       sign=st.sampled_from([1, -1]))
def test_grid_atoms_match_the_direct_table(seed, g, m, extent, wavelength, sign):
    """The per-axis product table equals one exp per (u, v) pair within 4 ulps of the
    entry's phase terms |2 pi/lambda u x| + |2 pi/lambda v y|.  Both tables round the
    phase, so the bound grows with it: 1e-14 up to 11 rad.  (On the catalog's square of
    3 wavelengths the largest difference seen was 1.07e-14.)"""
    rng = np.random.default_rng(seed)
    positions = np.column_stack([rng.uniform(0.0, extent, (m, 2)) * wavelength, np.zeros(m)])
    uv = estimate._uv_pairs(g)
    direct = np.exp(sign * 2j * np.pi / wavelength * (uv @ positions[:, :2].T))
    terms = 2 * np.pi / wavelength * (np.abs(uv) @ positions[:, :2].T)
    error = np.abs(estimate._grid_atoms(g, positions, wavelength, sign) - direct)
    assert np.all(error <= 4 * np.finfo(float).eps * np.maximum(terms, 1.0))


# ---------------------------------------------------------------------------
# NMSE from path Gram matrices

def disk_uv(rng, count):
    r, a = np.sqrt(rng.uniform(0.0, 0.99, count)), rng.uniform(0.0, 2 * np.pi, count)
    return np.column_stack([r * np.cos(a), r * np.sin(a)])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), lt=st.integers(1, 4), lr=st.integers(1, 4),
       kept=st.integers(0, 4), extra=st.integers(0, 3),
       error=st.sampled_from([0.0, 1e-6, 1e-3, 1.0]), n_grid=st.integers(1, 30))
def test_path_nmse_matches_map_nmse(seed, lt, lr, kept, extra, error, n_grid):
    """An estimate keeps some true paths (the same floats, which merge with them) and adds
    others; its PRM is the true one on kept pairs, off by `error` everywhere."""
    rng = np.random.default_rng(seed)
    uv_t, uv_r = disk_uv(rng, lt), disk_uv(rng, lr)
    prm = rng.standard_normal((lr, lt)) + 1j * rng.standard_normal((lr, lt))
    sc = Scenario(wavelength=1.0, tx_paths=PathSet.from_spatial_frequencies(uv_t),
                  rx_paths=PathSet.from_spatial_frequencies(uv_r), prm=prm)
    it, ir = rng.permutation(lt)[:kept], rng.permutation(lr)[:kept]
    hat_t = np.vstack([uv_t[it], disk_uv(rng, extra)])
    hat_r = np.vstack([uv_r[ir], disk_uv(rng, extra)])
    prm_hat = np.zeros((len(hat_r), len(hat_t)), dtype=complex)
    prm_hat[:len(ir), :len(it)] = prm[np.ix_(ir, it)]
    shape = prm_hat.shape
    prm_hat += error * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    fri = FriEstimate(hat_t, hat_r, prm_hat)
    tx, rx = (np.column_stack([rng.uniform(0, 3, (n_grid, 2)), np.zeros(n_grid)]) for _ in "tr")
    want = nmse(channel_mimo(tx, rx, sc), reconstruct_mapping(fri, tx, rx, 1.0))
    got = path_nmse(sc, fri, tx, rx)
    assert got >= 0.0
    # the map NMSE rounds each entry of H - Hhat to about 1e-15 of |H|, an error of about
    # 1e-15 sqrt(nmse) in the ratio, which dominates once the estimate is close
    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-13 * math.sqrt(want) + 1e-28)


def test_path_nmse_scores_the_empty_estimate_one():
    rng = np.random.default_rng(5)
    sc = random_scenario(rng, 2, 3, 1.0)
    grid = np.column_stack([rng.uniform(0, 3, (20, 2)), np.zeros(20)])
    empty = FriEstimate(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 0)))
    assert path_nmse(sc, empty, grid, grid) == 1.0
    assert nmse(channel_mimo(grid, grid, sc), reconstruct_mapping(empty, grid, grid, 1.0)) == 1.0


@pytest.mark.parametrize("seed", range(8))
def test_noiseless_estimation_trial_is_exact_and_never_negative(seed):
    params = dict(CATALOG["estimation-nmse"].defaults, snr_db=math.inf)
    row = CATALOG["estimation-nmse"].trial(params, seed, seed)
    assert all(0.0 <= v <= 1e-28 for v in row[2:])


# ---------------------------------------------------------------------------
# path pairing of the successive recovery

@st.composite
def cost_matrices(draw):
    """Square matrices of size 0..8: small integers, which tie often, or floats."""
    n = draw(st.integers(0, 8))
    entries = draw(st.sampled_from([st.integers(0, 3).map(float),
                                    st.floats(-1e3, 1e3, allow_nan=False)]))
    return np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)),
                    dtype=float).reshape(n, n)


@settings(max_examples=400, deadline=None)
@given(c=cost_matrices())
def test_assignment_matches_scipy_and_brute_force(c):
    n = len(c)
    rows, cols = estimate._min_cost_assignment(c)
    assert np.array_equal(rows, np.arange(n)) and sorted(cols) == list(range(n))
    ref_rows, ref_cols = linear_sum_assignment(c)
    assert math.isclose(c[rows, cols].sum(), c[ref_rows, ref_cols].sum(),
                        rel_tol=1e-12, abs_tol=1e-9)
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    totals = c[np.arange(n), perms].sum(axis=1)
    best = totals.min()
    if np.sum(totals <= best + 1e-9 * (1.0 + abs(best))) == 1:  # a unique optimum
        assert np.array_equal(cols, perms[np.argmin(totals)])
        assert np.array_equal(cols, ref_cols)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_assignment_refuses_non_finite_costs(bad):
    c = np.ones((3, 3))
    c[1, 2] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        estimate._min_cost_assignment(c)
