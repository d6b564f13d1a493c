"""Batched field kernels against the per-path loops they replaced.

The oracles (in oracles.py) are the earlier scalar implementations: one wave
vector per accs_basis call, one path pair per polarization product, one outer
product per path on the position grid.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from makit import experiments
from makit.channel import (PathSet, RadiationPattern, polarization_gain, prm_6dma,
                           radiation_gain, sample_directions)
from makit.geometry import accs_basis, aom_from_euler
from oracles import (ref_accs_basis, ref_gain_field_minmax, ref_polarization_gain, ref_prm_6dma,
                     ref_trial_dof, ref_wideband_gain_minmax, today_gain_field_minmax)

TOL = 1e-12


# ---------------------------------------------------------------------------
# strategies

POLES = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]


def _unit(el_az):
    el, az = el_az
    return (math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el))


angle = st.floats(-math.pi, math.pi, allow_nan=False)
wave_vector = st.one_of(st.sampled_from(POLES),
                        st.tuples(st.floats(-math.pi / 2, math.pi / 2), angle).map(_unit))
orientation = st.tuples(angle, angle, angle).map(lambda e: aom_from_euler(*e))
real = st.floats(-2.0, 2.0, allow_nan=False)
coefficient = st.one_of(st.just(0j), st.builds(complex, real, real))

ELLIPTICAL = RadiationPattern(lambda k: 0.8 + 0.3j * k[0], lambda k: 0.5j * k[1] - 0.2,
                              name="elliptical")
PATTERNS = {"iso": RadiationPattern.isotropic(),
            "dir": RadiationPattern.ideal_directional(6.0),
            "elliptical": ELLIPTICAL}
pattern = st.sampled_from(sorted(PATTERNS)).map(PATTERNS.get)


def _close(got, want):
    return np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0) <= TOL * max(
        1.0, np.max(np.abs(want), initial=0.0))


# ---------------------------------------------------------------------------
# accs_basis

@settings(max_examples=200, deadline=None)
@given(st.lists(wave_vector, min_size=1, max_size=8))
def test_accs_basis_stack_matches_scalar(ks):
    k = np.array(ks)
    i, j = accs_basis(k)
    assert i.shape == j.shape == k.shape
    for row, ir, jr in zip(k, i, j):
        want_i, want_j = ref_accs_basis(row)
        assert _close(ir, want_i) and _close(jr, want_j)
    i1, j1 = accs_basis(k[0])
    assert i1.shape == j1.shape == (3,)
    assert _close(i1, i[0]) and _close(j1, j[0])


def test_accs_basis_stack_rejects_any_non_unit_row():
    k = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    with pytest.raises(ValueError, match="unit norm"):
        accs_basis(k)
    with pytest.raises(ValueError):
        accs_basis(np.ones((2, 2)))


def test_accs_basis_stack_pole_fallback():
    i, j = accs_basis(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]))
    assert np.array_equal(i[[0, 2]], [[1.0, 0.0, 0.0]] * 2)
    assert np.array_equal(j[[0, 2]], [[0.0, 1.0, 0.0]] * 2)


# ---------------------------------------------------------------------------
# polarization product and the orientation-dependent PRM

@settings(max_examples=150, deadline=None)
@given(pattern, pattern, orientation, orientation, wave_vector, wave_vector,
       st.lists(coefficient, min_size=4, max_size=4))
def test_polarization_gain_matches_reference(tx_pat, rx_pat, psi, omega, k_t, k_r, lam):
    lam = np.reshape(lam, (2, 2))
    try:
        want = ref_polarization_gain(tx_pat, rx_pat, psi, omega, k_t, k_r, lam)
    except ValueError:
        with pytest.raises(ValueError, match="zero radiation gain"):
            polarization_gain(tx_pat, rx_pat, psi, omega, k_t, k_r, lam)
        return
    assert _close(polarization_gain(tx_pat, rx_pat, psi, omega, k_t, k_r, lam), want)


@settings(max_examples=150, deadline=None)
@given(pattern, pattern, orientation, orientation,
       st.lists(wave_vector, min_size=1, max_size=4),
       st.lists(wave_vector, min_size=1, max_size=4), st.data())
def test_prm_6dma_matches_double_loop(tx_pat, rx_pat, psi, omega, kt, kr, data):
    tx_paths, rx_paths = PathSet(np.array(kt)), PathSet(np.array(kr))
    n = len(kr) * len(kt) * 4
    pprms = np.reshape(data.draw(st.lists(coefficient, min_size=n, max_size=n)),
                       (len(kr), len(kt), 2, 2))
    got = prm_6dma(pprms, psi, omega, tx_pat, rx_pat, tx_paths, rx_paths)
    want = ref_prm_6dma(pprms, psi, omega, tx_pat, rx_pat, tx_paths, rx_paths)
    assert got.shape == want.shape
    assert _close(got, want)
    g_t = np.array([radiation_gain(tx_pat, psi, k) for k in kt])
    g_r = np.array([radiation_gain(rx_pat, omega, k) for k in kr])
    zero = (g_r[:, None] == 0) | (g_t[None, :] == 0) | np.all(pprms == 0, axis=(2, 3))
    assert np.all(got[zero] == 0)  # zero-gain paths and zero pprms give exact zeros


def test_prm_6dma_directional_miss_zeros_row_and_column():
    psi = aom_from_euler(0.3, -0.2, 1.1)
    k_in = psi @ np.array([0.0, 0.0, 1.0])      # Tx lobe axis in the LCS
    k_out = psi @ np.array([1.0, 0.0, 0.0])     # outside the Tx lobe
    tx_paths = PathSet(np.array([k_in, k_out]))
    rx_paths = PathSet(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]))
    pprms = np.ones((3, 2, 2, 2), dtype=complex)
    dirpat = RadiationPattern.ideal_directional(6.0)
    got = prm_6dma(pprms, psi, np.eye(3), dirpat, dirpat, tx_paths, rx_paths)
    want = ref_prm_6dma(pprms, psi, np.eye(3), dirpat, dirpat, tx_paths, rx_paths)
    assert np.all(got[:, 1] == 0) and np.all(got[1, :] == 0)
    assert np.all(np.abs(got[[0, 2]][:, 0]) > 0)
    assert _close(got, want)


def test_prm_6dma_calls_patterns_once_per_path():
    """L calls per side for one orientation, O * L for a stack of O orientations."""
    rng = np.random.default_rng(3)
    kt = rng.standard_normal((3, 3))
    kr = rng.standard_normal((4, 3))
    paths = [PathSet(k / np.linalg.norm(k, axis=1, keepdims=True)) for k in (kt, kr)]
    for n_orient in (None, 1, 5):
        calls = {"tx": 0, "rx": 0}

        def counting(side):
            def f1(k):
                calls[side] += 1
                return 1.0
            return RadiationPattern(f1, lambda k: 0.0)

        aom = np.eye(3) if n_orient is None else np.stack(
            [aom_from_euler(*rng.uniform(-np.pi, np.pi, 3)) for _ in range(n_orient)])
        out = prm_6dma(np.ones((4, 3, 2, 2)), aom, aom, counting("tx"), counting("rx"), *paths)
        o = 1 if n_orient is None else n_orient
        assert out.shape == aom.shape[:-2] + (4, 3)
        assert calls == {"tx": o * 3, "rx": o * 4}


orientations = st.lists(orientation, min_size=1, max_size=5).map(np.stack)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["iso", "dir"]), st.floats(3.1, 30.0), orientations,
       st.lists(wave_vector, min_size=1, max_size=6))
def test_built_in_patterns_on_a_stack_match_per_row_calls_bitwise(name, gain_dbi, aoms, ks):
    pat = (RadiationPattern.isotropic() if name == "iso"
           else RadiationPattern.ideal_directional(gain_dbi))
    paths = PathSet(np.array(ks))
    pprms = np.ones((len(ks), len(ks), 2, 2), dtype=complex)

    def prm(p, aom=aoms):
        return prm_6dma(pprms, aom, aom[..., ::-1, :], p, p, paths, paths).tobytes()

    per_row = RadiationPattern(pat.f1, pat.f2)  # the same callables, called once per row
    assert prm(pat) == prm(per_row) and prm(pat, aoms[0]) == prm(per_row, aoms[0])
    pat.f1 = lambda k: 2.0  # a replaced callable is called, not the built-in stack
    assert prm(pat) == prm(RadiationPattern(pat.f1, pat.f2))


@settings(max_examples=150, deadline=None)
@given(pattern, pattern, orientations, orientations,
       st.lists(wave_vector, min_size=1, max_size=4),
       st.lists(wave_vector, min_size=1, max_size=4), st.data())
def test_prm_6dma_stack_matches_per_orientation_calls(tx_pat, rx_pat, psis, omegas, kt, kr,
                                                      data):
    tx_paths, rx_paths = PathSet(np.array(kt)), PathSet(np.array(kr))
    n = len(kr) * len(kt) * 4
    pprms = np.reshape(data.draw(st.lists(coefficient, min_size=n, max_size=n)),
                       (len(kr), len(kt), 2, 2))
    omegas = omegas[:len(psis)]
    psis = psis[:len(omegas)]

    def prm(psi, omega):
        return prm_6dma(pprms, psi, omega, tx_pat, rx_pat, tx_paths, rx_paths)

    on_psi, on_omega, on_both = prm(psis, omegas[0]), prm(psis[0], omegas), prm(psis, omegas)
    assert on_both.shape == (len(psis), len(kr), len(kt))
    for o in range(len(psis)):
        assert np.array_equal(on_psi[o], prm(psis[o], omegas[0]))
        assert np.array_equal(on_omega[o], prm(psis[0], omegas[o]))
        assert np.array_equal(on_both[o], prm(psis[o], omegas[o]))
    grid = prm(psis[:, None], omegas[None])  # every (psi, omega) pair
    assert grid.shape == (len(psis), len(omegas), len(kr), len(kt))
    assert np.array_equal(grid[:, 0], on_psi) and np.array_equal(grid[0], on_omega)


@pytest.mark.parametrize("lr, lt", [(1, 1), (1, 3), (4, 1), (4, 4)])
def test_prm_6dma_stack_matches_per_orientation_calls_on_random_draws(lr, lt):
    """Full-precision draws, where the summation order of an entry shows in its last bits."""
    rng = np.random.default_rng(lr * 10 + lt)
    for _ in range(40):
        tx_paths = PathSet(sample_directions(rng, lt, "sphere"))
        rx_paths = PathSet(sample_directions(rng, lr, "sphere"))
        pprms = rng.standard_normal((lr, lt, 2, 2)) + 1j * rng.standard_normal((lr, lt, 2, 2))
        psis, omegas = (np.stack([aom_from_euler(*rng.uniform(-np.pi, np.pi, 3))
                                  for _ in range(6)]) for _ in range(2))
        got = prm_6dma(pprms, psis, omegas, ELLIPTICAL, ELLIPTICAL, tx_paths, rx_paths)
        for o in range(6):
            one = prm_6dma(pprms, psis[o], omegas[o], ELLIPTICAL, ELLIPTICAL, tx_paths, rx_paths)
            assert np.array_equal(got[o], one)


def test_prm_6dma_stack_keeps_directional_misses_exact_zeros():
    dirpat = RadiationPattern.ideal_directional(6.0)
    psi = aom_from_euler(0.3, -0.2, 1.1)
    tx_paths = PathSet(np.array([psi @ [0.0, 0.0, 1.0], psi @ [1.0, 0.0, 0.0]]))
    rx_paths = PathSet(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]))
    omegas = np.stack([np.eye(3), aom_from_euler(0.0, np.pi / 2, 0.0),
                       aom_from_euler(1.0, 2.0, 3.0)])
    pprms = np.ones((3, 2, 2, 2), dtype=complex)
    got = prm_6dma(pprms, psi, omegas, dirpat, dirpat, tx_paths, rx_paths)
    for o, om in enumerate(omegas):
        want = prm_6dma(pprms, psi, om, dirpat, dirpat, tx_paths, rx_paths)
        assert np.array_equal(got[o], want)
        assert _close(got[o], ref_prm_6dma(pprms, psi, om, dirpat, dirpat, tx_paths, rx_paths))
        g_r = np.array([radiation_gain(dirpat, om, k) for k in rx_paths.wave_vectors])
        assert np.all(got[o][g_r == 0] == 0)
    assert np.all(got[:, :, 1] == 0)  # the Tx path outside the lobe, under every orientation
    assert np.any(np.all(got == 0, axis=2))  # some orientation misses an Rx path entirely


# ---------------------------------------------------------------------------
# position-grid fields

grid = st.tuples(st.floats(0.5, 2.0), st.sampled_from([0.1, 0.2, 0.25]), st.floats(0.5, 2.0))


def _field(k, coeffs, side, step, lam):
    """The grid kernel on the tables of its own grid."""
    return experiments._gain_field_minmax(experiments._field_tables(k, side, step, lam), coeffs)


def _close_to_max(got, want):
    """Field values agree relative to the field maximum (min_gain can sit near zero)."""
    scale = max(want[0], 1e-300)
    return all(abs(g - w) <= TOL * scale for g, w in zip(got, want))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(wave_vector, coefficient), min_size=1, max_size=6), grid)
def test_gain_field_matches_outer_product_loop(paths, geom):
    side, step, lam = geom
    k = np.array([p[0] for p in paths])
    b = np.array([p[1] for p in paths])
    got = _field(k, b, side * lam, step * lam, lam)
    want = ref_gain_field_minmax(k, b, side * lam, step * lam, lam)
    assert _close_to_max(got, want)


@settings(max_examples=100, deadline=None)
@given(st.lists(wave_vector, min_size=1, max_size=6), grid, st.integers(1, 4), st.data())
def test_pair_form_matches_todays_blocked_kernel(ks, geom, n_cols, data):
    side, step, lam = geom[0] * geom[2], geom[1] * geom[2], geom[2]
    k = np.array(ks)
    n = len(ks) * n_cols
    coeffs = np.reshape(data.draw(st.lists(coefficient, min_size=n, max_size=n)),
                        (len(ks), n_cols))
    want = today_gain_field_minmax(k, coeffs, side, step, lam)
    got = _field(k, coeffs, side, step, lam)
    assert _close_to_max(got, want)
    assert min(got) >= 0.0


@pytest.mark.parametrize("k, coeffs", [
    ([(0.6, 0.0, 0.8)], [0.3 - 1.2j]),                                # one path: no pairs
    ([(0.6, 0.0, 0.8)], [[0.3 - 1.2j, 2.0, 0.0]]),                    # and three columns
    ([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)], [0j] * 3),  # zero coefficients
    # equal amplitudes that cancel wherever x = y, z = 0: the pair form rounds below 0 there
    ([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], [1j, -1j])])
def test_pair_form_on_single_zero_and_cancelling_paths(k, coeffs):
    k = np.array(k)
    want = today_gain_field_minmax(k, coeffs, 2.0, 0.1, 1.0)
    got = _field(k, coeffs, 2.0, 0.1, 1.0)
    assert _close_to_max(got, want)
    assert got[1] >= 0.0 and got[2] >= 0.0
    if len(k) == 1:  # |c|^2 on every grid point
        assert got[0] == got[1] == got[2] == pytest.approx(np.sum(np.abs(coeffs) ** 2))


def _row_blocks(side, step):
    """_FIELD_BLOCK values that walk the grid 2 (x, y) points (the least), about 3 (x, y) rows
    or all at once: a block holds one power per height and (x, y) point."""
    n = len(np.arange(0.0, side + step / 2.0, step))
    return (1, 3 * n * n, n ** 3)


def _hex(values):
    return [float(v).hex() for v in values]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(wave_vector, coefficient), min_size=1, max_size=6), grid,
       st.sampled_from([1, 8, 64]), st.floats(1e6, 5e7), st.integers(0, 2 ** 32))
def test_wideband_field_matches_per_tap_loop(paths, geom, m_sub, bandwidth, seed):
    side, step, lam = geom
    k = np.array([p[0] for p in paths])
    b = np.array([p[1] for p in paths])
    params = {"bandwidth": bandwidth, "subcarriers": m_sub, "max_delay": 3e-7,
              "grid_step": step}
    want = ref_wideband_gain_minmax(np.random.default_rng(seed), params, k, b, side * lam, lam)
    runs = []
    for block in _row_blocks(side * lam, step * lam):
        with mock.patch.object(experiments, "_FIELD_BLOCK", block):
            got = experiments._wideband_gain_minmax(np.random.default_rng(seed), params, k, b,
                                                    side * lam, lam)
        assert _close_to_max(got, want)
        runs.append(_hex(got))
    assert runs[1:] == runs[:-1]


@settings(max_examples=60, deadline=None)
@given(st.lists(wave_vector, min_size=1, max_size=5), grid, st.integers(1, 9), st.data())
def test_blocked_grid_columns_match_per_column_loop(ks, geom, n_cols, data):
    side, step, lam = geom[0] * geom[2], geom[1] * geom[2], geom[2]
    k = np.array(ks)
    coeffs = np.reshape(data.draw(st.lists(coefficient, min_size=len(ks) * n_cols,
                                           max_size=len(ks) * n_cols)),
                        (len(ks), n_cols))
    want = [ref_gain_field_minmax(k, c, side, step, lam) for c in coeffs.T]
    scale = sum(w[0] for w in want)
    runs = []
    for block in _row_blocks(side, step):
        with mock.patch.object(experiments, "_FIELD_BLOCK", block):
            per_col = [_field(k, c, side, step, lam) for c in coeffs.T]
            hi, lo, origin = _field(k, coeffs, side, step, lam)
        for got, w in zip(per_col, want):
            assert _close_to_max(got, w)
        # the column-summed power: its origin is the sum of the columns' origins, and
        # its extrema lie between the columns' largest maximum and sums of extrema
        assert abs(origin - sum(w[2] for w in want)) <= TOL * max(scale, 1e-300)
        assert max(w[0] for w in want) - TOL * scale <= hi <= scale * (1.0 + TOL)
        assert sum(w[1] for w in want) - TOL * scale <= lo <= hi
        runs.append([_hex(v) for v in per_col + [(hi, lo, origin)]])
    assert runs[1:] == runs[:-1]


@pytest.mark.parametrize("bandwidth", [0.0, 2e7])
def test_catalog_size_grid_matches_reference_for_every_block_size(bandwidth):
    # siso-gain-bounds defaults: a 101^3 grid, which the default _FIELD_BLOCK walks in 16
    # blocks, wideband too: its subcarrier columns reach the grid only through their Gram
    # matrix.  4 subcarriers keep the reference's subcarrier x grid response at 66 MB, not 1 GB.
    params = {**experiments.CATALOG["siso-gain-bounds"].defaults, "bandwidth": bandwidth,
              "subcarriers": 4}
    lam = params["wavelength"]
    side, step = params["region_side"] * lam, params["grid_step"] * lam
    rng = np.random.default_rng(3)
    k = sample_directions(rng, params["n_paths"], params["angle_law"])
    b = rng.standard_normal(params["n_paths"]) + 1j * rng.standard_normal(params["n_paths"])
    if bandwidth:
        want = ref_wideband_gain_minmax(np.random.default_rng(4), params, k, b, side, lam)
    else:
        want = ref_gain_field_minmax(k, b, side, step, lam)
    runs = []
    for block in (1, experiments._FIELD_BLOCK, 101 ** 3):  # 2 points, default, all
        with mock.patch.object(experiments, "_FIELD_BLOCK", block):
            got = (experiments._wideband_gain_minmax(np.random.default_rng(4), params, k, b,
                                                     side, lam)
                   if bandwidth else _field(k, b, side, step, lam))
        assert _close_to_max(got, want)
        runs.append(_hex(got))
    assert runs[1:] == runs[:-1]


@pytest.mark.parametrize("bandwidth", [0.0, 2e7])
def test_grid_search_memory_does_not_grow_with_the_grid(bandwidth):
    # catalog defaults: a 101^3 grid (5 wavelengths, step 0.05), wideband with 64 subcarriers.
    # The whole field would take 8.2 MB, and 16.5 MB per column as complex values.
    params = {**experiments.CATALOG["siso-gain-bounds"].defaults, "bandwidth": bandwidth}
    lam = params["wavelength"]
    rng = np.random.default_rng(7)
    k = sample_directions(rng, params["n_paths"], params["angle_law"])
    b = rng.standard_normal(params["n_paths"]) + 1j * rng.standard_normal(params["n_paths"])
    side = params["region_side"] * lam
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        if bandwidth:
            experiments._wideband_gain_minmax(rng, params, k, b, side, lam)
        else:
            _field(k, b, side, params["grid_step"] * lam, lam)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


@pytest.mark.parametrize("joint", [True, False])
@pytest.mark.parametrize("seed", [3, 17])
def test_dof_trial_matches_per_orientation_loop(seed, joint):
    params = {**experiments.CATALOG["dof-gain"].defaults, "n_paths": 3, "region_side": 2.0,
              "orientation_grid": 4, "joint": joint}
    got = experiments._trial_dof(params, seed, 0)
    want = ref_trial_dof(params, seed, 0)
    assert len(got) == len(want) == 9
    assert all(abs(g - w) <= TOL * max(want) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# shortcuts of the dof-gain and wideband searches

def _all_columns_max(k, coeffs, side, step, lam):
    return max(_field(k, c, side, step, lam)[0] for c in coeffs.T)


def _counting_kernel(monkeypatch):
    """Patch experiments._gain_field_minmax to record the number of columns of every call."""
    seen = []
    kernel = experiments._gain_field_minmax

    def counted(tables, coeffs):
        seen.append(1 if np.ndim(coeffs) == 1 else np.shape(coeffs)[1])
        return kernel(tables, coeffs)

    monkeypatch.setattr(experiments, "_gain_field_minmax", counted)
    return seen


@pytest.mark.parametrize("seed", [0, 5, 23])
def test_pruned_joint_max_matches_all_orientation_columns(seed, monkeypatch):
    defaults = experiments.CATALOG["dof-gain"].defaults
    params = {**defaults, "n_paths": 3, "region_side": 2.0}
    assert params["orientation_grid"] == 8  # the catalog default: 256 orientation columns
    seen = _counting_kernel(monkeypatch)
    built, tables = [], experiments._field_tables
    monkeypatch.setattr(experiments, "_field_tables", lambda *a: built.append(a) or tables(*a))
    got = experiments._trial_dof(params, seed, 0)
    want = ref_trial_dof(params, seed, 0)
    assert all(abs(g - w) <= TOL * max(want) for g, w in zip(got, want))
    # two single-column fixed-antenna fields, then the pruned joint searches, all on one table
    assert sum(seen) - 2 < 2 * 256 and len(seen) > 2
    assert len(built) == 1


def test_pruned_joint_max_handles_zero_and_tied_columns():
    rng = np.random.default_rng(11)
    lam, side, step = 1.0, 2.0, 0.25
    k = sample_directions(rng, 4, "sphere")
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (4, 6)))
    tied = c[:, None] * phases                      # six columns with the same bound
    coeffs = np.concatenate([np.zeros((4, 3)), tied, 0.5 * tied, np.zeros((4, 2))], axis=1)
    bound = np.sum(np.abs(coeffs), axis=0) ** 2
    assert np.ptp(bound[3:9]) <= 1e-15 * bound[3]
    want = _all_columns_max(k, coeffs, side, step, lam)
    tables = experiments._field_tables(k, side, step, lam)
    assert abs(experiments._joint_max(tables, coeffs) - want) <= TOL * want
    for perm in (rng.permutation(coeffs.shape[1]) for _ in range(5)):
        got = experiments._joint_max(tables, coeffs[:, perm])
        assert abs(got - want) <= TOL * want
    assert experiments._joint_max(tables, np.zeros((4, 5))) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(wave_vector, min_size=1, max_size=5), st.integers(1, 12), st.data())
def test_pruned_joint_max_matches_every_column(ks, n_cols, data):
    k = np.array(ks)
    coeffs = np.reshape(data.draw(st.lists(coefficient, min_size=len(ks) * n_cols,
                                           max_size=len(ks) * n_cols)), (len(ks), n_cols))
    want = _all_columns_max(k, coeffs, 1.5, 0.25, 1.0)
    got = experiments._joint_max(experiments._field_tables(k, 1.5, 0.25, 1.0), coeffs)
    assert abs(got - want) <= TOL * max(want, 1e-300)


@pytest.mark.parametrize("n_paths, m_sub", [(6, 2), (4, 4), (3, 64)])
def test_wideband_product_inner_size_is_one_plus_path_pairs(n_paths, m_sub, monkeypatch):
    rng = np.random.default_rng(n_paths + m_sub)
    k = sample_directions(rng, n_paths, "sphere")
    b = rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)
    params = {"bandwidth": 4e7, "subcarriers": m_sub, "max_delay": 3e-7, "grid_step": 0.2}
    want = ref_wideband_gain_minmax(np.random.default_rng(1), params, k, b, 2.0, 1.0)
    seen, kernel = [], experiments._gain_field_minmax
    monkeypatch.setattr(experiments, "_gain_field_minmax", lambda tables, coeffs: seen.append(
        (len(tables[-1]), np.shape(coeffs))) or kernel(tables, coeffs))
    got = experiments._wideband_gain_minmax(np.random.default_rng(1), params, k, b, 2.0, 1.0)
    # all M subcarrier columns go in; the table's rows, the product's inner size, do not grow
    assert seen == [(1 + n_paths * (n_paths - 1), (n_paths, m_sub))]
    assert _close_to_max(got, want)
