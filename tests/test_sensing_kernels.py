"""Signal-vector MUSIC against the projector-based estimator it replaced.

The oracles (in oracles.py) are the earlier implementations: the steering
vector written out per call, the noise projector E_n E_n^H from all but the
top eigenvector, a three-operand einsum over the 1D grid and a per-row loop
over the 2D grid.  The new score N - |a^H v|^2 rounds differently from
a^H E_n E_n^H a, so the estimates match bitwise only while every grid argmin
and golden-section comparison is decided by more than that rounding (about
N * 1e-16).  On arrays with half-wavelength spacing the 1D search nearly
always was (0 of 5,000 random draws differed; the draw pinned in the 1D test
does, by 5.5e-7), so the 1D test claims the 1e-6 refinement tolerance.  The 2D
refinement makes a few hundred comparisons, and 3 of 1,400 random planar draws
met one decided by less; their estimates parted by at most 3.2e-7, within that
tolerance.  The draws of the 2D test are derandomized, and every one of them
matches bitwise.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from makit import sensing
from makit.sensing import SensingSetup, array_response, music_1d, music_2d, simulate_snapshots
from oracles import ref_array_response, ref_music_1d, ref_music_2d, ref_simulate_snapshots


# ---------------------------------------------------------------------------
# properties

def draw_setup(rng, placement, snapshots, snr_db, wavelength, planar):
    u = rng.uniform(-1.0, 1.0)
    v = rng.uniform(-1.0, 1.0) * math.sqrt(1.0 - u * u) if planar else None
    beta = complex(*rng.normal(size=2))
    noise = 0.0 if snr_db is None else 10.0 ** (-snr_db / 10.0)
    return SensingSetup(placement=placement, snapshots=snapshots, power=1.0, noise_power=noise,
                        beta=beta, u=u, v=v, wavelength=wavelength)


SNR_DB = st.one_of(st.none(), st.floats(0.0, 40.0))  # None: noiseless
WAVELENGTH = st.sampled_from([1.0, 0.1, 0.01])


# Antennas sit at least half a wavelength apart, as every placement in the
# package does.  Closer arrays flatten the pseudo-spectrum until its last
# refinement steps compare rounding: with spacings drawn from [0, 0.1]
# wavelengths, 18 of 1,500 linear draws differed (by at most 8.9e-7).
# Claimed to the refinement tolerance: a golden-section comparison decided by
# less than the rounding parts the estimates on the draw pinned below.
@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 20), snapshots=st.integers(1, 8), snr_db=SNR_DB, wavelength=WAVELENGTH,
       max_gap=st.floats(0.5, 2.0), seed=st.integers(0, 2 ** 32 - 1))
@example(n=5, snapshots=1, snr_db=None, wavelength=1.0, max_gap=0.875, seed=22550)
def test_music_1d_matches_projector_reference(n, snapshots, snr_db, wavelength, max_gap, seed):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.5, max_gap, n)) * wavelength
    setup = draw_setup(rng, x, snapshots, snr_db, wavelength, planar=False)
    y = simulate_snapshots(setup, seed)
    assert np.array_equal(y, ref_simulate_snapshots(setup, seed))
    assert abs(music_1d(y, x, wavelength).u - ref_music_1d(y, x, wavelength)) <= sensing._REFINE_TOL


# The draws of the test above (its strategies; a derandomized test draws from a
# seed of its own source, so the examples differ).  Between the cold and the warm
# call, a call on another placement and one at another wavelength fill other
# cache entries, which must not collide with the first.
@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 20), snapshots=st.integers(1, 8), snr_db=SNR_DB, wavelength=WAVELENGTH,
       max_gap=st.floats(0.5, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_music_1d_warm_call_matches_cold_call(n, snapshots, snr_db, wavelength, max_gap, seed):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.5, max_gap, n)) * wavelength
    setup = draw_setup(rng, x, snapshots, snr_db, wavelength, planar=False)
    y = simulate_snapshots(setup, seed)
    sensing._music_grid_table.cache_clear()
    cold = music_1d(y, x, wavelength).u
    music_1d(y, x[::-1], wavelength)
    music_1d(y, x, 2 * wavelength)
    assert sensing._music_grid_table.cache_info().currsize == 3
    assert float(music_1d(y, x, wavelength).u).hex() == float(cold).hex()


def test_music_1d_grid_tables_are_read_only_and_bounded():
    rng = np.random.default_rng(3)
    y = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    for k in range(sensing._GRID_TABLES + 3):
        x = np.arange(6) * (0.5 + 0.1 * k)
        music_1d(y, x)
        table = sensing._music_grid_table(x.tobytes(), 1.0, sensing._GRID_1D)
        assert table.shape == (sensing._GRID_1D, 6) and not table.flags.writeable
        assert sensing._music_grid_table.cache_info().currsize == min(k + 1, sensing._GRID_TABLES)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 16), snapshots=st.integers(1, 8), snr_db=SNR_DB, wavelength=WAVELENGTH,
       pitch=st.floats(0.6, 1.5), seed=st.integers(0, 2 ** 32 - 1))
def test_music_2d_matches_projector_reference(n, snapshots, snr_db, wavelength, pitch, seed):
    rng = np.random.default_rng(seed)
    side = math.isqrt(n - 1) + 2  # n distinct cells of a jittered square lattice
    cells = rng.choice(side * side, n, replace=False)
    xy = (np.column_stack([cells % side, cells // side]) * pitch
          + rng.uniform(-0.05, 0.05, (n, 2))) * wavelength
    setup = draw_setup(rng, xy, snapshots, snr_db, wavelength, planar=True)
    y = simulate_snapshots(setup, seed)
    assert np.array_equal(y, ref_simulate_snapshots(setup, seed))
    est = music_2d(y, xy, wavelength, grid=121)
    u, v = ref_music_2d(y, xy, wavelength, grid=121)
    assert (float(est.u).hex(), float(est.v).hex()) == (float(u).hex(), float(v).hex())


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), shape=st.sampled_from([(), (5,), (3, 4)]),
       planar=st.booleans(), wavelength=st.sampled_from([1.0, 0.1, 0.01]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_array_response_stacks_per_point_vectors(n, shape, planar, wavelength, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-3.0, 3.0, (n, 2) if planar else n)
    u = rng.uniform(-1.0, 1.0, shape)
    v = rng.uniform(-1.0, 1.0, shape) if planar else None
    got = array_response(p, u, v, wavelength)
    assert got.shape == shape + (n,)
    for idx in np.ndindex(*shape):
        ref = ref_array_response(p, float(u[idx]), float(v[idx]) if planar else None,
                                 wavelength)
        assert np.array_equal(got[idx], ref)
