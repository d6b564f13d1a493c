import numpy as np
import pytest

from makit.channel import PathSet, Scenario, channel_mimo, channel_narrowband, gen_scenario
from makit.estimate import (MeasurementSet, collect_measurements, export_mapping_csv,
                            load_mapping_csv, load_measurements, ls_prm,
                            nearest_measured_reconstruct, nmse, omp, omp_joint,
                            omp_successive, reconstruct_mapping, save_measurements, uv_grid)
from makit.geometry import MoveRegion
from oracles import scalar_export_mapping_csv

LAM = 1.0


def pick_separated(rng, candidates, l, min_sep):
    while True:
        idx = rng.choice(len(candidates), size=l, replace=False)
        pts = np.asarray([candidates[i] for i in idx], dtype=float)
        if l == 1:
            return pts
        d = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
        np.fill_diagonal(d, np.inf)
        if d.min() >= min_sep - 1e-12:
            return pts


def on_grid_scenario(seed, g=16, l=2, kappa=0.5):
    """Diagonal scenario with on-grid, region-resolvable spatial frequencies."""
    rng = np.random.default_rng(seed)
    grid = uv_grid(g)
    inside = [(u, v) for u in grid for v in grid if u * u + v * v <= 1.0]
    sep = 3.0 * (2.0 / g)  # three grid cells: resolvable over a few-wavelength region
    var = np.full(l, 1.0 / l) if l > 1 else np.array([1.0])
    diag = np.sqrt(var / 2) * (rng.standard_normal(l) + 1j * rng.standard_normal(l))
    return Scenario(
        wavelength=LAM,
        tx_paths=PathSet.from_spatial_frequencies(pick_separated(rng, inside, l, sep)),
        rx_paths=PathSet.from_spatial_frequencies(pick_separated(rng, inside, l, sep)),
        prm=np.diag(diag))


def region(side=3.0):
    return MoveRegion.box((side, side, 0.0))


def eval_grid(side=3.0, step=0.25):
    ax = np.arange(0.0, side + step / 2, step)
    return np.array([(x, y, 0.0) for x in ax for y in ax])


# --- measurement collection

def test_collect_noiseless_pilots_exact():
    sc = on_grid_scenario(0)
    ms = collect_measurements(sc, region(), region(), "paired", 20, 4.0, 0.0, 1)
    for m in range(20):
        h = channel_narrowband(ms.tx_positions[m], ms.rx_positions[m], sc)
        assert abs(ms.pilots[m] - 2.0 * h) < 1e-12


def test_collect_schedules_fix_one_side():
    sc = on_grid_scenario(1)
    ms_t = collect_measurements(sc, region(), region(), "tx-sweep", 10, 1.0, 0.0, 2)
    assert np.allclose(ms_t.rx_positions, 0.0)
    ms_r = collect_measurements(sc, region(), region(), "rx-sweep", 10, 1.0, 0.0, 2)
    assert np.allclose(ms_r.tx_positions, 0.0)


def test_collect_noise_variance_statistical():
    sc = on_grid_scenario(2, l=1)
    ms = collect_measurements(sc, region(), region(), "paired", 100_000, 1.0, 0.25, 3)
    clean = np.array([channel_narrowband(t, r, sc)
                      for t, r in zip(ms.tx_positions[:0], ms.rx_positions[:0])])
    # remove the deterministic part measurement by measurement
    h = np.array([channel_narrowband(ms.tx_positions[m], ms.rx_positions[m], sc)
                  for m in range(2000)])
    noise = ms.pilots[:2000] - h
    var = np.mean(np.abs(noise) ** 2)
    assert abs(var - 0.25) / 0.25 < 0.1


def test_collect_deterministic_per_seed():
    sc = on_grid_scenario(3)
    a = collect_measurements(sc, region(), region(), "paired", 16, 1.0, 0.1, 7)
    b = collect_measurements(sc, region(), region(), "paired", 16, 1.0, 0.1, 7)
    assert np.array_equal(a.pilots, b.pilots)


# --- orthogonal matching pursuit

def test_omp_single_atom_noiseless():
    rng = np.random.default_rng(4)
    d = rng.standard_normal((20, 50)) + 1j * rng.standard_normal((20, 50))
    d /= np.linalg.norm(d, axis=0)
    coef_true = 2.0 - 1.0j
    y = coef_true * d[:, 17]
    idx, coef, res, ok = omp(d, y, 1, 0.0)
    assert idx.tolist() == [17]
    assert abs(coef[0] - coef_true) < 1e-10
    assert res < 1e-10
    assert ok


def test_omp_successive_on_grid_noiseless_exact():
    sc = on_grid_scenario(5)
    ms_t = collect_measurements(sc, region(), region(), "tx-sweep", 64, 1.0, 0.0, 8)
    ms_r = collect_measurements(sc, region(), region(), "rx-sweep", 64, 1.0, 0.0, 9)
    fri = omp_successive(ms_t, ms_r, 16, 2, 2, LAM)
    got_t = set(map(tuple, np.round(fri.tx_uv, 9)))
    want_t = set(map(tuple, np.round(sc.tx_paths.wave_vectors[:, :2], 9)))
    assert got_t == want_t
    grid = eval_grid()
    h_true = channel_mimo(grid, grid, sc)
    h_hat = reconstruct_mapping(fri, grid, grid, LAM)
    assert nmse(h_true, h_hat) <= 1e-9


def test_omp_joint_on_grid_noiseless_exact():
    sc = on_grid_scenario(6)
    ms = collect_measurements(sc, region(), region(), "paired", 128, 1.0, 0.0, 10)
    fri = omp_joint(ms, 16, 4, LAM)
    grid = eval_grid()
    h_true = channel_mimo(grid, grid, sc)
    h_hat = reconstruct_mapping(fri, grid, grid, LAM)
    assert nmse(h_true, h_hat) <= 1e-9


def test_omp_joint_single_path_exact():
    sc = on_grid_scenario(7, l=1)
    ms = collect_measurements(sc, region(), region(), "paired", 32, 1.0, 0.0, 11)
    fri = omp_joint(ms, 16, 1, LAM)
    assert np.allclose(fri.tx_uv[0], sc.tx_paths.wave_vectors[0, :2], atol=1e-9)
    assert np.allclose(fri.rx_uv[0], sc.rx_paths.wave_vectors[0, :2], atol=1e-9)
    assert abs(fri.prm[0, 0] - sc.prm[0, 0]) < 1e-9


def test_omp_successive_30db_reconstruction():
    errs = []
    for seed in range(20):
        sc = on_grid_scenario(100 + seed)
        s2 = 10 ** (-3.0)
        ms_t = collect_measurements(sc, region(), region(), "tx-sweep", 64, 1.0, s2, seed)
        ms_r = collect_measurements(sc, region(), region(), "rx-sweep", 64, 1.0, s2, seed + 1)
        fri = omp_successive(ms_t, ms_r, 16, 2, 2, LAM)
        grid = eval_grid()
        errs.append(nmse(channel_mimo(grid, grid, sc),
                         reconstruct_mapping(fri, grid, grid, LAM)))
    assert np.mean(errs) <= 1e-3


def test_omp_off_grid_within_one_cell():
    rng = np.random.default_rng(12)
    g = 32
    cell = 2.0 / g
    uv_t = rng.uniform(-0.6, 0.6, (1, 2))
    uv_r = rng.uniform(-0.6, 0.6, (1, 2))
    sc = Scenario(wavelength=LAM, tx_paths=PathSet.from_spatial_frequencies(uv_t),
                  rx_paths=PathSet.from_spatial_frequencies(uv_r),
                  prm=np.array([[1.0 + 0.5j]]))
    ms_t = collect_measurements(sc, region(), region(), "tx-sweep", 80, 1.0, 0.0, 13)
    ms_r = collect_measurements(sc, region(), region(), "rx-sweep", 80, 1.0, 0.0, 14)
    fri = omp_successive(ms_t, ms_r, g, 1, 1, LAM)
    assert np.max(np.abs(fri.tx_uv[0] - uv_t[0])) <= cell
    assert np.max(np.abs(fri.rx_uv[0] - uv_r[0])) <= cell


def test_omp_joint_support_does_not_depend_on_the_pilot_scale():
    # G = 32 correlates the Tx atoms in two blocks; scaling the pilots by a power of two
    # scales every correlation exactly, so no block comparison may change its decision
    for seed in range(12):
        ms = collect_measurements(gen_scenario(seed, n_paths=4), region(), region(), "paired",
                                  64, 1.0, 0.0, seed)
        supports = []
        for scale in (2.0 ** -60, 1.0, 2.0 ** 40):
            fri = omp_joint(MeasurementSet(ms.tx_positions, ms.rx_positions, ms.pilots * scale,
                                           1.0, 0.0), 32, 4, LAM)
            supports.append((fri.tx_uv.tobytes(), fri.rx_uv.tobytes(), (fri.prm != 0).tobytes()))
        assert supports[0] == supports[1] == supports[2], f"gen_scenario seed {seed}"
    # 2 paths in 4 atoms: the loop stops on the residual, and the convergence flag
    # must weigh that residual against the pilots' scale too
    ms = collect_measurements(on_grid_scenario(6), region(), region(), "paired", 128, 1.0, 0.0, 6)
    fris = [omp_joint(MeasurementSet(ms.tx_positions, ms.rx_positions, ms.pilots * scale,
                                     1.0, 0.0), 16, 4, LAM)
            for scale in (2.0 ** -60, 1.0, 2.0 ** 40)]
    assert all(len(fri.tx_uv) == 2 for fri in fris)
    assert fris[0].converged == fris[1].converged == fris[2].converged


def test_omp_joint_measurement_precondition():
    sc = on_grid_scenario(8)
    ms = collect_measurements(sc, region(), region(), "paired", 2, 1.0, 0.0, 15)
    with pytest.raises(ValueError):
        omp_joint(ms, 16, 4, LAM)


def test_omp_joint_grid_cap():
    sc = on_grid_scenario(9)
    ms = collect_measurements(sc, region(), region(), "paired", 16, 1.0, 0.0, 16)
    with pytest.raises(ValueError):
        omp_joint(ms, 100, 4, LAM)


# --- least-squares path response recovery

def test_ls_prm_exact_factors_zero_residual():
    sc = on_grid_scenario(10)
    ms = collect_measurements(sc, region(), region(), "paired", 40, 1.0, 0.0, 17)
    prm, residual, rank_def, poor = ls_prm(
        ms.tx_positions, ms.rx_positions, ms.pilots,
        sc.tx_paths.wave_vectors[:, :2], sc.rx_paths.wave_vectors[:, :2], 1.0, 0.0, LAM)
    assert residual < 1e-9
    assert not rank_def and not poor
    assert np.allclose(prm, sc.prm, atol=1e-9)


def test_ls_prm_noisy_residual_chi_square():
    sc = on_grid_scenario(11)
    s2 = 0.01
    ms = collect_measurements(sc, region(), region(), "paired", 400, 1.0, s2, 18)
    _, residual, _, poor = ls_prm(ms.tx_positions, ms.rx_positions, ms.pilots,
                                  sc.tx_paths.wave_vectors[:, :2],
                                  sc.rx_paths.wave_vectors[:, :2], 1.0, s2, LAM)
    dof = 400 - 4
    assert abs(residual ** 2 - dof * s2) < 5 * s2 * np.sqrt(dof)
    assert not poor


def test_ls_prm_wrong_wave_vectors_flagged():
    sc = on_grid_scenario(12)
    s2 = 1e-4
    ms = collect_measurements(sc, region(), region(), "paired", 60, 1.0, s2, 19)
    wrong_t = sc.tx_paths.wave_vectors[:, :2] + 0.3
    wrong_t = np.clip(wrong_t, -1, 1)
    _, residual, _, poor = ls_prm(ms.tx_positions, ms.rx_positions, ms.pilots,
                                  wrong_t, sc.rx_paths.wave_vectors[:, :2], 1.0, s2, LAM)
    assert poor
    assert residual ** 2 > 10 * 60 * s2


def test_ls_prm_rank_deficiency_flagged():
    sc = on_grid_scenario(13, l=1)
    ms = collect_measurements(sc, region(), region(), "paired", 30, 1.0, 0.0, 20)
    dup_t = np.vstack([sc.tx_paths.wave_vectors[:, :2]] * 2)  # duplicated atom
    dup_r = np.vstack([sc.rx_paths.wave_vectors[:, :2]] * 2)
    prm, _, rank_def, _ = ls_prm(ms.tx_positions, ms.rx_positions, ms.pilots,
                                 dup_t, dup_r, 1.0, 0.0, LAM)
    assert rank_def


# --- model-free baseline

def test_nearest_exact_at_measured_positions():
    sc = on_grid_scenario(14)
    ms = collect_measurements(sc, region(), region(), "rx-sweep", 25, 4.0, 0.0, 21)
    got = nearest_measured_reconstruct(ms, ms.rx_positions)
    want = ms.pilots / 2.0
    assert np.allclose(got, want)


def test_nearest_single_measurement_constant_field():
    ms = MeasurementSet(np.zeros((1, 3)), np.zeros((1, 3)), np.array([1.0 + 2.0j]), 1.0, 0.0)
    q = np.random.default_rng(22).uniform(-1, 1, (10, 3))
    got = nearest_measured_reconstruct(ms, q)
    assert np.allclose(got, 1.0 + 2.0j)


def test_nearest_idempotent_on_own_grid():
    sc = on_grid_scenario(15)
    ms = collect_measurements(sc, region(), region(), "rx-sweep", 30, 1.0, 0.0, 23)
    first = nearest_measured_reconstruct(ms, ms.rx_positions)
    ms2 = MeasurementSet(ms.tx_positions, ms.rx_positions, first, 1.0, 0.0)
    second = nearest_measured_reconstruct(ms2, ms.rx_positions)
    assert np.allclose(first, second)


def test_nearest_ties_take_lowest_index():
    ms = MeasurementSet(np.zeros((2, 3)),
                        np.array([[1.0, 0, 0], [-1.0, 0, 0]]),
                        np.array([1.0 + 0j, 2.0 + 0j]), 1.0, 0.0)
    got = nearest_measured_reconstruct(ms, np.zeros((1, 3)))
    assert got[0] == 1.0 + 0j


def test_model_free_vs_model_based_region_ordering():
    # channel with a diffuse residual the sparse model cannot represent: on a
    # densely measured small region the copy-nearest estimate wins, on a large
    # region the model-based estimate wins
    from makit.channel import sample_directions

    results = {}
    for size in (2.0, 10.0):
        nm_model, nm_free = [], []
        for seed in range(12):
            rng = np.random.default_rng(300 + seed)
            k = sample_directions(rng, 12, "halfspace")
            var = np.concatenate([np.full(2, 0.75 / 2), np.full(10, 0.25 / 10)])
            b = np.sqrt(var / 2) * (rng.standard_normal(12) + 1j * rng.standard_normal(12))
            sc = Scenario(wavelength=LAM, tx_paths=PathSet(np.array([[1.0, 0.0, 0.0]])),
                          rx_paths=PathSet(k), prm=b.reshape(12, 1))
            line = MoveRegion.segment(size)
            s2 = 10 ** (-2.0)
            ms = collect_measurements(sc, line, line, "rx-sweep", 50, 1.0, s2, seed)
            ax = np.arange(0.0, size + 0.1, 0.2)
            queries = np.zeros((len(ax), 3))
            queries[:, 0] = ax
            h_true = np.array([channel_narrowband(np.zeros(3), q, sc) for q in queries])
            grid = uv_grid(64)
            atoms = np.exp(-2j * np.pi / LAM * np.outer(ms.rx_positions[:, 0], grid))
            sel, coef, _, _ = omp(atoms, ms.pilots, 2, s2)
            h_model = np.exp(-2j * np.pi / LAM * np.outer(ax, grid[sel])) @ coef
            nm_model.append(nmse(h_true, h_model))
            nm_free.append(nmse(h_true, nearest_measured_reconstruct(ms, queries)))
        results[size] = (np.mean(nm_model), np.mean(nm_free))
    assert results[2.0][1] < results[2.0][0]    # model-free wins on the small region
    assert results[10.0][0] < results[10.0][1]  # model-based wins on the large region


# --- reconstruction and scoring

def test_reconstruct_identity_with_true_fri():
    sc = on_grid_scenario(16)
    from makit.estimate import FriEstimate
    fri = FriEstimate(tx_uv=sc.tx_paths.wave_vectors[:, :2],
                      rx_uv=sc.rx_paths.wave_vectors[:, :2], prm=sc.prm)
    grid = eval_grid()
    assert nmse(channel_mimo(grid, grid, sc),
                reconstruct_mapping(fri, grid, grid, LAM)) < 1e-28


def test_reconstruct_zero_prm_zero_map():
    from makit.estimate import FriEstimate
    fri = FriEstimate(tx_uv=np.array([[0.1, 0.2]]), rx_uv=np.array([[0.3, -0.1]]),
                      prm=np.zeros((1, 1), dtype=complex))
    out = reconstruct_mapping(fri, eval_grid(), eval_grid(), LAM)
    assert np.all(out == 0)


def test_reconstruct_entrywise_formula_oracle():
    rng = np.random.default_rng(24)
    from makit.estimate import FriEstimate
    tx_uv = rng.uniform(-0.7, 0.7, (2, 2))
    rx_uv = rng.uniform(-0.7, 0.7, (2, 2))
    prm = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    fri = FriEstimate(tx_uv=tx_uv, rx_uv=rx_uv, prm=prm)
    tx_grid = np.column_stack([rng.uniform(0, 2, (3, 2)), np.zeros(3)])
    rx_grid = np.column_stack([rng.uniform(0, 2, (4, 2)), np.zeros(4)])
    out = reconstruct_mapping(fri, tx_grid, rx_grid, LAM)
    for q in range(4):
        for p in range(3):
            g = np.exp(2j * np.pi / LAM * tx_uv @ tx_grid[p, :2])
            f = np.exp(2j * np.pi / LAM * rx_uv @ rx_grid[q, :2])
            assert abs(out[q, p] - f.conj() @ prm @ g) < 1e-10


def test_nmse_trivial_values():
    h = np.array([[1.0 + 1j, 2.0], [0.5, -1.0j]])
    assert nmse(h, h) == 0.0
    assert abs(nmse(h, np.zeros_like(h)) - 1.0) < 1e-15
    assert abs(nmse(h, 2 * h) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        nmse(np.zeros((2, 2)), h)


# --- persistence

def test_measurements_json_roundtrip(tmp_path):
    sc = on_grid_scenario(17)
    ms = collect_measurements(sc, region(), region(), "paired", 12, 2.0, 0.05, 25)
    ms.pilots.imag[3] = -0.0  # the codec keeps the sign of a zero
    path = tmp_path / "ms.json"
    save_measurements(ms, path)
    back = load_measurements(path)
    assert back.pilots.tobytes() == ms.pilots.tobytes()
    assert back.tx_positions.tobytes() == ms.tx_positions.tobytes()
    assert back.rx_positions.tobytes() == ms.rx_positions.tobytes()
    assert back.power == ms.power
    assert back.noise_power == ms.noise_power


def draw_map(seed):
    """Distinct Tx and Rx points on a coarse lattice (so coordinates tie) in random order,
    with a height the CSV drops in half the draws, and a map with -0.0, tiny and huge
    entries."""
    rng = np.random.default_rng(seed)
    tx, rx = (rng.permutation(np.unique(rng.integers(-3, 4, (m, 2)), axis=0)) * 0.25
              for m in rng.integers(1, 7, 2))
    if seed % 2:
        tx, rx = (np.column_stack([g, rng.standard_normal(len(g))]) for g in (tx, rx))
    h = rng.standard_normal((len(rx), len(tx), 2)) * 10.0 ** rng.integers(-300, 300, (1, 1, 2))
    h[rng.random(h.shape) < 0.2] = -0.0
    return tx, rx, h[..., 0] + 1j * h[..., 1]


@pytest.mark.parametrize("seed", range(12))
def test_mapping_csv_matches_the_entry_loop_writer_and_round_trips_bitwise(tmp_path, seed):
    tx, rx, h = draw_map(seed)
    export_mapping_csv(tmp_path / "new.csv", tx, rx, h)
    scalar_export_mapping_csv(tmp_path / "old.csv", tx, rx, h)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    tx_back, rx_back, h_back = load_mapping_csv(tmp_path / "new.csv")
    (tx_u, at_tx), (rx_u, at_rx) = (np.unique(g[:, :2], axis=0, return_inverse=True)
                                    for g in (tx, rx))
    assert tx_back.tobytes() == tx_u.tobytes() and rx_back.tobytes() == rx_u.tobytes()
    assert h_back[np.ix_(at_rx.reshape(-1), at_tx.reshape(-1))].tobytes() == h.tobytes()


def test_mapping_csv_refuses_a_map_of_another_shape(tmp_path):
    tx, rx, h = np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((4, 3))
    for bad in (h.T, h[:, :2]):
        with pytest.raises(ValueError, match="Rx and"):
            export_mapping_csv(tmp_path / "map.csv", tx, rx, bad)


def test_mapping_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(26)
    tx = rng.uniform(0, 1, (3, 2))
    rx = rng.uniform(0, 1, (4, 2))
    h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    path = tmp_path / "map.csv"
    export_mapping_csv(path, tx, rx, h)
    with open(path) as fh:
        assert fh.readline().strip() == "tx_x,tx_y,rx_x,rx_y,re,im"
    tx2, rx2, h2 = load_mapping_csv(path)
    lookup = {tuple(np.round(t, 12)): i for i, t in enumerate(tx2)}
    perm_t = [lookup[tuple(np.round(t, 12))] for t in tx]
    lookup_r = {tuple(np.round(r, 12)): i for i, r in enumerate(rx2)}
    perm_r = [lookup_r[tuple(np.round(r, 12))] for r in rx]
    assert np.allclose(h2[np.ix_(perm_r, perm_t)], h)
