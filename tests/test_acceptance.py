"""End-to-end acceptance criteria at desk scale.

Each test exercises one quantitative criterion at its stated tolerance and
prints a PASS line (visible with `pytest -s` or in failure reports).  The
per-module property suites in the other test files complete the final
criterion; a spot-check here re-runs the heaviest invariants.
"""

import itertools

import numpy as np
import pytest

from makit import beamforming as bf
from makit import estimate as est
from makit import optimize as opt
from makit import sensing as sn
from makit.channel import channel_mimo, sample_directions
from makit.experiments import ExperimentConfig, run_experiment, trial_seed
from makit.geometry import Direction, wave_vector

LAM = 1.0


def report(name, detail):
    print(f"[acceptance] {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. tightness of the channel power gain bounds

def test_criterion_1_gain_bound_tightness():
    cfg = ExperimentConfig.from_dict({
        "experiment": "siso-gain-bounds",
        "trials": 100,
        "sweep": {"variable": "n_paths", "values": [2, 3, 4]},
    })
    table = run_experiment(cfg)
    gmax = table.column("max_gain")
    gmin = table.column("min_gain")
    upper = table.column("upper_bound")
    lower = table.column("lower_bound")
    ratio = gmax / upper
    excess = (gmin - lower) / upper
    assert np.all(ratio >= 0.99), f"worst max ratio {ratio.min():.4f}"
    assert np.all(excess <= 0.01), f"worst min excess {excess.max():.4f}"
    report("criterion 1 (gain-bound tightness)",
           f"300 trials, worst max ratio {ratio.min():.4f}, worst min excess {excess.max():.5f}")


# 2. movable-antenna gain over the fixed antenna

def test_criterion_2_ma_vs_fpa_gap():
    cfg = ExperimentConfig.from_dict({"experiment": "siso-ma-vs-fpa", "trials": 200})
    table = run_experiment(cfg)
    gap_db = (10 * np.log10(np.mean(table.column("max_gain")))
              - 10 * np.log10(np.mean(table.column("fpa_gain"))))
    assert gap_db >= 5.0, f"gap {gap_db:.2f} dB"
    report("criterion 2 (MA-vs-FPA gap)", f"gap {gap_db:.2f} dB >= 5 dB over 200 trials")


# 3. the sampled-line optimizer is exactly optimal

def test_criterion_3_graph_optimality():
    rng = np.random.default_rng(1234)
    checked = 0
    while checked < 1000:
        m = int(rng.integers(4, 21))
        n = int(rng.integers(1, 5))
        a_min = int(rng.integers(1, 4))
        if m - (a_min - 1) * (n - 1) < n:
            continue
        values = rng.uniform(0.05, 2.0, m)
        line = opt.SampledLine(length=float(m), amplitudes=values, d_min=float(a_min))
        rep = opt.graph_opt_miso(line, n)
        best = -np.inf
        v2 = values ** 2
        for combo in itertools.combinations(range(m), n):
            if all(combo[i + 1] - combo[i] >= a_min for i in range(n - 1)):
                best = max(best, v2[list(combo)].sum())
        assert abs(rep.best_score - best) < 1e-10, f"mismatch at instance {checked}"
        checked += 1
    report("criterion 3 (graph optimality)", "1000/1000 instances match exhaustive search")


# 4. full-gain null steering versus the zero-forcing fixed array

def test_criterion_4_null_steering():
    cfg = ExperimentConfig.from_dict({"experiment": "beam-null"})
    table = run_experiment(cfg)
    row = dict(zip(table.columns, table.rows[0]))
    assert row["gain_theta0"] >= 7.9
    assert row["max_null_gain"] <= 1e-8
    assert row["fpa_gain_theta0"] <= 0.65 * 8
    report("criterion 4 (null steering)",
           f"gain {row['gain_theta0']:.3f}, nulls <= {row['max_null_gain']:.1e}, "
           f"fixed-array gain {row['fpa_gain_theta0']:.3f} <= 5.2")


# 5. grating-lobe construction hits full gain at every desired angle

def test_criterion_5_grating_lobe_property():
    rng = np.random.default_rng(77)
    for trial in range(100):
        n = int(rng.choice([2, 4, 8]))
        k = int(rng.integers(1, 3))
        deltas = set()
        while len(deltas) < k:
            q = int(rng.integers(1, 9))
            p = int(rng.integers(-q, q + 1))
            if p != 0:
                deltas.add(p / q)
        th0 = np.pi / 2
        thetas = [float(np.arccos(np.clip(d, -1, 1))) for d in deltas]
        aperture = (n - 1) * 64.0 * LAM
        x = opt.grating_lobe_apv(th0, thetas, n, aperture, 0.5, LAM)  # raises if none exists
        a0 = bf.steering_vector(x, th0, LAM)
        for t in thetas:
            val = abs(bf.steering_vector(x, t, LAM).conj() @ a0)
            assert abs(val - n) < 1e-9, f"trial {trial}: |inner|={val}"
    report("criterion 5 (grating lobes)", "100 random rational instances at gain N +/- 1e-9")


# 6. closed-form sensing placement

def test_criterion_6_sensing_closed_form():
    x16 = opt.sensing_1d_optimal(16, 10.0, 0.5)
    assert abs(np.var(x16) - 11.875) < 1e-12
    for n, aperture in ((2, 1.0), (3, 1.5), (4, 2.0), (5, 2.5), (6, 3.0)):
        d_min = 0.5
        step = d_min / 10.0
        grid = np.arange(0.0, aperture + step / 2, step)
        a_min = int(round(d_min / step))
        m_comp = len(grid) - (a_min - 1) * (n - 1)
        combos = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(m_comp), n)),
            dtype=np.int64).reshape(-1, n)
        actual = combos + np.arange(n) * (a_min - 1)
        best = float(np.max(np.var(grid[actual], axis=1)))
        assert np.var(opt.sensing_1d_optimal(n, aperture, d_min)) >= best - 1e-12
    report("criterion 6 (sensing closed form)",
           "var = 11.875 lam^2 at N=16; beats d_min/10 brute force for N <= 6")


# 7. subspace estimation tracks the CRB; optimal placement beats the dense array

def test_criterion_7_music_vs_crb():
    n, aperture, dmin, u = 16, 10.0, 0.5, 0.71
    placements = {
        "optimal": opt.sensing_1d_optimal(n, aperture, dmin),
        "dense": np.arange(n) * dmin,
    }
    mse = {}
    for snr_db in (15.0, 20.0, 25.0):
        for name, x in placements.items():
            sigma2 = 10 ** (-snr_db / 10.0)
            setup = sn.SensingSetup(placement=x, snapshots=1, power=1.0,
                                    noise_power=sigma2, beta=1.0, u=u, wavelength=LAM)
            errs = []
            for t in range(500):
                y = sn.simulate_snapshots(setup, trial_seed(f"c7-{name}-{snr_db}", t))
                errs.append((sn.music_1d(y, x, wavelength=LAM).u - u) ** 2)
            mse[(name, snr_db)] = np.mean(errs)
            crb = sn.crb_1d(setup)
            if name == "optimal":
                ratio_db = 10 * np.log10(mse[(name, snr_db)] / crb)
                assert ratio_db <= 3.0, f"SNR {snr_db}: {ratio_db:.2f} dB above CRB"
    assert mse[("optimal", 20.0)] < mse[("dense", 20.0)]
    report("criterion 7 (MUSIC vs CRB)",
           "500-trial MSE within 3 dB of the CRB at 15/20/25 dB; "
           f"optimal {mse[('optimal', 20.0)]:.2e} < dense {mse[('dense', 20.0)]:.2e} at 20 dB")


# 8. planar placement reaches the aperture CRB bound within 3 dB

def test_criterion_8_2d_crb_bound():
    cfg = ExperimentConfig.from_dict({"experiment": "sensing-2d-crb"})
    table = run_experiment(cfg)
    gap_db = table.column("gap_db")[0]
    assert gap_db <= 3.0, f"gap {gap_db:.2f} dB"
    report("criterion 8 (2D CRB bound)", f"max-CRB within {gap_db:.2f} dB of the bound")


# 9. movable MIMO capacity dominates the fixed planar baselines

def test_criterion_9_mimo_capacity_ordering():
    cfg = ExperimentConfig.from_dict({"experiment": "mimo-capacity", "trials": 100})
    table = run_experiment(cfg)
    ma = table.column("cap_ma")
    dense = table.column("cap_dense")
    sparse = table.column("cap_sparse")
    wins = np.mean((ma >= dense - 1e-9) & (ma >= sparse - 1e-9))
    improvement = np.mean(ma - np.maximum(dense, sparse))
    assert wins >= 0.95, f"wins {wins:.0%}"
    assert improvement > 0.0
    report("criterion 9 (MIMO ordering)",
           f"{wins:.0%} of 100 instances dominate both baselines, "
           f"mean improvement {improvement:.2f} bits/s/Hz")


# 10. channel acquisition accuracy and orderings

def test_criterion_10_estimation_nmse():
    # exact recovery of on-grid noiseless instances by both estimators
    cfg = ExperimentConfig.from_dict({
        "experiment": "estimation-nmse", "trials": 10,
        "params": {"snr_db": np.inf, "on_grid": True},
    })
    table = run_experiment(cfg)
    assert np.all(table.column("nmse_successive") <= 1e-9)
    assert np.all(table.column("nmse_joint") <= 1e-9)

    # joint recovery no worse than successive at high SNR (off-grid draws)
    cfg = ExperimentConfig.from_dict({
        "experiment": "estimation-nmse", "trials": 100,
        "params": {"snr_db": 25.0, "on_grid": False},
    })
    table = run_experiment(cfg)
    succ = float(np.mean(table.column("nmse_successive")))
    joint = float(np.mean(table.column("nmse_joint")))
    assert joint <= succ, f"joint {joint:.4f} > successive {succ:.4f}"

    # model-free wins on a small region, loses on a large one
    means = {}
    for size in (2.0, 10.0):
        cfg = ExperimentConfig.from_dict({
            "experiment": "estimation-region", "trials": 60,
            "params": {"region_size": size},
        })
        table = run_experiment(cfg)
        means[size] = (float(np.mean(table.column("nmse_model_based"))),
                       float(np.mean(table.column("nmse_model_free"))))
    assert means[2.0][1] < means[2.0][0], f"small region: {means[2.0]}"
    assert means[10.0][0] < means[10.0][1], f"large region: {means[10.0]}"
    report("criterion 10 (estimation NMSE)",
           f"on-grid noiseless <= 1e-9; joint {joint:.4f} <= successive {succ:.4f} at 25 dB; "
           f"region ordering {means[2.0]} vs {means[10.0]}")


# 11. property suites (full versions live in the per-module test files)

def test_criterion_11_invariant_spot_checks():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        d = Direction(rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(-np.pi, np.pi))
        assert abs(np.linalg.norm(wave_vector(d)) - 1.0) <= 1e-12
    for _ in range(1_000):
        n = int(rng.integers(2, 9))
        x = np.sort(rng.uniform(0, 10, n))
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w /= np.linalg.norm(w)
        assert bf.beam_gain(x, w, rng.uniform(0, np.pi), LAM) <= n + 1e-9
    report("criterion 11 (invariant suites)",
           "spot checks here; full property suites run in the module test files")
