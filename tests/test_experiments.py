"""Desk-scale runs of every catalog entry plus the figure-level orderings."""

import numpy as np
import pytest

from makit.experiments import CATALOG, ExperimentConfig, run_experiment

TINY = {
    "siso-gain-bounds": {"trials": 2, "params": {"region_side": 2.0, "grid_step": 0.25}},
    "siso-ma-vs-fpa": {"trials": 2, "params": {"n_paths": 5, "grid_step": 0.25}},
    "dof-gain": {"trials": 1, "params": {"n_paths": 2, "region_side": 2.0,
                                         "grid_step": 0.5, "orientation_grid": 4}},
    "beam-null": {},
    "beam-multibeam": {"params": {"aperture": 10.0}},
    "beam-widebeam": {"params": {"subregions": 8, "aperture": 8.0}},
    "miso-graph": {"trials": 2, "params": {"m": 24, "aperture": 4.0, "n": 4}},
    "mimo-capacity": {"trials": 2, "params": {"max_sweeps": 2}},
    "multiuser-rate": {"trials": 1, "params": {"k": 2, "n_r": 4, "region_side": 2.0,
                                               "stat_draws": 3, "max_sweeps": 2}},
    "sensing-1d-mse": {"trials": 5, "params": {"n": 8, "aperture": 5.0}},
    "sensing-2d-crb": {"params": {"n": 9, "side": 2.0}},
    "isac-tradeoff": {"trials": 1, "params": {"n_r": 4, "region_side": 2.0,
                                              "crb_scale_list": [1.0, 4.0], "max_sweeps": 2}},
    "estimation-nmse": {"trials": 2, "params": {"measurements": 64}},
    "estimation-region": {"trials": 2, "params": {"measurements": 30}},
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_entry_runs(name):
    doc = {"experiment": name}
    doc.update(TINY[name])
    table = run_experiment(ExperimentConfig.from_dict(doc))
    assert len(table.rows) > 0
    assert all(np.isfinite(v) for row in table.rows for v in row)
    assert table.metadata["experiment"] == name


def test_dof_gain_orderings():
    # joint reconfiguration dominates each single degree of freedom, which
    # dominate the fixed antenna; directional orientation gain approaches the
    # lobe power gain for a single path
    cfg = ExperimentConfig.from_dict({
        "experiment": "dof-gain", "trials": 4,
        "params": {"n_paths": 1, "region_side": 3.0, "grid_step": 0.25,
                   "orientation_grid": 10},
    })
    table = run_experiment(cfg)
    for row in table.rows:
        r = dict(zip(table.columns, row))
        for pat in ("iso", "dir"):
            assert r[f"{pat}_joint"] >= r[f"{pat}_pos"] - 1e-9
            assert r[f"{pat}_joint"] >= r[f"{pat}_orient"] - 1e-9
            assert r[f"{pat}_pos"] >= r[f"{pat}_fpa"] - 1e-9
        # single path: position moves cannot increase the gain
        assert abs(r["iso_pos"] - r["iso_fpa"]) < 1e-9
    # orientation alignment recovers most of the polarization loss (isotropic)
    # and most of the 6 dB lobe power gain (directional)
    iso_orient = np.mean(table.column("iso_orient"))
    iso_fpa = np.mean(table.column("iso_fpa"))
    dir_orient = np.mean(table.column("dir_orient"))
    assert iso_orient > iso_fpa
    assert dir_orient > 2.0 * iso_orient  # coarse grid: below the exact 10^0.6 factor


def test_multiuser_rate_orderings():
    cfg = ExperimentConfig.from_dict({
        "experiment": "multiuser-rate", "trials": 3,
        "params": {"k": 3, "n_r": 4, "region_side": 3.0, "kappa": 50.0,
                   "stat_draws": 8, "max_sweeps": 4},
    })
    table = run_experiment(cfg)
    inst = table.column("rate_ma_inst")
    stat = table.column("rate_ma_stat")
    dense = table.column("rate_dense")
    sparse = table.column("rate_sparse")
    assert np.all(inst >= np.maximum(dense, sparse) - 1e-9)
    # strong line-of-sight: the statistical placement stays within 10% of the
    # instantaneous optimum on the evaluation draws
    assert np.mean(stat) >= 0.9 * np.mean(inst)


def test_isac_tradeoff_capacity_monotone():
    cfg = ExperimentConfig.from_dict({
        "experiment": "isac-tradeoff", "trials": 1,
        "params": {"n_r": 9, "region_side": 3.0, "crb_scale_list": [1.0, 2.0, 6.0],
                   "max_sweeps": 4},
    })
    table = run_experiment(cfg)
    caps = table.column("capacity")
    scales = table.column("crb_scale")
    assert np.all(np.diff(scales) > 0)
    assert np.all(np.diff(caps) >= -1e-9)
    assert np.all(table.column("crb") <= table.column("threshold") + 1e-12)


def test_sensing_1d_mse_table_orderings():
    cfg = ExperimentConfig.from_dict({
        "experiment": "sensing-1d-mse", "trials": 60, "params": {"snr_db": 20.0},
    })
    table = run_experiment(cfg)
    rows = {int(r[table.columns.index("placement_id")]): r for r in table.rows}
    mse = {k: r[table.columns.index("mse")] for k, r in rows.items()}
    crb = {k: r[table.columns.index("crb")] for k, r in rows.items()}
    assert mse[0] < mse[1]           # optimal placement beats the dense array
    assert crb[0] < crb[2] < crb[1]  # larger aperture, lower bound


def test_wideband_gap_smaller_than_narrowband():
    base = {"n_paths": 8, "region_side": 2.0, "grid_step": 0.2}
    nb = run_experiment(ExperimentConfig.from_dict(
        {"experiment": "siso-ma-vs-fpa", "trials": 6, "params": base}))
    wb = run_experiment(ExperimentConfig.from_dict(
        {"experiment": "siso-ma-vs-fpa", "trials": 6,
         "params": {**base, "bandwidth": 20e6}}))

    def gap(t):
        return (10 * np.log10(np.mean(t.column("max_gain")))
                - 10 * np.log10(np.mean(t.column("fpa_gain"))))

    assert gap(wb) < gap(nb)  # frequency selectivity shrinks the movable-antenna gain


def test_estimation_nmse_nonincreasing_in_snr():
    from makit.experiments import trial_seed

    # matched seed sets: the same instances and noise draws at every SNR point
    seeds = [trial_seed("nmse-monotone", i) for i in range(100)]
    means = []
    for snr in (10.0, 20.0, 30.0):
        cfg = ExperimentConfig.from_dict({
            "experiment": "estimation-nmse", "trials": 100, "seeds": seeds,
            "params": {"snr_db": snr, "on_grid": True, "measurements": 64},
        })
        table = run_experiment(cfg)
        means.append(np.mean(0.5 * (table.column("nmse_successive")
                                    + table.column("nmse_joint"))))
    for lo, hi in zip(means[1:], means[:-1]):
        assert lo <= hi * 1.05  # nonincreasing up to 5% noise slack


@pytest.mark.parametrize("n", [6, 7, 9])
def test_beam_null_without_svo_geometry_keeps_the_zero_forcing_array(n):
    # three nulls exceed the prime factors of 6, 7 and 9, so no null-steering geometry
    # exists and the movable array takes the fixed positions and their ZF weight
    table = run_experiment(ExperimentConfig.from_dict({"experiment": "beam-null",
                                                       "params": {"n": n}}))
    row = dict(zip(table.columns, table.rows[0]))
    assert row["max_null_gain"] <= 1e-8
    assert row["gain_theta0"] >= row["fpa_gain_theta0"]


def test_workers_env_variable(monkeypatch):
    cfg = ExperimentConfig.from_dict(
        {"experiment": "miso-graph", "trials": 2,
         "params": {"m": 24, "n": 4, "n_paths": 4, "aperture": 4.0}})
    serial = run_experiment(cfg)
    monkeypatch.setenv("MAKIT_WORKERS", "2")
    pooled = run_experiment(cfg)
    assert serial.rows == pooled.rows


@pytest.mark.parametrize("experiment", ["beam-multibeam", "beam-widebeam"])
def test_beam_workers_match_serial_rows_with_a_warm_parent(monkeypatch, experiment):
    # forked workers inherit the parent's cache of seed-free beam starts, warmed by a trial
    run_experiment(ExperimentConfig.from_dict({"experiment": experiment, "trials": 1}))
    cfg = ExperimentConfig.from_dict({"experiment": experiment, "trials": 3})
    serial = run_experiment(cfg)
    monkeypatch.setenv("MAKIT_WORKERS", "2")
    pooled = run_experiment(cfg)
    assert serial.rows == pooled.rows
