import ast
import concurrent.futures
import dataclasses
import json
import logging
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from makit import experiments
from makit.channel import gen_scenario, scenario_to_dict
from makit.cli import main
from makit.errors import ConfigError
from makit.experiments import (CATALOG, ExperimentConfig, ResultTable, config_hash, emit,
                               load_table_csv, load_table_json, run_experiment, trial_seed)


def small_config(**over):
    doc = {"experiment": "miso-graph", "trials": 3,
           "params": {"m": 24, "n": 4, "n_paths": 4, "aperture": 4.0}}
    doc.update(over)
    return ExperimentConfig.from_dict(doc)


def test_run_is_deterministic():
    cfg = small_config()
    t1 = run_experiment(cfg)
    t2 = run_experiment(cfg)
    assert t1.columns == t2.columns
    assert t1.rows == t2.rows
    assert t1.metadata["config_hash"] == t2.metadata["config_hash"]


def test_parallel_matches_serial():
    cfg = small_config(trials=4)
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    assert serial.rows == parallel.rows


def test_config_hash_whitespace_insensitive():
    a = json.loads('{"experiment": "miso-graph", "trials": 3}')
    b = json.loads('{ "trials" : 3,\n  "experiment" : "miso-graph" }')
    assert config_hash(ExperimentConfig.from_dict(a)) == config_hash(ExperimentConfig.from_dict(b))


def test_config_hash_changes_with_params():
    h1 = config_hash(small_config())
    h2 = config_hash(small_config(params={"m": 25, "n": 4, "n_paths": 4, "aperture": 4.0}))
    h3 = config_hash(small_config(trials=4))
    assert h1 != h2 and h1 != h3
    # the output path is not semantically meaningful
    assert config_hash(small_config(out="elsewhere.csv")) == h1


def test_trial_seed_deterministic():
    assert trial_seed("abc", 0) == trial_seed("abc", 0)
    assert trial_seed("abc", 0) != trial_seed("abc", 1)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "nope"})


def test_unknown_param_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "miso-graph", "params": {"zzz": 1}})


def test_unsorted_sweep_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "miso-graph",
                                    "sweep": {"variable": "m", "values": [48, 24]}})


def test_sweep_adds_column():
    cfg = ExperimentConfig.from_dict({"experiment": "siso-gain-bounds", "trials": 2,
                                      "params": {"region_side": 2.0, "grid_step": 0.25},
                                      "sweep": {"variable": "n_paths", "values": [2, 3]}})
    table = run_experiment(cfg)
    assert table.columns[0] == "n_paths"
    assert sorted(set(table.column("n_paths"))) == [2.0, 3.0]
    assert len(table.rows) == 4


def test_explicit_seed_list_used():
    cfg = small_config(seeds=[11, 22, 33])
    table = run_experiment(cfg)
    assert table.metadata["seeds"] == [11, 22, 33]


def test_emit_csv_roundtrip(tmp_path):
    table = ResultTable(columns=["a", "b"], rows=[[1.0, 2.5], [np.pi, 1e-17]])
    path = tmp_path / "t.csv"
    emit(table, path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "a,b"
    back = load_table_csv(path)
    assert back.columns == table.columns
    assert back.rows == table.rows  # repr round-trips doubles exactly


def test_emit_header_only_for_empty_table(tmp_path):
    table = ResultTable(columns=["x", "y"], rows=[])
    path = tmp_path / "empty.csv"
    emit(table, path)
    assert open(path).read() == "x,y\n"


def test_emit_json_roundtrip(tmp_path):
    table = ResultTable(columns=["v"], rows=[[0.125]], metadata={"k": "v"})
    path = tmp_path / "t.json"
    emit(table, path)
    back = load_table_json(path)
    assert back.columns == table.columns
    assert back.rows == table.rows
    assert back.metadata == table.metadata


def test_metadata_documents_catalog_notes():
    cfg = small_config()
    table = run_experiment(cfg)
    assert table.metadata["experiment"] == "miso-graph"
    assert "doc" in table.metadata
    assert table.metadata["trials"] == 3


def test_every_catalog_entry_has_docs():
    for name, entry in CATALOG.items():
        assert entry.doc, name
        assert entry.defaults, name


# --- command line

def write(tmp_path, name, doc):
    p = tmp_path / name
    with open(p, "w") as fh:
        json.dump(doc, fh)
    return str(p)


def test_cli_experiment_runs(tmp_path):
    cfg = write(tmp_path, "exp.json",
                {"experiment": "miso-graph", "trials": 2,
                 "params": {"m": 24, "n": 4, "n_paths": 4, "aperture": 4.0}})
    out = tmp_path / "result.csv"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
    table = load_table_csv(out)
    assert len(table.rows) == 2


def test_cli_malformed_json_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["experiment", "--config", str(p)]) == 2


@pytest.mark.parametrize("command", ["simulate", "optimize", "sense", "estimate", "experiment",
                                     "validate-config"])
def test_cli_config_that_is_not_an_object_exit_2(tmp_path, capsys, command):
    cfg = write(tmp_path, "list.json", [{"experiment": "miso-graph"}])
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == "config error: config must be a JSON object\n"


def test_cli_missing_config_exit_2(tmp_path):
    assert main(["experiment", "--config", str(tmp_path / "absent.json")]) == 2


def test_cli_unknown_experiment_exit_2(tmp_path):
    cfg = write(tmp_path, "bad.json", {"experiment": "not-a-thing"})
    assert main(["experiment", "--config", cfg]) == 2


def simulate_doc(step, scenario=None):
    return {"scenario": scenario or {"generate": {"seed": 3, "n_paths": 2}},
            "tx_grid": {"square": {"side": 1.0, "step": step}},
            "rx_grid": {"segment": {"length": 1.0, "step": 0.5}}}


def scenario_doc(**over):
    doc = scenario_to_dict(gen_scenario(3, n_paths=2))
    doc.update(over)
    return doc


def estimate_doc(**over):
    doc = {"scenario": {"generate": {"seed": 5, "n_paths": 2, "kappa": 1.0}},
           "method": "successive", "region_side": 2.0, "measurements": 64,
           "grid": 16, "snr_db": 30.0}
    doc.update(over)
    return doc


SENSE = {"n": 8, "u": 0.5, "snr_db": 20.0, "aperture": 4.0, "d_min": 0.5}
NULL = {"task": "null", "n": 8, "theta0_deg": 90.0, "null_deg": [78.0], "aperture": 20.0,
        "d_min": 0.5}
WIDEBEAM = {"task": "widebeam", "n": 8, "theta_min_deg": 30.0, "theta_max_deg": 120.0,
            "aperture": 10.0, "d_min": 0.5}

# Inputs that once ended in a traceback, in "infeasible" or in a meaningless
# result; each breaks a rule of the one field-rule table.
REFUSED_FIELDS = [
    ("optimize", {"task": "multibeam", "n": 8, "theta_deg": [], "aperture": 10.0,
                  "d_min": 0.5}, "theta_deg"),
    ("optimize", {**WIDEBEAM, "wavelength": -1}, "wavelength"),
    ("experiment", {"experiment": "miso-graph", "params": {"m": 0}}, "'m'"),
    ("experiment", {"experiment": "sensing-1d-mse", "params": {"snapshots": 0}}, "snapshots"),
    ("experiment", {"experiment": "sensing-1d-mse", "params": {"n": True}}, "'n'"),
    ("experiment", {"experiment": "beam-null", "params": {"aperture": -3}}, "aperture"),
    ("experiment", {"experiment": "mimo-capacity", "params": {"n_t": 0}}, "n_t"),
    ("experiment", {"experiment": "multiuser-rate", "params": {"k": 0}}, "'k'"),
    ("experiment", {"experiment": "miso-graph", "seeds": []}, "seeds"),
    ("experiment", {"experiment": "miso-graph", "seeds": [-1]}, "seeds"),
    ("experiment", {"experiment": "miso-graph", "seeds": [1.7]}, "seeds"),
    ("experiment", {"experiment": "sensing-2d-crb", "params": {"side": -3}}, "side"),
    ("optimize", {"task": "sensing-1d", "n": 4, "aperture": 10.0, "d_min": -0.5}, "d_min"),
    ("sense", {**SENSE, "u": 3}, "'u'"),
    ("experiment", {"experiment": "sensing-1d-mse", "params": {"u": 3}}, "'u'"),
    ("experiment", {"experiment": "sensing-1d-mse", "params": {"n": 2.5}}, "'n'"),
    ("experiment", {"experiment": "isac-tradeoff", "params": {"crb_scale_list": []}},
     "crb_scale_list"),
    ("experiment", {"experiment": "isac-tradeoff", "params": {"crb_scale_list": [-1.0]}},
     "crb_scale_list"),
    ("experiment", {"experiment": "mimo-capacity", "params": {"snr_db": math.nan}}, "snr_db"),
    ("estimate", estimate_doc(snr_db=math.nan), "snr_db"),
    ("estimate", estimate_doc(snr_db=-math.inf), "snr_db"),
    ("estimate", estimate_doc(power=-1.0), "power"),
    ("estimate", estimate_doc(power=math.inf), "power"),
    ("sense", {**SENSE, "snr_db": math.nan}, "snr_db"),
    ("experiment", {"experiment": "mimo-capacity", "params": {"n_t": 2}}, "'n_t'"),
    ("experiment", {"experiment": "mimo-capacity", "params": {"n_r": 8}}, "'n_r'"),
    ("experiment", {"experiment": "multiuser-rate", "params": {"n_r": 5}}, "'n_r'"),
    ("experiment", {"experiment": "multiuser-rate",
                    "sweep": {"variable": "n_r", "values": [4, 6]}}, "'n_r'"),
    ("experiment", {"experiment": "isac-tradeoff", "params": {"n_t": 2}}, "'n_t'"),
    ("optimize", {"task": "sensing-2d", "n": 4, "side": 2.0, "d_min": 0.5, "metric": "median"},
     "metric"),
    ("optimize", {"task": "multibeam", "n": 4, "theta_deg": [30.0, 120.0], "aperture": 4.0,
                  "d_min": 0.5, "analog": 1}, "analog"),
    ("experiment", {"experiment": "mimo-capacity", "params": {"kappa": -2}}, "kappa"),
    ("experiment", {"experiment": "dof-gain", "params": {"gain_dbi": 2.0}}, "gain_dbi"),
    ("experiment", {"experiment": "estimation-region", "params": {"diffuse_power": 1.5}},
     "diffuse_power"),
    ("experiment", {"experiment": "sensing-2d-crb", "params": {"beta": 0.0}}, "beta"),
    ("experiment", {"experiment": "siso-gain-bounds", "params": {"angle_law": "cone"}},
     "angle_law"),
    ("experiment", {"experiment": "mimo-capacity", "params": {"sparse_spacing": -1.0}},
     "sparse_spacing"),
    ("experiment", {"experiment": "siso-gain-bounds", "params": {"bandwidth": -1.0}},
     "bandwidth"),
    ("experiment", {"experiment": "siso-gain-bounds", "params": {"min_sep_bins": -3}},
     "min_sep_bins"),
    ("experiment", {"experiment": "beam-multibeam", "params": {"analog": "false"}}, "analog"),
    ("experiment", {"experiment": "estimation-nmse", "params": {"on_grid": "no"}}, "on_grid"),
    ("optimize", {"task": "miso-graph", "n": 4, "m": 24, "aperture": 4.0, "d_min": 0.5,
                  "scenario": {"generate": {"seed": 1, "n_paths": 3, "kappa": math.nan}}},
     "kappa"),
    ("estimate", estimate_doc(scenario={"generate": {"seed": 5, "n_paths": 2, "kappa": math.nan}}),
     "kappa"),
    ("experiment", {"experiment": "beam-widebeam",
                    "params": {"theta_min_deg": 120.0, "theta_max_deg": 30.0}},
     "theta_min_deg <= theta_max_deg"),
    ("optimize", {**WIDEBEAM, "theta_min_deg": 150.0}, "theta_min_deg <= theta_max_deg"),
    ("experiment", {"experiment": "multiuser-rate", "params": {"k": 10}}, "k <= n_r"),
    ("experiment", {"experiment": "multiuser-rate", "sweep": {"variable": "k", "values": [4, 16]}},
     "k <= n_r"),
    ("experiment", {"experiment": "sensing-1d-mse", "params": {"n": 1}}, "'n'"),
    ("sense", {**SENSE, "n": 1}, "'n'"),
    ("experiment", {"experiment": "sensing-2d-crb", "params": {"n": 2}}, "'n'"),
    ("experiment", {"experiment": "sensing-2d-crb", "params": {"n": 1}}, "'n'"),
    ("experiment", {"experiment": "isac-tradeoff", "params": {"n_r": 2}}, "n_r"),
    ("optimize", {"task": "sensing-2d", "n": 2, "side": 2.0, "d_min": 0.5}, "'n'"),
    ("optimize", {**NULL, "n": 1}, "'n'"),
    ("estimate", estimate_doc(measurements=3), "measurements"),
    ("estimate", estimate_doc(method="joint", grid=65), "cap"),
    ("estimate", estimate_doc(method="joint", measurements=3), "measurements"),
    ("experiment", {"experiment": "estimation-nmse", "params": {"grid": 65}}, "'grid'"),
    ("experiment", {"experiment": "estimation-nmse",
                    "sweep": {"variable": "grid", "values": [16, 65]}}, "'grid'"),
    ("experiment", {"experiment": "sensing-1d-mse", "params": {"d_min": 0}}, "d_min"),
    ("sense", {**SENSE, "d_min": 0.0, "placement": "dense"}, "d_min"),
    ("sense", {**SENSE, "d_min": 0.0}, "d_min"),
    ("sense", {**SENSE, "kappa": -1.0}, "kappa"),
    ("optimize", {"task": "sensing-1d", "n": 4, "aperture": 4.0, "d_min": 0}, "d_min"),
    ("optimize", {"task": "sensing-1d", "n": 1, "aperture": 4.0, "d_min": 0.5}, "'n'"),
    ("estimate", estimate_doc(snr_db=1e308), "snr_db"),
    ("estimate", estimate_doc(snr_db=-1e308), "snr_db"),
    ("sense", {**SENSE, "snr_db": 4000}, "snr_db"),
    ("experiment", {"experiment": "mimo-capacity", "params": {"snr_db": -4000}}, "snr_db"),
    ("experiment", {"experiment": "dof-gain", "params": {"gain_dbi": 1e308}}, "gain_dbi"),
    ("experiment", {"experiment": "mimo-capacity", "params": {"snr_db": math.inf}}, "snr_db"),
    ("experiment", {"experiment": "multiuser-rate", "params": {"snr_db": math.inf}}, "snr_db"),
    ("experiment", {"experiment": "sensing-2d-crb", "params": {"snr_db": math.inf}}, "snr_db"),
    ("experiment", {"experiment": "isac-tradeoff", "params": {"snr_db": math.inf}}, "snr_db"),
    ("optimize", {"task": "sensing-2d", "n": 3, "side": 2.0, "d_min": 0.5, "snr_db": math.inf},
     "snr_db"),
]
REFUSED_IDS = ["multibeam-theta_deg-empty", "widebeam-wavelength-negative", "miso-graph-m-0",
               "sensing-1d-mse-snapshots-0", "sensing-1d-mse-n-bool", "beam-null-aperture-negative",
               "mimo-capacity-n_t-0", "multiuser-rate-k-0", "seeds-empty", "seeds-negative",
               "seeds-fractional", "sensing-2d-crb-side-negative", "sensing-1d-d_min-negative",
               "sense-u-3", "sensing-1d-mse-u-3", "sensing-1d-mse-n-fractional",
               "isac-crb_scale_list-empty", "isac-crb_scale_list-negative",
               "mimo-capacity-snr_db-nan", "estimate-snr_db-nan", "estimate-snr_db-minus-inf",
               "estimate-power-negative", "estimate-power-inf", "sense-snr_db-nan",
               "mimo-capacity-n_t-not-square", "mimo-capacity-n_r-not-square",
               "multiuser-rate-n_r-not-square", "multiuser-rate-sweep-n_r-not-square",
               "isac-n_t-not-square", "sensing-2d-metric-median", "multibeam-analog-1",
               "mimo-capacity-kappa-negative", "dof-gain-gain_dbi-2", "diffuse_power-1.5",
               "sensing-2d-crb-beta-0", "angle_law-cone", "sparse_spacing-negative",
               "bandwidth-negative", "min_sep_bins-negative", "beam-multibeam-analog-string",
               "estimation-nmse-on_grid-string", "miso-graph-generate-kappa-nan",
               "estimate-generate-kappa-nan", "beam-widebeam-angles-reversed",
               "widebeam-angles-reversed", "multiuser-rate-k-above-n_r",
               "multiuser-rate-sweep-k-above-n_r", "sensing-1d-mse-n-1", "sense-n-1",
               "sensing-2d-crb-n-2", "sensing-2d-crb-n-1", "isac-n_r-2", "sensing-2d-n-2",
               "null-n-1", "estimate-too-few-measurements", "estimate-joint-atom-cap",
               "estimate-joint-too-few-measurements", "estimation-nmse-grid-65",
               "estimation-nmse-sweep-grid-65", "sensing-1d-mse-d_min-0", "sense-dense-d_min-0",
               "sense-optimal-d_min-0", "sense-unread-kappa-negative", "sensing-1d-d_min-0",
               "sensing-1d-n-1", "estimate-snr_db-overflow", "estimate-snr_db-underflow",
               "sense-snr_db-overflow", "mimo-capacity-snr_db-underflow",
               "dof-gain-gain_dbi-overflow", "mimo-capacity-snr_db-inf",
               "multiuser-rate-snr_db-inf", "sensing-2d-crb-snr_db-inf", "isac-snr_db-inf",
               "sensing-2d-unread-snr_db-inf"]


@pytest.mark.parametrize("command, doc, field", [
    ("experiment", {"experiment": "dof-gain", "params": {"grid_step": 0}}, "grid_step"),
    ("experiment", {"experiment": "siso-gain-bounds", "params": {"wavelength": -1}},
     "wavelength"),
    ("experiment", {"experiment": "dof-gain", "params": {"orientation_grid": 0}},
     "orientation_grid"),
    ("experiment", {"experiment": "miso-graph", "trials": "abc"}, "trials"),
    ("experiment", {"experiment": "beam-null", "params": {"n": 1}}, "'n'"),
    ("experiment", {"experiment": "beam-multibeam", "params": {"n": 0}}, "'n'"),
    ("experiment", {"experiment": "beam-multibeam", "params": {"theta_deg": []}}, "theta_deg"),
    ("experiment", {"experiment": "beam-widebeam", "params": {"subregions": 0}}, "subregions"),
    ("simulate", simulate_doc(0), "step"),
    ("simulate", simulate_doc(-0.5), "step"),
    ("experiment", {"experiment": "mimo-capacity", "params": {"n_paths": 0}}, "n_paths"),
    ("experiment", {"experiment": "mimo-capacity", "params": {"n_paths": "four"}}, "n_paths"),
    ("experiment", {"experiment": "estimation-nmse", "params": {"eval_step": 0}}, "eval_step"),
    ("simulate", simulate_doc(0.5, {"generate": {"n_paths": 0}}), "n_paths"),
    ("simulate", simulate_doc(0.5, scenario_doc(wavelength=-1.0)), "wavelength"),
    ("simulate", simulate_doc(0.5, scenario_doc(prm=[[[1.0, 0.0]]])), "prm shape"),
    ("estimate", estimate_doc(measurements=0), "measurements"),
    ("estimate", estimate_doc(grid=0), "grid"),
    ("estimate", estimate_doc(method="joint", paths_to_recover=0), "paths_to_recover"),
    ("estimate", estimate_doc(wavelength=2.0), "wavelength"),
    ("validate-config", simulate_doc(0.5, {"generate": {"n_paths": 0}}), "n_paths"),
    ("estimate", estimate_doc(measurements="many"), "measurements"),
    ("optimize", {"task": "null", "n": "eight", "theta0_deg": 90.0, "null_deg": [78.0],
                  "aperture": 20.0, "d_min": 0.5}, "'n'"),
    ("sense", {"n": 8, "aperture": 4.0, "d_min": 0.5, "u": 0.5, "snr_db": 20.0,
               "trials": 2.5}, "trials"),
    ("experiment", {"experiment": "estimation-region", "params": {"grid": 0}}, "grid"),
    ("experiment", {"experiment": "estimation-nmse", "params": {"measurements": 0}},
     "measurements"),
] + REFUSED_FIELDS, ids=[
        "grid_step-0", "wavelength-negative", "orientation_grid-0", "trials-not-integer",
        "beam-null-n-1", "beam-multibeam-n-0", "theta_deg-empty", "subregions-0",
        "simulate-grid-step-0", "simulate-grid-step-negative", "n_paths-0", "n_paths-string",
        "eval_step-0", "simulate-scenario-n_paths-0", "scenario-wavelength-negative",
        "scenario-prm-shape", "estimate-measurements-0", "estimate-grid-0",
        "estimate-paths-0", "estimate-wavelength-mismatch", "validate-scenario-n_paths-0",
        "estimate-measurements-string", "optimize-n-string", "sense-trials-fractional",
        "estimation-region-grid-0", "estimation-nmse-measurements-0"] + REFUSED_IDS)
def test_cli_field_parameter_out_of_range_exit_2(tmp_path, capsys, command, doc, field):
    cfg = write(tmp_path, "bad.json", doc)
    assert main([command, "--config", cfg]) == 2
    assert field in capsys.readouterr().err


NMSE = "estimation-nmse"


@pytest.mark.parametrize("command", ["experiment", "validate-config"])
@pytest.mark.parametrize("doc", [
    {"experiment": NMSE, "params": {"measurements": 2}},
    {"experiment": NMSE, "params": {"measurements": 1, "n_paths": 1}},
    {"experiment": NMSE, "params": {"measurements": 8, "n_paths": 3}},
    {"experiment": NMSE, "sweep": {"variable": "measurements", "values": [2, 128]}},
    {"experiment": NMSE, "sweep": {"variable": "n_paths", "values": [1, 2, 12]}},
], ids=["measurements-2", "successive-short", "joint-short", "sweep-measurements",
        "sweep-n_paths"])
def test_cli_estimation_nmse_too_few_measurements_exit_2(tmp_path, capsys, command, doc):
    cfg = write(tmp_path, "bad.json", doc)
    assert main([command, "--config", cfg]) == 2
    assert "measurements // 2 >= n_paths" in capsys.readouterr().err


def test_square_count_rule_holds_only_for_planar_baselines():
    for exp, params in (("mimo-capacity", {"n_t": 9, "n_r": 1}), ("multiuser-rate", {"n_r": 16}),
                        ("isac-tradeoff", {"n_t": 1, "n_r": 5}), ("multiuser-rate", {"k": 3})):
        ExperimentConfig.from_dict({"experiment": exp, "params": params})
    n_t = experiments.check_field("n_t", 9.0, "mimo-capacity")
    assert n_t == 9 and type(n_t) is int
    with pytest.raises(ConfigError, match="perfect square"):
        experiments.check_field("n_r", 2.5, "mimo-capacity")


def test_catalog_defaults_and_rule_boundaries_are_accepted():
    for name, entry in CATALOG.items():
        ExperimentConfig.from_dict({"experiment": name, "params": dict(entry.defaults)})
    for name, value in (("kappa", math.inf), ("diffuse_power", 1.0), ("diffuse_power", 0),
                        ("bandwidth", 0.0), ("min_sep_cells", 0), ("gain_dbi", 3.02),
                        ("snr_db", math.inf), ("snr_db", 3000.0), ("snr_db", -3000),
                        ("on_grid", False), ("joint", True), ("angle_law", "sphere"),
                        ("metric", "sum")):
        assert experiments.check_field(name, value) == value
    for name, value in (("analog", 1), ("joint", 0.0), ("on_grid", None), ("kappa", math.nan),
                        ("gain_dbi", 10 * math.log10(2)), ("subcarriers", 0),
                        ("max_delay", math.inf), ("beta", -1.0), ("angle_law", "Sphere"),
                        ("metric", ["max"]), ("snr_db", 10 ** 400), ("snr_db", -math.inf),
                        ("gain_dbi", math.inf)):
        with pytest.raises(ConfigError, match=name):
            experiments.check_field(name, value)


def test_estimation_nmse_measurement_rule_boundary_accepted():
    for params in ({"measurements": 9, "n_paths": 3}, {"measurements": 2, "n_paths": 1},
                   {"grid": 64}, {"grid": 64.0}):
        ExperimentConfig.from_dict({"experiment": NMSE, "params": params})
    for grid in (65, 2 ** 70, 1e300, math.inf):  # the atom cap is estimation-nmse's alone
        with pytest.raises(ConfigError, match="'grid'"):
            ExperimentConfig.from_dict({"experiment": NMSE, "params": {"grid": grid}})
    ExperimentConfig.from_dict({"experiment": "estimation-region", "params": {"grid": 65}})
    ExperimentConfig.from_dict({"experiment": NMSE, "params": {"measurements": 16},
                                "sweep": {"variable": "n_paths", "values": [1, 4]}})


def test_angle_order_user_count_and_array_size_boundaries_are_accepted():
    for exp, params in (("beam-widebeam", {"theta_min_deg": 60.0, "theta_max_deg": 60.0}),
                        ("multiuser-rate", {"k": 9, "n_r": 9}), ("sensing-1d-mse", {"n": 2}),
                        ("sensing-2d-crb", {"n": 3}), ("isac-tradeoff", {"n_r": 3})):
        ExperimentConfig.from_dict({"experiment": exp, "params": params})
    ExperimentConfig.from_dict({"experiment": "multiuser-rate", "params": {"n_r": 16},
                                "sweep": {"variable": "k", "values": [1, 16]}})


@pytest.mark.parametrize("command, doc", [
    ("optimize", {**WIDEBEAM, "n": 4, "theta_min_deg": 60.0, "theta_max_deg": 60.0}),
    ("sense", {**SENSE, "n": 2, "trials": 2}),
    ("optimize", {"task": "sensing-2d", "n": 3, "side": 2.0, "d_min": 0.5}),
], ids=["widebeam-equal-angles", "sense-n-2", "sensing-2d-n-3"])
def test_cli_angle_order_and_array_size_boundaries_run(tmp_path, command, doc):
    cfg = write(tmp_path, "ok.json", doc)
    assert main(["validate-config", "--config", cfg]) == 0
    assert main([command, "--config", cfg]) == 0


@pytest.mark.parametrize("command, doc, field", [
    ("sense", {**SENSE, "n": "eight"}, "'n'"),
    ("sense", {**SENSE, "trials": 0}, "trials"),
    ("sense", {**SENSE, "placement": "sparse"}, "placement"),
    ("optimize", {"task": "null", "n": "eight"}, "theta0_deg"),
    ("optimize", {**NULL, "n": "eight"}, "'n'"),
    ("optimize", {**WIDEBEAM, "subregions": 0}, "subregions"),
    ("optimize", {"task": "multibeam", "n": 8, "theta_deg": [30.0, 120.0]}, "aperture"),
    ("optimize", {"task": "miso-graph", "n": 4, "m": 0, "aperture": 4.0, "d_min": 0.5,
                  "scenario": {"generate": {"seed": 1, "n_paths": 3}}}, "'m'"),
    ("simulate", simulate_doc(0), "step"),
    ("simulate", {**simulate_doc(0.5), "rx_grid": {"line": {}}}, "segment"),
    ("estimate", estimate_doc(measurements="many"), "measurements"),
    ("estimate", estimate_doc(method="lasso"), "method"),
    ("estimate", estimate_doc(region_side=0.0), "region"),
] + REFUSED_FIELDS, ids=[
        "sense-n-string", "sense-trials-0", "sense-placement", "null-fields-missing",
        "null-n-string", "widebeam-subregions-0", "multibeam-aperture-missing", "miso-m-0",
        "simulate-grid-step-0", "simulate-grid-shape", "estimate-measurements-string",
        "estimate-method", "estimate-region-side-0"] + REFUSED_IDS)
def test_cli_validate_config_reads_like_the_subcommand(tmp_path, capsys, command, doc, field):
    cfg = write(tmp_path, "bad.json", doc)
    assert main(["validate-config", "--config", cfg]) == 2
    assert field in capsys.readouterr().err
    assert main([command, "--config", cfg]) == 2
    assert field in capsys.readouterr().err


def test_cli_isac_takes_a_bare_crb_scale_as_a_one_element_list(tmp_path, capsys):
    params = {"n_r": 4, "region_side": 2.0, "max_sweeps": 1}
    docs = [{"experiment": "isac-tradeoff", "trials": 1, "seeds": [3],
             "params": {**params, "crb_scale_list": scale}} for scale in (2.0, [2.0])]
    cfg = write(tmp_path, "bare.json", docs[0])
    assert main(["validate-config", "--config", cfg]) == 0
    assert main(["experiment", "--config", cfg]) == 0
    assert "isac-tradeoff: 1 rows" in capsys.readouterr().out
    bare, listed = (run_experiment(ExperimentConfig.from_dict(d)) for d in docs)
    assert bare.rows == listed.rows


@pytest.mark.parametrize("command, doc", [
    ("estimate", estimate_doc(snr_db=math.inf)),
    ("sense", {**SENSE, "snr_db": math.inf, "trials": 2}),
    ("experiment", {"experiment": "estimation-nmse", "trials": 1,
                    "params": {"snr_db": math.inf, "n_paths": 1, "measurements": 16}}),
], ids=["estimate", "sense", "estimation-nmse"])
def test_noiseless_snr_db_is_accepted(tmp_path, command, doc):
    cfg = write(tmp_path, "noiseless.json", doc)
    assert main(["validate-config", "--config", cfg]) == 0
    assert main([command, "--config", cfg]) == 0


def fresh(*args):
    """A fresh serial interpreter that imports makit from this checkout, run with args."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != experiments.WORKERS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


def run_fresh(script):
    """stdout of script run in a fresh serial interpreter that imports makit from this checkout."""
    run = fresh("-c", script)
    assert run.returncode == 0, run.stderr
    return run.stdout


MISO_GRAPH_TIGHT = {"m": 8, "d_min": 2.0}  # 8 antennas 2 samples apart need 15 samples


@pytest.mark.parametrize("command, doc, code", [
    ("experiment", {"experiment": "siso-gain-bounds", "params": {"min_sep_bins": 40,
                                                                 "n_paths": 6}}, 3),
    ("experiment", {"experiment": NMSE, "params": {"min_sep_cells": 12, "n_paths": 3}}, 3),
    ("experiment", {"experiment": "miso-graph", "params": MISO_GRAPH_TIGHT}, 3),
    ("optimize", {"task": "miso-graph", "n": 8, "aperture": 8.0, **MISO_GRAPH_TIGHT,
                  "scenario": {"generate": {"seed": 1, "n_paths": 7}}}, 3),
    ("simulate", simulate_doc(0.5, {"generate": {"seed": 3, "n_paths": 2,
                                                 "min_component_sep": 3}}), 3),
    ("experiment", {"experiment": "beam-widebeam",
                    "params": {"theta_min_deg": 120.0, "theta_max_deg": 30.0}}, 2),
    ("optimize", {**WIDEBEAM, "theta_min_deg": 150.0}, 2),
    ("experiment", {"experiment": "multiuser-rate", "params": {"k": 10}}, 2),
    ("experiment", {"experiment": "sensing-1d-mse", "params": {"n": 1}}, 2),
    ("sense", {**SENSE, "n": 1}, 2),
    ("experiment", {"experiment": "sensing-2d-crb", "params": {"n": 2}}, 2),
    ("experiment", {"experiment": NMSE, "params": {"snr_db": -30.0}}, 0),
], ids=["siso-gain-bounds-min_sep_bins-40", "estimation-nmse-min_sep_cells-12",
        "miso-graph-experiment-too-tight", "miso-graph-task-too-tight",
        "simulate-min_component_sep-3", "beam-widebeam-angles-reversed",
        "widebeam-angles-reversed", "multiuser-rate-k-10", "sensing-1d-mse-n-1", "sense-n-1",
        "sensing-2d-crb-n-2", "estimation-nmse-below-noise-floor"])
def test_cli_exit_code_without_traceback(tmp_path, command, doc, code):
    """Infeasible problems exit 3 and malformed configs 2, each with a one-line message."""
    run = fresh("-m", "makit.cli", command, "--config", write(tmp_path, "cfg.json", doc))
    assert "Traceback" not in run.stderr
    assert run.returncode == code, run.stderr


def test_estimation_runs_import_no_scipy(tmp_path):
    """The successive recovery pairs its paths without scipy, so neither a
    `makit estimate` run nor an estimation catalog run loads it."""
    root = pathlib.Path(__file__).resolve().parent.parent
    example = str(root / "docs" / "examples" / "estimate-successive.json")
    catalog = write(tmp_path, "nmse.json", {"experiment": "estimation-nmse", "trials": 1})
    script = ("import sys\n"
              "from makit.cli import main\n"
              f"assert main(['estimate', '--config', {example!r}]) == 0\n"
              f"assert main(['experiment', '--config', {catalog!r}]) == 0\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert run_fresh(script).splitlines()[-1] == "[]"


def test_serial_run_does_not_load_the_process_pool(tmp_path):
    """The process pool (and multiprocessing with it) is imported only where workers > 1."""
    cfg = write(tmp_path, "exp.json", {"experiment": "miso-graph", "trials": 1,
                                       "params": {"m": 12, "n": 4, "n_paths": 4,
                                                  "aperture": 4.0}})
    script = ("import sys\n"
              "import makit.cli, makit.experiments\n"
              "imported = 'concurrent.futures.process' in sys.modules\n"
              f"assert makit.cli.main(['experiment', '--config', {cfg!r}]) == 0\n"
              "print(imported, 'concurrent.futures.process' in sys.modules)\n")
    assert run_fresh(script).splitlines()[-1] == "False False"


def test_cli_validate_config_does_not_run_the_task(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("validate-config ran the task")

    monkeypatch.setattr("makit.optimize.svo_null_apv", refuse)
    monkeypatch.setattr("makit.cli._music_mse_once", refuse)
    monkeypatch.setattr("makit.cli.channel_mimo", refuse)
    monkeypatch.setattr("makit.estimate.collect_measurements", refuse)
    for doc in (NULL, SENSE, simulate_doc(0.5), estimate_doc()):
        assert main(["validate-config", "--config", write(tmp_path, "ok.json", doc)]) == 0


def test_out_of_range_sweep_value_rejected():
    with pytest.raises(ConfigError, match="region_side"):
        ExperimentConfig.from_dict({"experiment": "mimo-capacity",
                                    "sweep": {"variable": "region_side",
                                              "values": [0.0, 2.0]}})


def test_cli_infeasible_exit_3(tmp_path, capsys):
    cfg = write(tmp_path, "inf.json",
                {"task": "sensing-1d", "n": 8, "aperture": 2.0, "d_min": 0.5})
    assert main(["optimize", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "spacing" in err and "aperture" in err  # names the violated constraint


@pytest.mark.parametrize("exp", ["beam-multibeam", "beam-widebeam"])
def test_cli_beam_region_too_small_exit_3(tmp_path, capsys, exp):
    cfg = write(tmp_path, "inf.json", {"experiment": exp, "params": {"aperture": 0.1}})
    assert main(["experiment", "--config", cfg]) == 3
    assert "no feasible starting placement" in capsys.readouterr().err


def test_cli_single_angle_widebeam_region_too_small_exit_3(tmp_path, capsys):
    cfg = write(tmp_path, "inf.json", {**WIDEBEAM, "theta_max_deg": 30.0, "aperture": 0.1})
    assert main(["optimize", "--config", cfg]) == 3
    assert "no feasible starting placement" in capsys.readouterr().err


@pytest.mark.parametrize("params", [{"aperture": 2.0}, {"n": 6, "d_min": 0.8}])
def test_cli_beam_null_without_a_fitting_array_exit_3(tmp_path, capsys, params):
    # no null-steering geometry, and the fixed array is 3.5 lambda long or closer than d_min
    cfg = write(tmp_path, "inf.json", {"experiment": "beam-null", "params": params})
    assert main(["experiment", "--config", cfg]) == 3
    assert "the fixed array breaks the region or d_min" in capsys.readouterr().err


def test_cli_validate_config(tmp_path):
    good = write(tmp_path, "good.json", {"experiment": "beam-null"})
    assert main(["validate-config", "--config", good]) == 0
    bad = write(tmp_path, "bad.json", {"experiment": "beam-null", "params": {"nope": 1}})
    assert main(["validate-config", "--config", bad]) == 2
    shapeless = write(tmp_path, "shapeless.json", {"stuff": 1})
    assert main(["validate-config", "--config", shapeless]) == 2


def test_cli_unknown_command_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "ok.json", {"experiment": "beam-null"})
    with pytest.raises(SystemExit) as exit_:
        main(["nope", "--config", cfg])
    assert exit_.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_cli_experiment_prints_the_run_config_hash(tmp_path, capsys):
    doc = {"experiment": "miso-graph", "trials": 1,
           "params": {"m": 12, "n": 4, "n_paths": 4, "aperture": 4.0}}
    assert main(["experiment", "--config", write(tmp_path, "exp.json", doc)]) == 0
    h = config_hash(ExperimentConfig.from_dict(doc))
    assert capsys.readouterr().out == f"miso-graph: 1 rows, config {h[:12]}\n"


def test_cli_miso_graph_wavelength_must_match_scenario(tmp_path, capsys):
    def task(scenario_lam):
        return {"task": "miso-graph", "wavelength": 2.0, "n": 3, "m": 12, "aperture": 3.0,
                "d_min": 0.5, "scenario": {"generate": {"seed": 1, "n_paths": 3,
                                                        "wavelength": scenario_lam}}}
    assert main(["optimize", "--config", write(tmp_path, "ok.json", task(2.0))]) == 0
    assert main(["optimize", "--config", write(tmp_path, "bad.json", task(1.0))]) == 2
    assert "wavelength" in capsys.readouterr().err


def test_cli_simulate_writes_mapping(tmp_path):
    cfg = write(tmp_path, "sim.json", {
        "scenario": {"generate": {"seed": 3, "n_paths": 2, "kappa": 1.0}},
        "tx_grid": {"segment": {"length": 1.0, "step": 0.5}},
        "rx_grid": {"segment": {"length": 1.0, "step": 0.5}},
    })
    out = tmp_path / "map.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "tx_x,tx_y,rx_x,rx_y,re,im"
    assert len(lines) == 1 + 9  # 3 tx x 3 rx grid points


def test_cli_optimize_null_task(tmp_path):
    cfg = write(tmp_path, "null.json",
                {"task": "null", "n": 8, "theta0_deg": 90.0,
                 "null_deg": [78.0, 98.0, 170.0], "aperture": 20.0, "d_min": 0.5})
    out = tmp_path / "null_report.json"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    report = json.load(open(out))
    assert report["constructible"]
    assert report["gain"] > 7.9


def test_cli_sense_runs(tmp_path):
    cfg = write(tmp_path, "sense.json",
                {"n": 8, "aperture": 4.0, "d_min": 0.5, "u": 0.5, "snr_db": 20.0,
                 "trials": 5})
    out = tmp_path / "sense.csv"
    assert main(["sense", "--config", cfg, "--out", str(out)]) == 0
    table = load_table_csv(out)
    assert len(table.rows) == 5


def test_cli_estimate_runs(tmp_path):
    cfg = write(tmp_path, "est.json", estimate_doc())
    out = tmp_path / "est.json.out"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0


def test_cli_estimate_scores_each_method_against_its_reference(tmp_path):
    for method in ("successive", "joint", "nearest"):
        cfg = write(tmp_path, "est.json", estimate_doc(method=method))
        out = tmp_path / f"{method}.json"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert 0.0 < load_table_json(out).rows[0][0] < 1.0


def test_cli_seed_override_changes_result(tmp_path):
    cfg = write(tmp_path, "exp.json",
                {"experiment": "miso-graph", "trials": 1,
                 "params": {"m": 24, "n": 4, "n_paths": 4, "aperture": 4.0}})
    o1 = tmp_path / "a.csv"
    o2 = tmp_path / "b.csv"
    o3 = tmp_path / "c.csv"
    assert main(["experiment", "--config", cfg, "--out", str(o1), "--seed", "1"]) == 0
    assert main(["experiment", "--config", cfg, "--out", str(o2), "--seed", "2"]) == 0
    assert main(["experiment", "--config", cfg, "--out", str(o3), "--seed", "1"]) == 0
    a, b, c = (load_table_csv(p).rows for p in (o1, o2, o3))
    assert a == c
    assert a != b


def test_cli_seed_override_replaces_scenario_seed(tmp_path):
    # --seed replaces the seed a scenario's generate block names, in place of
    # colliding with it
    out_override, out_written = tmp_path / "a.csv", tmp_path / "b.csv"
    doc = simulate_doc(0.5, {"generate": {"seed": 7, "n_paths": 4, "kappa": 1.0}})
    cfg = write(tmp_path, "sim.json", doc)
    assert main(["simulate", "--config", cfg, "--out", str(out_override), "--seed", "1"]) == 0
    doc["scenario"]["generate"]["seed"] = 1
    cfg = write(tmp_path, "sim1.json", doc)
    assert main(["simulate", "--config", cfg, "--out", str(out_written)]) == 0
    assert out_override.read_text() == out_written.read_text()


def test_non_finite_rows_are_counted_and_logged(monkeypatch, caplog):
    entry = CATALOG["miso-graph"]

    def trial(params, seed, idx):
        row = list(entry.trial(params, seed, idx))
        return row[:-1] + [math.nan] if idx == 1 else row

    cfg = small_config()
    clean = run_experiment(cfg)
    assert clean.metadata["non_finite_rows"] == 0
    monkeypatch.setitem(experiments.CATALOG, "miso-graph", dataclasses.replace(entry, trial=trial))
    with caplog.at_level(logging.WARNING, logger="makit"):
        table = run_experiment(cfg)
    assert table.metadata["non_finite_rows"] == 1
    assert table.metadata["config_hash"] == clean.metadata["config_hash"]
    assert [r for r in table.rows if not all(map(math.isfinite, r))] == [table.rows[1]]
    warned = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == 1 and warned[0].name.startswith("makit")
    assert "1 of 3 result rows" in warned[0].getMessage()


def test_malformed_workers_variable_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(experiments.WORKERS_ENV, "abc")
    cfg = write(tmp_path, "exp.json", {"experiment": "miso-graph", "trials": 1,
                                       "params": {"m": 24, "n": 4, "n_paths": 4, "aperture": 4.0}})
    assert main(["experiment", "--config", cfg]) == 2
    assert experiments.WORKERS_ENV in capsys.readouterr().err


def test_one_process_pool_per_run(monkeypatch):
    built = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    cfg = small_config(trials=2, sweep={"variable": "m", "values": [12, 16, 24]})
    serial = run_experiment(cfg, workers=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    parallel = run_experiment(cfg, workers=2)
    assert len(built) == 1
    assert parallel.rows == serial.rows and len(serial.rows) == 6


# Fields that both the catalog (params or top-level) and a CLI reader take.
CLI_FIELDS = ("n", "m", "subregions", "snapshots", "trials", "measurements", "grid",
              "paths_to_recover", "aperture", "d_min", "side", "region_side", "eval_step",
              "wavelength", "u", "theta_deg", "null_deg", "theta0_deg", "theta_min_deg",
              "theta_max_deg", "snr_db", "analog")
SHARED_FIELDS = [f for f in CLI_FIELDS
                 if f == "trials" or any(f in e.defaults for e in CATALOG.values())]


def catalog_reader(name):
    """from_dict on a config that sets only name, in an entry whose own rules leave it alone.

    Only beam-widebeam takes the ends of an angular region, which must be in order, so
    both ends take the value: they meet the order rule wherever each meets its own."""
    if name == "trials":
        return lambda v: ExperimentConfig.from_dict({"experiment": "miso-graph", "trials": v})
    if name in ("theta_min_deg", "theta_max_deg"):
        return lambda v: ExperimentConfig.from_dict(
            {"experiment": "beam-widebeam", "params": {"theta_min_deg": v, "theta_max_deg": v}})
    exp = next(e for e, entry in CATALOG.items() if name in entry.defaults
               and (e, name) not in experiments._RANGES
               and not (e in experiments._JOINT_RANGES and name in experiments._JOINT_RANGES[e][0]))
    return lambda v: ExperimentConfig.from_dict({"experiment": exp, "params": {name: v}})


def accepts(read, value):
    try:
        read(value)
    except ConfigError:
        return False
    return True


numeric = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70),
                    st.floats(-3, 3).map(lambda x: round(x, 1)), st.floats(),
                    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 1.0, 2.0]))
scalars = st.one_of(numeric, st.booleans(), st.text(max_size=3), st.none())


def test_every_cli_field_but_one_is_a_catalog_field():
    assert set(CLI_FIELDS) - set(SHARED_FIELDS) == {"paths_to_recover"}


@pytest.mark.parametrize("name", SHARED_FIELDS)
@settings(max_examples=150, deadline=None)
@given(value=st.one_of(numeric, st.lists(numeric, max_size=3), scalars,
                       st.lists(scalars, max_size=3)))
def test_catalog_and_cli_readers_take_the_same_field_values(name, value):
    cli_reader = lambda v: experiments.read_fields({name: v})  # noqa: E731
    assert accepts(catalog_reader(name), value) == accepts(cli_reader, value)


@pytest.mark.parametrize("path", sorted((pathlib.Path(__file__).parent.parent / "docs"
                                         / "examples").glob("*.json")), ids=lambda p: p.stem)
def test_example_configs_pass_validate_config(path, capsys):
    assert main(["validate-config", "--config", str(path)]) == 0
    assert capsys.readouterr().out == f"ok: {path.stem.split('-')[0]} config\n"


@pytest.mark.parametrize("path", sorted((pathlib.Path(__file__).parent.parent / "docs"
                                         / "examples").glob("*.json")), ids=lambda p: p.stem)
def test_example_configs_run(path, tmp_path):
    command = path.stem.split("-")[0]
    out = tmp_path / ("out.json" if command == "optimize" else "out.csv")
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    assert out.stat().st_size > 0


def test_experiment_schema_lists_the_config_fields():
    path = pathlib.Path(__file__).parent.parent / "docs" / "experiment-config.schema.json"
    with open(path) as fh:
        schema = json.load(fh)
    props = schema["properties"]
    assert set(props) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert props["trials"]["minimum"] == 1
    assert props["seeds"]["minItems"] == 1 and props["seeds"]["items"]["minimum"] == 0
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_dict({"experiment": "miso-graph", "seed": [1]})


def test_oracles_live_in_the_oracle_module():
    """A test module defines no reference implementation: each one is in oracles.py."""
    prefixes = ("ref_", "today_", "stacked_", "scalar_", "batched_")
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name.startswith(prefixes)]
    assert not found, found
