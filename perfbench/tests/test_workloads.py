"""Workload inputs, result checks, and the runner's refusal to run without sources."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, batch_configs, invariant_problems, reference_problems

BENCH = Path(__file__).resolve().parent.parent


def test_configs_derive_from_the_workload_seed_only():
    for workload in WORKLOADS.values():
        a = batch_configs(workload, 7, 2)
        assert a == batch_configs(workload, 7, 2)
        assert a != batch_configs(workload, 8, 2)
        assert len(a) == sum(k.repeat for k in workload.mix)
        seeds = [doc["seeds"][0] for _, _, doc in a]
        assert len(set(seeds)) == len(seeds)


def test_invariants_flag_broken_catalog_promises():
    cols = ["trial", "max_gain", "min_gain", "upper_bound", "lower_bound", "fpa_gain"]
    assert invariant_problems("siso-gain-bounds", {}, cols, [[0, 2.0, 0.1, 2.5, 0.0, 1.0]]) == []
    assert invariant_problems("siso-gain-bounds", {}, cols, [[0, 2.6, 0.1, 2.5, 0.0, 1.0]])
    assert invariant_problems("siso-gain-bounds", {}, cols, [[0, 2.0, 0.1, 2.5, 0.2, 1.0]])
    cols = ["trial", "snr_db", "cap_ma", "cap_dense", "cap_sparse"]
    assert invariant_problems("mimo-capacity", {}, cols, [[0, 10, 9.0, 9.5, 8.0]])
    cols = ["crb_scale", "capacity", "crb", "threshold"]
    rows = [[1.0, 5.0, 1, 1], [2.0, 4.0, 1, 1]]
    assert invariant_problems("isac-tradeoff", {}, cols, rows)
    assert invariant_problems("isac-tradeoff", {}, cols, rows[:1]) == []
    assert invariant_problems("miso-graph", {}, ["a"], [[math.nan]])
    assert reference_problems([[1.0, 2.0]], [[1.0, 2.0 + 1e-13]]) == []
    assert reference_problems([[1.0, 2.0]], [[1.0, 2.1]])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    argv = spec["command"][1:] + ["--workload", "placement", "--seed", "1", "--seconds", "1",
                                  "--trace", "0"]
    proc = subprocess.run([sys.executable] + argv, cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
