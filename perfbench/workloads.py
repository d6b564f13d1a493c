"""Benchmark workloads: catalog trial mixes, their inputs, and result checks.

A workload is a mix of catalog trials.  One *batch* runs every trial of the
mix once (``repeat`` trials of a kind run back to back), each trial as its
own catalog run with one seed.  Per-trial seeds derive from the workload
seed, the trial label and the trial's index, so the same workload seed
gives the same configs and the program only ever sees those configs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TrialKind:
    label: str                 # metric label: "<label>.trial_s"
    experiment: str            # catalog id
    params: dict = field(default_factory=dict)
    repeat: int = 1            # trials of this kind per batch


@dataclass(frozen=True)
class Workload:
    name: str
    mix: tuple[TrialKind, ...]
    via_cli: bool = False      # drive trials through `makit experiment`
    trace_batches: int = 1     # fixed batch count of a traced run, so counts repeat


# Placement optimizers sweep until a sweep stops improving, so at catalog
# defaults one trial takes 0.3-4.5 s depending on the channel draw (multiuser
# rate: 0.47-4.47 s over eight draws).  Pinning the sweep count makes every
# trial do the same number of sweeps and lets a run hold enough trials for a
# steady median; each sweep still runs the same kernels.
PLACEMENT = Workload(
    name="placement",
    mix=(
        TrialKind("mimo-capacity", "mimo-capacity", {"max_sweeps": 2}, repeat=3),
        TrialKind("multiuser-rate", "multiuser-rate", {"max_sweeps": 1}),
        TrialKind("isac-tradeoff", "isac-tradeoff", {"max_sweeps": 1}),
    ),
    trace_batches=2,
)

# The wideband variant shrinks the region from 5 to 2.5 wavelengths: the
# (subcarrier x grid) frequency response peaks at 1.6 GB on the default
# region and at a few hundred MB here.
FIELD = Workload(
    name="field",
    mix=(
        TrialKind("siso-gain-bounds", "siso-gain-bounds", repeat=4),
        TrialKind("siso-wideband", "siso-gain-bounds",
                  {"bandwidth": 2.0e7, "region_side": 2.5}, repeat=2),
        TrialKind("dof-gain", "dof-gain"),
    ),
    trace_batches=2,
)

# Beam trials shrink the aperture from 20 to 10 wavelengths, which leaves
# fewer uniform-spacing starts, so a run holds about 1.5x the trials; the
# weight and position sweeps are unchanged.
BEAMS = Workload(
    name="beams",
    mix=(
        TrialKind("beam-multibeam", "beam-multibeam", {"aperture": 10.0}),
        TrialKind("beam-widebeam", "beam-widebeam", {"aperture": 10.0}),
        TrialKind("beam-null", "beam-null", repeat=8),
    ),
    trace_batches=1,
)

ACQUISITION = Workload(
    name="acquisition",
    mix=(
        TrialKind("estimation-nmse", "estimation-nmse"),
        TrialKind("estimation-region", "estimation-region"),
        TrialKind("sensing-1d-mse", "sensing-1d-mse"),
        TrialKind("sensing-2d-crb", "sensing-2d-crb"),
        TrialKind("miso-graph", "miso-graph"),
    ),
    via_cli=True,
    trace_batches=12,
)

WORKLOADS: dict[str, Workload] = {w.name: w for w in (PLACEMENT, FIELD, BEAMS, ACQUISITION)}


def trial_seed(workload: str, seed: int, label: str, index: int) -> int:
    """Per-trial seed, derived here so the program's own seeding cannot change the inputs."""
    digest = hashlib.sha256(f"perfbench:{workload}:{seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def batch_configs(workload: Workload, seed: int, batch: int) -> list[tuple[str, int, dict]]:
    """(label, trial index within the label, experiment config) for one batch, in run order."""
    out = []
    for kind in workload.mix:
        for rep in range(kind.repeat):
            index = batch * kind.repeat + rep
            s = trial_seed(workload.name, seed, kind.label, index)
            out.append((kind.label, index,
                        {"experiment": kind.experiment, "params": dict(kind.params),
                         "trials": 1, "seeds": [s]}))
    return out


# ---------------------------------------------------------------------------
# result checks

REL_TOL = 1e-9    # slack on invariants the catalog promises exactly
REF_RTOL = 1e-6   # reference rows: absorbs last-digit BLAS differences only
REF_ATOL = 1e-12


def _col(columns, rows, name):
    i = columns.index(name)
    return [r[i] for r in rows]


def _leq(a: float, b: float) -> bool:
    return a <= b + REL_TOL * max(1.0, abs(a), abs(b))


def invariant_problems(experiment: str, params: dict, columns, rows) -> list[str]:
    """Catalog invariants that hold on every seed."""
    if not rows:
        return ["empty result table"]
    if not all(math.isfinite(v) for r in rows for v in r):
        return ["non-finite value in result rows"]
    problems = []
    if experiment == "siso-gain-bounds" and params.get("bandwidth", 0.0) == 0.0:
        for lo, gmin, gmax, up in zip(_col(columns, rows, "lower_bound"),
                                      _col(columns, rows, "min_gain"),
                                      _col(columns, rows, "max_gain"),
                                      _col(columns, rows, "upper_bound")):
            if not (_leq(lo, gmin) and _leq(gmax, up)):
                problems.append(f"gain bounds violated: {lo} <= {gmin}, {gmax} <= {up}")
    if experiment == "mimo-capacity":
        for ma, dense, sparse in zip(_col(columns, rows, "cap_ma"),
                                     _col(columns, rows, "cap_dense"),
                                     _col(columns, rows, "cap_sparse")):
            if not _leq(max(dense, sparse), ma):
                problems.append(f"cap_ma {ma} below baseline {max(dense, sparse)}")
    if experiment == "isac-tradeoff":
        pairs = sorted(zip(_col(columns, rows, "crb_scale"), _col(columns, rows, "capacity")))
        for (s0, c0), (s1, c1) in zip(pairs, pairs[1:]):
            if not _leq(c0, c1):
                problems.append(f"capacity falls from {c0} to {c1} as crb_scale goes "
                                f"{s0} -> {s1}")
    return problems


def reference_problems(rows, ref_rows) -> list[str]:
    if len(rows) != len(ref_rows) or any(len(a) != len(b) for a, b in zip(rows, ref_rows)):
        return ["result shape differs from the reference"]
    for r, ref in zip(rows, ref_rows):
        for a, b in zip(r, ref):
            if not abs(a - b) <= REF_ATOL + REF_RTOL * abs(b):
                return [f"departs from the reference row: {r} != {ref}"]
    return []
