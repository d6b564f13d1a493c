"""The catalog's rows as a committed record, checked bitwise.

catalog_rows.json holds the float.hex of every row of every catalog entry at
its defaults, one trial, seeds 0-7, and the BLAS that computed them.  The test
recomputes each entry's rows and compares them byte for byte; bitwise equality
holds for the recorded BLAS build only.

A change that moves a row rewrites the record, the only sanctioned way to do so:

    PYTHONPATH=src python3 tests/test_catalog_rows.py

The record's diff then names the moved rows; the tolerances of
tests/test_acceptance.py stay as they are.
"""

import json
import math
import pathlib
import sys

RECORD = pathlib.Path(__file__).resolve().parent / "catalog_rows.json"
SEEDS = range(8)

if __name__ == "__main__":  # run as a script: make the package importable
    sys.path.insert(0, str(RECORD.parent.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from makit.experiments import CATALOG, ExperimentConfig, run_experiment  # noqa: E402


def blas() -> str:
    """The BLAS numpy was built against, as its build configuration names it."""
    b = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{b['name']} {b['version']} ({b.get('openblas configuration', '').strip()})"


def entry_rows(name: str) -> dict[str, str]:
    """The entry's rows at its defaults (one trial) per seed, as space-joined float.hex."""
    return {f"seed {s} row {i}": " ".join(map(float.hex, row)) for s in SEEDS for i, row in
            enumerate(run_experiment(ExperimentConfig(experiment=name, seeds=(s,)),
                                     workers=1).rows)}


def _load() -> dict:
    with open(RECORD) as fh:
        return json.load(fh)


def _moved_report(name: str, recorded: dict, current: dict, record_blas: str) -> str:
    """The rows of one entry that moved, the largest relative move and both BLAS builds."""
    moved = [k for k in {**recorded, **current} if recorded.get(k) != current.get(k)]
    worst = 0.0
    for k in moved:
        x, y = ([float.fromhex(v) for v in rows.get(k, "").split()] for rows in (recorded, current))
        if len(x) != len(y) or not x:
            worst = math.inf
            continue
        x, y = np.array(x), np.array(y)
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.abs(y - x) / np.maximum(np.abs(x), np.finfo(float).tiny)
        worst = max(worst, float(np.nanmax(np.where(x == y, 0.0, rel))))
    lines = [f"{k}: recorded {recorded.get(k)}\n{' ' * len(k)}  now      {current.get(k)}"
             for k in moved]
    return "\n".join([f"{name}: {len(moved)} moved rows, largest relative move {worst:.3g}",
                      *lines, f"recorded BLAS: {record_blas}", f"current BLAS:  {blas()}",
                      "rewrite the record with: PYTHONPATH=src python3 tests/test_catalog_rows.py"])


def test_record_covers_the_catalog():
    assert sorted(_load()["tables"]) == sorted(CATALOG)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_rows_match_the_record_bitwise(name):
    record = _load()
    recorded = record["tables"][name]
    current = entry_rows(name)
    assert current == recorded, _moved_report(name, recorded, current, record["blas"])


def write() -> None:
    record = {"blas": blas(), "tables": {name: entry_rows(name) for name in sorted(CATALOG)}}
    with open(RECORD, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    write()
    print(f"wrote {RECORD}")
