"""Run every workload untraced and traced, print all metrics, and save a BENCH record.

Usage, from the repository root:

    python3 perfbench/record.py --out perfbench/results/BENCH_<name>.json

Each workload runs in its own fresh process (``run.py``), one after another.
The record keeps each run's full result: environment, end-to-end metrics
with sample counts, per-layer metrics and any failed trials.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_one(workload: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}")
    for line in proc.stdout.splitlines()[:-1]:
        if not line.startswith("# env"):
            print(f"[{workload}] {line}")
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)

    runs = {}
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as tmp:
        for name in WORKLOADS:
            runs[name] = {
                "untraced": run_one(name, args.seed, args.seconds, 0, Path(tmp) / "u.json"),
                "traced": run_one(name, args.seed, args.seconds, 1, Path(tmp) / "t.json"),
            }
    first = next(iter(runs.values()))["untraced"]
    record = {"seed": args.seed, "seconds": args.seconds, "env": first["env"], "workloads": runs}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    failed = sum(r["failed"] for w in runs.values() for r in w.values())
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
