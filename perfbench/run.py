"""Catalog benchmark: times makit catalog trials end to end, or per layer when traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload placement --seed 0 --seconds 25 --trace 0

Untraced (``--trace 0``) runs batches of the workload's trial mix until the
next batch would overrun ``--seconds`` and reports the end-to-end metrics in
reference seconds (wall seconds scaled by ``calibrate.Calibrator``).
Traced (``--trace 1``) runs a fixed number of batches twice, untraced and
then with every layer wrapped by ``tracer.Tracer``, and reports per-layer
metrics plus the tracing overhead.  Every trial's rows are checked against
catalog invariants and, for the default seed, against committed reference
rows.  The last line of standard output is the JSON result; the lines before
it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, batch_configs, invariant_problems, reference_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
CALIBRATE_EVERY_S = 0.5

# One BLAS thread: trials run serially, and on a small shared machine extra
# BLAS threads add scheduling noise without adding throughput.  Set before
# numpy is first imported, here and in the set-up interpreters.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh interpreter until ready for the first trial: imports of every makit
# module plus parsing of the run's first batch of configs (read from stdin).
SETUP_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import makit, makit.cli
from makit.experiments import ExperimentConfig
for doc in json.load(sys.stdin):
    ExperimentConfig.from_dict(doc)
print("ready", flush=True)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure, or set-up failed)."""


def environment(seed: int) -> dict:
    """Versions, BLAS, threads and machine of this run."""
    import numpy
    import scipy

    import makit

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"  # a checkout without .git, or one git cannot read
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.TimeoutExpired):
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if rev.returncode == 0:
                commit = rev.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "makit": makit.__version__,
        "blas": blas_name,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "git_commit": commit,
        "workload_seed": seed,
    }


def measure_setup(docs: list[dict], repeats: int = SETUP_REPEATS):
    """Fresh interpreter until ready to run a trial: (wall seconds, reference seconds) each."""
    from calibrate import Calibrator

    calibrator = Calibrator()
    payload = json.dumps(docs).encode()
    wall, ref = [], []
    for _ in range(repeats):
        before = calibrator.kernel_s()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE) as child:
            child.stdin.write(payload)
            child.stdin.close()
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            child.wait(timeout=120)
        if line.strip() != b"ready" or child.returncode != 0:
            raise BenchError(f"set-up interpreter failed (exit {child.returncode})")
        wall.append(elapsed)
        ref.append(elapsed * calibrator.scale(before, calibrator.kernel_s()))
    return wall, ref


class Runner:
    """Runs one workload's trials through the public API and checks every result."""

    def __init__(self, workload, seed: int, workdir: Path, reference: dict | None = None):
        import makit.cli
        import makit.experiments
        from calibrate import Calibrator

        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.cli = makit.cli
        self.experiments = makit.experiments
        if reference is None:
            reference = self._load_reference() if seed == DEFAULT_SEED else {}
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calibrator = Calibrator()
        self.kernel_s: list[float] = []
        self.last_kernel_s: float | None = None
        self.trial_s: dict[str, list[float]] = {k.label: [] for k in workload.mix}
        self.trial_wall_s: dict[str, list[float]] = {k.label: [] for k in workload.mix}

    def _load_reference(self) -> dict:
        path = REFERENCE_DIR / f"{self.workload.name}.json"
        with open(path) as fh:
            return json.load(fh)["trials"]

    def _execute(self, doc: dict):
        """(seconds, columns, rows) of one catalog trial."""
        if self.workload.via_cli:
            cfg = self.workdir / "config.json"
            out = self.workdir / "result.json"
            cfg.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = self.cli.main(["experiment", "--config", str(cfg), "--out", str(out)])
                elapsed = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"makit experiment exited {code}")
            table = self.experiments.load_table_json(out)
        else:
            cfg = self.experiments.ExperimentConfig.from_dict(doc)
            start = time.perf_counter()
            table = self.experiments.run_experiment(cfg)
            elapsed = time.perf_counter() - start
        return elapsed, table.columns, table.rows

    def _run_checked(self, label: str, index: int, doc: dict):
        """(seconds or None if it raised, rows or None) of one checked trial."""
        self.attempted += 1
        try:
            elapsed, columns, rows = self._execute(doc)
        except Exception as exc:  # a failing trial is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.fail(label, index, f"raised {exc!r}")
            return None, None
        problems = invariant_problems(doc["experiment"], doc["params"], columns, rows)
        ref = self.reference.get(label, [])
        if index < len(ref):
            problems += reference_problems(rows, ref[index])
        if problems:
            self.fail(label, index, "; ".join(problems))
        return elapsed, rows

    def _kernel(self) -> float:
        self.last_kernel_s = self.calibrator.kernel_s()
        self.kernel_s.append(self.last_kernel_s)
        return self.last_kernel_s

    def run_batch(self, batch: int, record: bool = True):
        """Run one batch: (wall seconds, reference seconds, rows of every trial).

        The calibration kernel runs between trial groups once CALIBRATE_EVERY_S
        of trials has passed, and after the batch; trials are scaled by the
        kernel times just before and after them.  The previous batch's last
        kernel time opens the next batch.
        """
        configs = batch_configs(self.workload, self.seed, batch)
        before = self.last_kernel_s if self.last_kernel_s is not None else self._kernel()
        wall = ref = 0.0
        results = []
        pending: list[tuple[str, float]] = []
        groups = [(label, list(group))
                  for label, group in itertools.groupby(configs, key=lambda c: c[0])]
        for i, (label, group) in enumerate(groups):
            for _, index, doc in group:
                elapsed, rows = self._run_checked(label, index, doc)
                results.append(rows)
                if elapsed is not None:
                    pending.append((label, elapsed))
            if i == len(groups) - 1 or sum(t for _, t in pending) >= CALIBRATE_EVERY_S:
                after = self._kernel()
                factor = self.calibrator.scale(before, after)
                for name, t in pending:
                    wall += t
                    ref += factor * t
                    if record:
                        self.trial_s[name].append(factor * t)
                        self.trial_wall_s[name].append(t)
                pending, before = [], after
        return wall, ref, results

    def fail(self, label: str, index: int, message: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}[{index}]: {message}")


def _median_of(values: dict[str, list[float]]) -> dict[str, float]:
    return {k: statistics.median(v) for k, v in values.items()}


def run_untraced(runner: Runner, seconds: float) -> dict:
    """Batches until the next would overrun ``seconds``; end-to-end metrics in reference s."""
    wall, ref = [], []
    start = time.perf_counter()
    while True:
        w, r, _ = runner.run_batch(len(wall))
        wall.append(w)
        ref.append(r)
        if time.perf_counter() - start + statistics.median(wall) > seconds:
            break
    metrics = {
        "batch_s": (statistics.median(ref), "s"),
        "batch_wall_s": (statistics.median(wall), "s"),
        "calibration_s": (statistics.median(runner.kernel_s), "s"),
    }
    for label, value in _median_of(runner.trial_s).items():
        metrics[f"{label}.trial_s"] = (value, "s")
    for label, value in _median_of(runner.trial_wall_s).items():
        metrics[f"{label}.trial_wall_s"] = (value, "s")
    samples = {f"{k}.trial_s": len(v) for k, v in runner.trial_s.items()}
    samples.update({f"{k}.trial_wall_s": len(v) for k, v in runner.trial_wall_s.items()})
    samples.update(batch_s=len(ref), batch_wall_s=len(wall), calibration_s=len(runner.kernel_s))
    return {"metrics": metrics, "samples": samples, "batches": len(wall)}


def run_traced(runner: Runner) -> dict:
    """Fixed batches, each untraced then traced with the same configs; per-layer metrics.

    Span and batch times here are wall seconds, so that self times add up to
    the traced batch time.
    """
    from tracer import Tracer

    tracer = Tracer()
    runner.run_batch(0, record=False)  # warm-up: lazy imports and first-use caches
    plain, traced = [], []
    for batch in range(runner.workload.trace_batches):
        wall_plain, _, rows_plain = runner.run_batch(batch, record=False)
        with tracer:
            wall_traced, _, rows_traced = runner.run_batch(batch, record=False)
        if rows_traced != rows_plain:
            runner.fail("trace", batch, "traced results differ from untraced results")
        plain.append(wall_plain)
        traced.append(wall_traced)
    if tracer.total_self_s() > sum(traced):
        runner.fail("trace", -1, f"summed self time {tracer.total_self_s()} exceeds traced "
                                 f"batch time {sum(traced)}")
    metrics = dict(tracer.metrics())
    metrics["trace.untraced_batch_s"] = (statistics.median(plain), "s")
    metrics["trace.traced_batch_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return {"metrics": metrics, "samples": {}, "batches": len(traced)}


def write_reference(runner: Runner, batches: int) -> Path:
    trials: dict[str, list] = {k.label: [] for k in runner.workload.mix}
    for batch in range(batches):
        _, _, results = runner.run_batch(batch, record=False)
        for (label, _, _), rows in zip(batch_configs(runner.workload, runner.seed, batch),
                                       results):
            trials[label].append(rows)
    path = REFERENCE_DIR / f"{runner.workload.name}.json"
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": runner.workload.name, "seed": runner.seed, "trials": trials},
                  fh, indent=1)
        fh.write("\n")
    return path


def main(argv=None) -> int:
    for name in THREAD_ENV:
        os.environ.setdefault(name, "1")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result record here")
    parser.add_argument("--write-reference", type=int, metavar="BATCHES",
                        help="regenerate the reference rows for this many batches and exit")
    args = parser.parse_args(argv)

    if not (SRC / "makit" / "__init__.py").is_file():
        print(f"error: no makit sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup = ([], [])
    if not (args.trace or args.write_reference):
        try:
            setup = measure_setup([doc for _, _, doc in batch_configs(workload, args.seed, 0)])
        except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as tmp:
        if args.write_reference:
            if args.seed != DEFAULT_SEED:
                parser.error("reference rows are kept for the default seed only")
            runner = Runner(workload, args.seed, Path(tmp), reference={})
            print(f"wrote {write_reference(runner, args.write_reference)}")
            return 0 if runner.failed == 0 else 1
        runner = Runner(workload, args.seed, Path(tmp))
        result = run_traced(runner) if args.trace else run_untraced(runner, args.seconds)

    metrics, samples = result["metrics"], result["samples"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup[1]), "s")
        metrics["setup_wall_s"] = (statistics.median(setup[0]), "s")
        samples.update(setup_s=len(setup[1]), setup_wall_s=len(setup[0]))
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
        metrics["mismatch_frac"] = (runner.failed / runner.attempted, "fraction")
    env = environment(args.seed)

    print(f"# workload {workload.name} seed {args.seed} trace {args.trace} "
          f"batches {result['batches']} attempted {runner.attempted} failed {runner.failed}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for problem in runner.problems[:20]:
        print(f"# problem {problem}")
    for name, (value, unit) in sorted(metrics.items()):
        note = f"  (median of {samples[name]})" if name in samples else ""
        print(f"{name} = {value:.6g} {unit}{note}")

    if args.out:
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "batches": result["batches"],
                  "samples": samples, "attempted": runner.attempted, "failed": runner.failed,
                  "problems": runner.problems,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
