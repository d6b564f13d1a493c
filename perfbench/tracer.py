"""Per-layer tracing from outside the program.

The tracer replaces every binding of each traced function inside the
``makit`` package with a wrapper that times the call.  Modules that did
``from .channel import frm`` hold their own binding, and ``frv_rx`` is an
alias of ``frv_tx``, so patching only the home module would miss calls.
Uninstalling puts the original objects back, so an untraced run measures
the unmodified program.

Spans are aggregated as they close instead of being stored one by one: the
catalog makes ~10^5 traced calls per trial.  A span's self time is its
duration minus the time its traced children cover; calls run on one thread,
so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (metric prefix, home module, qualified name).  The prefix names the layer
# as the package's public namespace does: optimizer functions live in
# submodules of makit.optimize but are reported as optimize.<name>.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("geometry.accs_basis", "makit.geometry", "accs_basis"),
    ("geometry.MoveRegion.clip", "makit.geometry", "MoveRegion.clip"),
    ("channel.frv_tx", "makit.channel", "frv_tx"),
    ("channel.frm", "makit.channel", "frm"),
    ("channel.channel_mimo", "makit.channel", "channel_mimo"),
    ("channel.polarization_gain", "makit.channel", "polarization_gain"),
    ("channel.prm_6dma", "makit.channel", "prm_6dma"),
    ("beamforming.steering_vector", "makit.beamforming", "steering_vector"),
    ("beamforming.beam_gain", "makit.beamforming", "beam_gain"),
    ("beamforming.zf_combiner", "makit.beamforming", "zf_combiner"),
    ("beamforming.water_filling", "makit.beamforming", "water_filling"),
    ("beamforming.mimo_capacity", "makit.beamforming", "mimo_capacity"),
    ("beamforming.user_sinr_and_rates", "makit.beamforming", "user_sinr_and_rates"),
    ("beamforming.multiuser_channels", "makit.beamforming", "multiuser_channels"),
    ("optimize.mimo_position_ao", "makit.optimize.mimo", "mimo_position_ao"),
    ("optimize.multiuser_position_opt", "makit.optimize.mimo", "multiuser_position_opt"),
    ("optimize.isac_constrained_opt", "makit.optimize.mimo", "isac_constrained_opt"),
    ("optimize.crb_metric_2d", "makit.optimize.sensing", "crb_metric_2d"),
    ("optimize.sensing_2d_ao", "makit.optimize.sensing", "sensing_2d_ao"),
    ("optimize.max_min_awv", "makit.optimize.beams", "max_min_awv"),
    ("optimize.multibeam_ao", "makit.optimize.beams", "multibeam_ao"),
    ("optimize.widebeam_ao", "makit.optimize.beams", "widebeam_ao"),
    ("sensing.simulate_snapshots", "makit.sensing", "simulate_snapshots"),
    ("sensing.crb_1d", "makit.sensing", "crb_1d"),
    ("sensing.music_1d", "makit.sensing", "music_1d"),
    ("estimate.collect_measurements", "makit.estimate", "collect_measurements"),
    ("estimate.omp", "makit.estimate", "omp"),
    ("estimate.omp_successive", "makit.estimate", "omp_successive"),
    ("estimate.omp_joint", "makit.estimate", "omp_joint"),
    ("estimate.reconstruct_mapping", "makit.estimate", "reconstruct_mapping"),
    ("experiments.run_experiment", "makit.experiments", "run_experiment"),
    ("experiments.emit", "makit.experiments", "emit"),
    ("cli.main", "makit.cli", "main"),
)

# Counters read from return values: optimizer effort and estimator health.
ITERATION_COUNTERS = ("optimize.mimo_position_ao", "optimize.multiuser_position_opt",
                      "optimize.isac_constrained_opt", "optimize.sensing_2d_ao",
                      "optimize.multibeam_ao", "optimize.widebeam_ao")
FRI_FLAGS = ("converged", "rank_deficient", "poor_fit")
ERROR_COUNTERS = ("beamforming.zf_combiner",)


def resolve(module: str, qualname: str):
    """(owner, attribute, object) for a dotted qualified name inside a module."""
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0


class Tracer:
    """Wraps the target functions and accumulates per-function span statistics."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter, package: str = "makit"):
        self.targets = tuple(targets)
        self.package = package
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name, _, _ in self.targets}
        self.counters: dict[str, int] = defaultdict(int)
        self._clock = clock
        self._open: list[float] = []  # child time covered, one entry per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def bindings(self, fn) -> list[tuple[object, str]]:
        """Every (owner, attribute) in the package whose value is ``fn``."""
        found = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package
                                   or modname.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    found.append((mod, attr))
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, module, qualname in self.targets:
            owner, attr, fn = resolve(module, qualname)
            wrapper = self._wrap(name, fn)
            sites = self.bindings(fn)
            if isinstance(owner, type):  # methods are bound on their class only
                sites.append((owner, attr))
            for site_owner, site_attr in sites:
                self._patches.append((site_owner, site_attr, fn))
                setattr(site_owner, site_attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        open_spans = self._open
        clock = self._clock
        observe = self._observer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                duration = clock() - start
                children = open_spans.pop()
                stats.calls += 1
                stats.self_s += duration - children
                if open_spans:
                    open_spans[-1] += duration
            if observe is not None:
                observe(out)
            return out

        return traced

    def _observer(self, name: str):
        counters = self.counters
        if name in ITERATION_COUNTERS:
            def observe(report):
                counters[name + ".iterations"] += int(report.iterations)
            return observe
        if name in ("estimate.omp_successive", "estimate.omp_joint"):
            def observe(fri):
                for flag in FRI_FLAGS:
                    counters["estimate.fri." + flag] += int(bool(getattr(fri, flag)))
            return observe
        return None

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in self.targets:
            s = self.stats[name]
            out[name + ".calls"] = (s.calls, "count")
            out[name + ".self_s"] = (s.self_s, "s")
            if name in ERROR_COUNTERS:
                out[name + ".errors"] = (s.errors, "count")
            if name in ITERATION_COUNTERS:
                out[name + ".iterations"] = (self.counters[name + ".iterations"], "count")
        for flag in FRI_FLAGS:
            out["estimate.fri." + flag] = (self.counters["estimate.fri." + flag], "count")
        return out

    def total_self_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())
