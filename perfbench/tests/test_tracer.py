"""Tracer installation, self-time accounting, and the traced run's totals."""

import dataclasses
import sys
import types

import numpy as np
import pytest

import makit
import makit.cli
from makit.channel import gen_scenario
from makit.geometry import MoveRegion

import run
from tracer import TARGETS, Tracer, resolve
from workloads import WORKLOADS


def _makit_bindings():
    """Identity snapshot of every attribute of every loaded makit module."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "makit" or name.startswith("makit.")):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
    snap[("MoveRegion", "clip")] = MoveRegion.__dict__["clip"]
    return snap


def test_install_rebinds_every_binding_and_uninstall_restores_identity():
    originals = {name: resolve(module, qual)[2] for name, module, qual in TARGETS}
    before = _makit_bindings()
    tracer = Tracer()
    # bindings outside the home module that a home-module-only patch would miss
    assert (makit.optimize.mimo, "water_filling") in tracer.bindings(
        originals["beamforming.water_filling"])
    assert (makit.experiments, "channel_mimo") in tracer.bindings(
        originals["channel.channel_mimo"])
    assert (makit.experiments, "prm_6dma") in tracer.bindings(originals["channel.prm_6dma"])
    assert (makit.channel, "frv_rx") in tracer.bindings(originals["channel.frv_tx"])
    assert (makit.optimize, "isac_constrained_opt") in tracer.bindings(
        originals["optimize.isac_constrained_opt"])

    tracer.install()
    try:
        for name, fn in originals.items():
            assert tracer.bindings(fn) == [], f"{name} still bound unwrapped"
        for (modname, attr), value in before.items():
            if any(value is fn for fn in originals.values()):
                owner = MoveRegion if modname == "MoveRegion" else sys.modules[modname]
                assert getattr(owner, attr).__wrapped__ is value
        assert makit.channel.frv_rx is makit.channel.frv_tx
    finally:
        tracer.uninstall()

    after = _makit_bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, f"{key} not restored"


class TickClock:
    """Advances by a set amount each time it is read."""

    def __init__(self):
        self.now = 0.0
        self.step = 1.0

    def __call__(self):
        self.now += self.step
        return self.now


SYNTHETIC = '''
def leaf(clock, cost, fail=False):
    clock.now += cost
    if fail:
        raise ValueError("rank deficient")
    return cost

def middle(clock):
    clock.now += 2.0
    leaf(clock, 3.0)
    clock.now += 0.5
    try:
        leaf(clock, 1.0, fail=True)
    except ValueError:
        pass
    return 0

def root(clock):
    clock.now += 1.0
    middle(clock)
    leaf(clock, 4.0)
    return 0
'''


@pytest.fixture
def synthetic_package():
    pkg = types.ModuleType("synthpkg")
    layer = types.ModuleType("synthpkg.layer")
    exec(SYNTHETIC, layer.__dict__)
    pkg.leaf = layer.leaf  # a re-export, like makit.optimize's
    sys.modules["synthpkg"] = pkg
    sys.modules["synthpkg.layer"] = layer
    yield layer
    del sys.modules["synthpkg"], sys.modules["synthpkg.layer"]


def test_self_time_on_synthetic_nested_spans(synthetic_package):
    clock = TickClock()
    clock.step = 0.0  # time passes only where the synthetic code says so
    targets = [(n, "synthpkg.layer", n) for n in ("root", "middle", "leaf")]
    with Tracer(targets, clock=clock, package="synthpkg") as tracer:
        synthetic_package.root(clock)
    stats = tracer.stats
    assert (stats["root"].calls, stats["middle"].calls, stats["leaf"].calls) == (1, 1, 3)
    assert stats["leaf"].self_s == pytest.approx(3.0 + 1.0 + 4.0)
    assert stats["leaf"].errors == 1
    assert stats["middle"].self_s == pytest.approx(2.5)
    assert stats["root"].self_s == pytest.approx(1.0)
    assert tracer.total_self_s() == pytest.approx(clock.now)
    assert sys.modules["synthpkg"].leaf is synthetic_package.leaf


def test_self_time_of_real_nested_optimizers():
    # Each span reads the clock twice, so with a clock that ticks once per
    # read a span's self time is 1 + its number of direct traced children,
    # and the self times of one root call sum to 2 * (spans) - 1.
    clock = TickClock()
    sc = gen_scenario(3, n_paths=3, kappa=1.0)
    region = MoveRegion.box((2.0, 2.0, 0.0), d_min=0.5)
    tx = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    rx0 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    with Tracer(clock=clock) as tracer:
        makit.optimize.isac_constrained_opt(sc, tx, region, rx0, 10.0, 1.0, threshold=1e9,
                                            max_sweeps=1)
    stats = tracer.stats
    spans = sum(s.calls for s in stats.values())
    assert stats["optimize.isac_constrained_opt"].calls == 1
    assert stats["optimize.sensing_2d_ao"].calls >= 1
    assert stats["optimize.crb_metric_2d"].calls > stats["optimize.sensing_2d_ao"].calls
    assert tracer.total_self_s() == 2 * spans - 1
    # leaves: self time equals their call count
    for leaf in ("optimize.crb_metric_2d", "beamforming.water_filling", "channel.frm",
                 "geometry.MoveRegion.clip"):
        assert stats[leaf].self_s == stats[leaf].calls, leaf
    # sensing_2d_ao's traced children are crb_metric_2d calls, and isac makes its own too
    sensing = stats["optimize.sensing_2d_ao"]
    assert 0 < sensing.self_s - sensing.calls < stats["optimize.crb_metric_2d"].calls
    assert stats["optimize.isac_constrained_opt"].self_s > 1 + sensing.calls


def test_traced_self_time_fits_in_traced_batch(tmp_path):
    workload = dataclasses.replace(WORKLOADS["acquisition"], trace_batches=1)
    runner = run.Runner(workload, 5, tmp_path)
    result = run.run_traced(runner)
    metrics = {k: v for k, (v, _) in result["metrics"].items()}
    assert runner.failed == 0, runner.problems
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < self_total <= metrics["trace.traced_batch_s"]
    assert metrics["beamforming.water_filling.calls"] == 0
    assert metrics["cli.main.calls"] == metrics["experiments.emit.calls"] == len(workload.mix)
