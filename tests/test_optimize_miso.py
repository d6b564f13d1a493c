import itertools

import numpy as np
import pytest

from makit.channel import gen_scenario
from makit.experiments import _miso_line_channel
from makit.optimize import SampledLine, graph_opt_miso
from oracles import scalar_from_channel, scalar_miso_line_channel


def brute_force_best(values, n, a_min):
    """Exhaustive enumeration over all feasible index subsets."""
    m = len(values)
    best = -np.inf
    best_idx = None
    for combo in itertools.combinations(range(m), n):
        if all(combo[i + 1] - combo[i] >= a_min for i in range(n - 1)):
            s = sum(values[i] ** 2 for i in combo)
            if s > best + 1e-15:
                best = s
                best_idx = combo
    return best, best_idx


def test_single_antenna_takes_argmax():
    line = SampledLine(length=6.0, amplitudes=[1.0, 3.0, 2.0], d_min=0.0)
    rep = graph_opt_miso(line, 1)
    assert rep.extra["indices"].tolist() == [1]
    assert abs(rep.best_score - 9.0) < 1e-12


def test_worked_instance():
    # amplitudes (5,1,1,4,1,2), two antennas, index gap 3: samples 1 and 4
    # (1-based) are optimal with power 5^2 + 4^2 ... using amplitude-squared
    # values (25, 1, 1, 16, 1, 4) the best total is 41
    amps = np.sqrt([5.0, 1.0, 1.0, 4.0, 1.0, 2.0])
    line = SampledLine(length=6.0, amplitudes=amps, d_min=3.0)
    assert line.a_min == 3
    rep = graph_opt_miso(line, 2)
    assert rep.extra["indices"].tolist() == [0, 3]
    assert abs(rep.best_score - 9.0) < 1e-12


def test_matches_brute_force_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(300):
        m = int(rng.integers(4, 21))
        n = int(rng.integers(1, 5))
        a_min_idx = int(rng.integers(1, 4))
        if m - (a_min_idx - 1) * (n - 1) < n:
            continue
        values = rng.uniform(0.1, 2.0, m)
        line = SampledLine(length=float(m), amplitudes=values, d_min=float(a_min_idx))
        rep = graph_opt_miso(line, n)
        best, _ = brute_force_best(values, n, a_min_idx)
        assert abs(rep.best_score - best) < 1e-10


def test_lexicographic_tie_break():
    # two optimal selections; the smaller index tuple must win
    amps = np.array([1.0, 1.0, 1.0, 1.0])
    line = SampledLine(length=4.0, amplitudes=amps, d_min=2.0)
    rep = graph_opt_miso(line, 2)
    assert rep.extra["indices"].tolist() == [0, 2]


def test_infeasible_raises():
    line = SampledLine(length=4.0, amplitudes=np.ones(4), d_min=3.0)
    with pytest.raises(ValueError):
        graph_opt_miso(line, 3)


def test_positions_respect_spacing():
    rng = np.random.default_rng(1)
    line = SampledLine(length=8.0, amplitudes=rng.uniform(0.1, 1.0, 32), d_min=1.1)
    rep = graph_opt_miso(line, 4)
    gaps = np.diff(rep.best_placement)
    assert np.all(gaps >= 1.1 - 1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_from_channel_matches_its_scalar_oracle(seed):
    c = np.random.default_rng(seed).standard_normal(4)
    channel = lambda x: (c[0] + 1j * c[1]) * x ** 2 + (c[2] - 1j * c[3]) * x  # elementwise
    got = SampledLine.from_channel(channel, 5.0, 40, 0.5)
    want = scalar_from_channel(channel, 5.0, 40, 0.5)
    # the channels are equal bitwise; np.abs of an array and Python's abs of one complex
    # value round differently, by up to 2 ulp
    np.testing.assert_array_max_ulp(got.amplitudes, want.amplitudes, maxulp=2)
    assert np.array_equal(graph_opt_miso(got, 3).extra["indices"],
                          graph_opt_miso(want, 3).extra["indices"])


def test_from_channel_nan_is_never_picked():
    line = SampledLine.from_channel(lambda x: np.where(x > 2.0, np.nan, x), 4.0, 8, 0.0)
    rep = graph_opt_miso(line, 2)
    assert rep.extra["indices"].tolist() == [2, 3] and rep.best_score == 1.5 ** 2 + 2.0 ** 2
    assert graph_opt_miso(line, 5).best_score == -np.inf  # only 4 samples are finite


def test_from_channel_refuses_a_scalar_channel():
    with pytest.raises(ValueError, match="must return shape"):
        SampledLine.from_channel(lambda x: x[0], 4.0, 8, 0.5)


@pytest.mark.parametrize("seed", range(6))
def test_miso_line_channel_keeps_its_formula(seed):
    sc = gen_scenario(seed, n_paths=2 + seed % 4, kappa=1.0)
    xs = np.linspace(0.0, 6.0, 50)
    got = _miso_line_channel(sc)(xs)
    want = np.array([scalar_miso_line_channel(sc)(x) for x in xs])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
