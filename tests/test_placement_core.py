"""The shared placement ascent against the per-optimizer loops it replaced.

The oracles (in oracles.py) are the earlier implementations.  Each optimizer
ran its own sweep-until-stall loop around a per-antenna sweep, the sweep
evaluated the objective again at its start, and each loop kept its own copy
of the capacity objective and spacing check.  The shared core carries the
current value from one sweep to the next instead.  The objectives are pure
functions of the placement, so placements, scores, traces and iteration
counts must match bitwise.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from makit.beamforming import mimo_capacity
from makit.channel import channel_mimo, gen_scenario, redraw_prm_phases
from makit.errors import InfeasibleError
from makit.geometry import MoveRegion
from makit.optimize import (isac_constrained_opt, mimo_position_ao, multiuser_position_opt,
                            sensing_2d_ao)
from makit.optimize.mimo import _ensemble_capacity
from makit.optimize.search import _sweep_antennas
from oracles import ref_isac, ref_mimo, ref_multiuser, ref_sweep

LAM = 1.0
SIDE = 2.0
D_MIN = 0.5
POWER = 10.0
SIGMA2 = 1.0


# ---------------------------------------------------------------------------
# shared setup and comparison

def upa(spacing):
    return np.asarray([(i * spacing, j * spacing, 0.0) for j in range(2) for i in range(2)],
                      dtype=float)


def start(sparse):
    """2x2 planar start at lam/2 (dense) or 2 lam (sparse, spanning the region)."""
    return upa(SIDE if sparse else LAM / 2)


def region():
    return MoveRegion.box((SIDE, SIDE, 0.0), d_min=D_MIN)


def assert_same(rep, ref):
    placement, score, trace, iterations = ref
    assert rep.best_placement.dtype == placement.dtype
    assert np.array_equal(rep.best_placement, placement)
    assert float(rep.best_score).hex() == float(score).hex()
    assert [float(v).hex() for v in rep.trace] == [float(v).hex() for v in trace]
    assert rep.iterations == iterations


draw = dict(seed=st.integers(0, 2 ** 16), n_paths=st.integers(1, 4),
            kappa=st.floats(0.0, 20.0) | st.just(np.inf), max_sweeps=st.integers(1, 2),
            sparse=st.booleans())


# ---------------------------------------------------------------------------
# properties

# the sweep scores backtracking steps 0-3 in one call and 4-19 in another; see
# test_pinned_sweeps_reach_both_backtracking_chunks
LATE_STEP = dict(statistical=False, fixed_tx=False, seed=8, n_paths=2, kappa=1.0, max_sweeps=1,
                 sparse=False)  # a transmit antenna accepts step 6
NO_STEP = dict(LATE_STEP, seed=1)  # every antenna rejects all 20 steps


@settings(max_examples=20, deadline=None)
@given(statistical=st.booleans(), fixed_tx=st.booleans(), **draw)
@example(**LATE_STEP)
@example(**NO_STEP)
def test_mimo_position_ao_matches_reference(statistical, fixed_tx, seed, n_paths, kappa,
                                            max_sweeps, sparse):
    sc = gen_scenario(seed, n_paths=n_paths, wavelength=LAM, kappa=kappa)
    ensemble = [redraw_prm_phases(sc, seed + d) for d in range(2)] if statistical else [sc]
    reg = region()
    t0, r0 = upa(LAM / 2), start(sparse)
    # a transmit region made of its start points never moves, so only the receive block can
    tx_reg = MoveRegion.grid(t0) if fixed_tx else reg
    rep = mimo_position_ao(ensemble if statistical else sc, tx_reg, reg, t0, r0, POWER, SIGMA2,
                           mode="statistical" if statistical else "instantaneous",
                           max_sweeps=max_sweeps)
    assert_same(rep, ref_mimo(ensemble, tx_reg, reg, t0, r0, max_sweeps, POWER, SIGMA2))


@settings(max_examples=20, deadline=None)
@given(power_mode=st.booleans(), utility=st.sampled_from(["sum", "min"]), **draw)
def test_multiuser_position_opt_matches_reference(power_mode, utility, seed, n_paths, kappa,
                                                  max_sweeps, sparse):
    rng = np.random.default_rng(seed)
    users = [gen_scenario(rng, n_paths=n_paths, wavelength=LAM, kappa=kappa) for _ in range(2)]
    reg = region()
    r0 = start(sparse)
    mode, eta = ("power", 1.0) if power_mode else ("rate", None)
    try:
        ref = ref_multiuser([users], reg, r0, utility, mode, eta, max_sweeps, POWER, SIGMA2)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            multiuser_position_opt(users, reg, r0, POWER, SIGMA2, utility=utility, mode=mode,
                                   eta=eta, max_sweeps=max_sweeps, bisection_iters=3)
        return
    rep = multiuser_position_opt(users, reg, r0, POWER, SIGMA2, utility=utility, mode=mode,
                                 eta=eta, max_sweeps=max_sweeps, bisection_iters=3)
    assert_same(rep, ref)


@settings(max_examples=16, deadline=None)
@given(sen=st.booleans(), slack=st.sampled_from([1.0, 1.02, 1.5, 4.0]), **draw)
# a CRB bound just above the optimum: some probes leave it and score -inf
@example(sen=False, slack=1.02, seed=0, n_paths=2, kappa=1.0, max_sweeps=2, sparse=False)
def test_isac_constrained_opt_matches_reference(sen, slack, seed, n_paths, kappa, max_sweeps,
                                                sparse):
    sc = gen_scenario(seed, n_paths=n_paths, wavelength=LAM, kappa=kappa)
    reg = region()
    tx, r0 = upa(LAM / 2), start(sparse)
    if sen:  # capacity target at or below the start's, so always reachable
        mode = "sen"
        threshold = mimo_capacity(channel_mimo(tx, r0, sc), POWER, SIGMA2) / slack
    else:  # CRB bound a factor above the sensing optimum; the dense start may violate it
        mode = "com"
        threshold = sensing_2d_ao(4, (SIDE, SIDE), D_MIN, metric="max").best_score * slack
    rep = isac_constrained_opt(sc, tx, reg, r0, POWER, SIGMA2, mode=mode, threshold=threshold,
                               max_sweeps=max_sweeps)
    assert_same(rep, ref_isac([sc], tx, reg, r0, mode, threshold, max_sweeps, POWER, SIGMA2))


@pytest.mark.parametrize("case, covered", [
    (LATE_STEP, lambda steps: any(j is not None and j >= 4 for j in steps)),
    (NO_STEP, lambda steps: all(j is None for j in steps)),
], ids=["accepts-step-4-19", "rejects-every-step"])
def test_pinned_sweeps_reach_both_backtracking_chunks(case, covered):
    sc = gen_scenario(case["seed"], n_paths=case["n_paths"], wavelength=LAM, kappa=case["kappa"])
    reg, tx, rx = region(), upa(LAM / 2), start(case["sparse"])
    steps = []
    want = ref_sweep(tx, reg, lambda t: mimo_capacity(channel_mimo(t, rx, sc), POWER, SIGMA2),
                     5e-3 * LAM, 0.25 * LAM, steps)
    assert covered(steps)
    got = _sweep_antennas(tx, reg, lambda q: _ensemble_capacity(q, rx, [sc], POWER, SIGMA2),
                          mimo_capacity(channel_mimo(tx, rx, sc), POWER, SIGMA2),
                          5e-3 * LAM, 0.25 * LAM)
    assert np.array_equal(got[0], want[0])
    assert float(got[1]).hex() == float(want[1]).hex()
    assert got[2] == want[2]
