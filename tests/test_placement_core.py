"""The shared placement ascent against the per-optimizer loops it replaced.

The oracles (in oracles.py) are the earlier implementations.  Each optimizer
ran its own sweep-until-stall loop around a per-antenna sweep, the sweep
evaluated the objective again at its start, and each loop kept its own copy
of the capacity objective and spacing check.  The shared core carries the
current value from one sweep to the next instead.  The objectives are pure
functions of the placement, so placements, scores, traces and iteration
counts must match bitwise.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from makit.beamforming import mimo_capacity
from makit.channel import channel_mimo, gen_scenario, redraw_prm_phases
from makit.errors import InfeasibleError
from makit.geometry import MoveRegion, _close_pairs
from makit.optimize import (isac_constrained_opt, mimo_position_ao, multiuser_position_opt,
                            search, sensing_2d_ao)
from makit.optimize.mimo import _ensemble_capacity
from makit.optimize.search import _ascend, _sweep_antennas
from oracles import ref_isac, ref_mimo, ref_multiuser, ref_sweep, today_sweep_antennas

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


# ---------------------------------------------------------------------------
# steps clipped back onto the moving antenna: the sweep no longer scores them,
# which must change nothing but the count of placements scored

@st.composite
def pinned_ascents(draw):
    """Antennas on faces and corners of a region, under an objective that rises
    outward, so that many backtracking steps clip back onto their antenna."""
    kind = draw(st.sampled_from(["box-3d", "box-planar", "segment", "grid"]))
    d_min = draw(st.sampled_from([0.0, 0.3]))
    n = draw(st.integers(1, 3))
    if kind == "grid":
        pts = [(0.5 * i, 0.5 * j, 0.0) for i in range(4) for j in range(3)]
        reg = MoveRegion.grid(pts, d_min)
        idx = draw(st.lists(st.integers(0, len(pts) - 1), min_size=n, max_size=n, unique=True))
        pos = np.array([pts[k] for k in idx])
    else:
        reg = (MoveRegion.segment(3.0, d_min) if kind == "segment" else
               MoveRegion.box((2.0, 1.0, 0.5) if kind == "box-3d" else (2.0, 2.0, 0.0), d_min))
        hi = np.array([reg.length, 0.0, 0.0]) if kind == "segment" else np.array(reg.extents)
        at = st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95)
        pos = np.array([[draw(at) for _ in range(3)] for _ in range(n)]) * hi
    weight = st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 0.0, 1.0]),
                       st.integers(-14, 1))
    w = np.array([[draw(weight) for _ in range(3)] for _ in range(n)])
    if draw(st.booleans()):  # a bowl around the region's centre
        centre = np.mean(reg.points, axis=0) if kind == "grid" else reg.clip([9.0] * 3) / 2
        w = np.abs(w)

        def value(q):
            return float(np.sum(w * (q - centre) ** 2))
    else:
        def value(q):
            return float(np.sum(w * q))
    fd, step0 = draw(st.sampled_from([1e-4, 5e-3])), draw(st.sampled_from([1e-2, 0.25, 1.0]))
    return reg, pos, lambda q: np.array([value(r) for r in q]), fd, step0


def _counting_spy(score, n, probing):
    """score over a (B, n, 3) stack that records its row counts and asserts that no
    step row holds the moving antenna at its own position."""
    rows = []

    def spy(q):
        rows.append(len(q))
        if not probing["on"]:
            i = (probing["calls"] - 1) % n
            assert not any(r[i].tobytes() == probing["at"] for r in q), "scored a clipped step"
        return score(q)
    return spy, rows


def _probe_watch(probing):
    """Patch the derivative probes, which a sweep takes once per antenna in order, to
    record the moving antenna's position and when the probes are being scored."""
    real = search._fd_gradient

    def watched(f, x, region, fd_step):
        probing.update(on=True, calls=probing["calls"] + 1, at=x.tobytes())
        try:
            return real(f, x, region, fd_step)
        finally:
            probing["on"] = False
    return mock.patch.object(search, "_fd_gradient", watched)


@settings(max_examples=200, deadline=None)
@given(case=pinned_ascents())
def test_sweep_skipping_clipped_back_steps_matches_scoring_them(case):
    reg, start, score, fd, step0 = case
    assume(not _close_pairs(start, reg.d_min).any())
    probing = {"on": False, "calls": 0, "at": b""}
    spy, rows = _counting_spy(score, len(start), probing)
    pos, cur = start, score(start[None])[0]
    with _probe_watch(probing):
        for _ in range(3):  # each sweep from where the last one left off
            got = _sweep_antennas(pos, reg, spy, cur, fd, step0)
            want = today_sweep_antennas(pos, reg, score, cur, fd, step0)
            assert got[0].tobytes() == want[0].tobytes()
            assert float(got[1]).hex() == float(want[1]).hex() and got[2] == want[2]
            pos, cur = got[0], got[1]

        # the ascent counts exactly the rows its objective was given
        rows.clear()
        probing["on"] = True  # its first call scores the start
        _, rep = _ascend([(start, reg)], spy, 3, fd, step0)
    assert rep.evaluations == sum(rows)
    with mock.patch.object(search, "_sweep_antennas", today_sweep_antennas):
        _, ref = _ascend([(start, reg)], score, 3, fd, step0)
    assert rep.best_placement.tobytes() == ref.best_placement.tobytes()
    assert [float(v).hex() for v in rep.trace] == [float(v).hex() for v in ref.trace]
    assert (rep.iterations, rep.stop_reason) == (ref.iterations, ref.stop_reason)
    assert rep.evaluations <= ref.evaluations


def test_corner_antenna_pushed_outward_takes_no_step_call():
    # every step from the corner of the square clips back onto it, so of the 4 probe
    # rows and 20 step rows that scoring every spaced step takes, only the probes remain
    reg = MoveRegion.box((2.0, 2.0, 0.0))
    calls = []

    def objective(q):
        calls.append(len(q))
        return q[:, 0, 0] + q[:, 0, 1]

    _, rep = _ascend([([2.0, 2.0, 0.0], reg)], objective, 5, 5e-3, 0.25)
    assert calls == [1, 4] and rep.evaluations == 5
    assert rep.stop_reason == "stalled" and rep.iterations == 1
    with mock.patch.object(search, "_sweep_antennas", today_sweep_antennas):
        _, ref = _ascend([([2.0, 2.0, 0.0], reg)], objective, 5, 5e-3, 0.25)
    assert ref.evaluations == 25 and ref.trace == rep.trace


def test_a_step_that_moves_the_antenna_by_a_hair_is_still_scored():
    # from the origin corner the objective pushes outward on x and z and pulls 1e-9 along
    # y, so every step moves the antenna by under 1e-11 and gains on a value of 0: only a
    # bitwise compare keeps such a step
    reg, w = MoveRegion.box((2.0, 1.0, 0.5)), np.array([-1.0, 1e-9, -1.0])

    def score(q):
        return (q[:, 0] * w).sum(axis=1)

    pos = np.zeros((1, 3))
    got = _sweep_antennas(pos, reg, score, 0.0, 5e-3, 1e-2)
    want = today_sweep_antennas(pos, reg, score, 0.0, 5e-3, 1e-2)
    assert got[2] and 0 < got[0][0, 1] < 1e-11
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
