import logging

import numpy as np
import pytest

from makit.beamforming import mimo_capacity, multiuser_channels, user_sinr_and_rates, zf_combiner
from makit.channel import (PathSet, Scenario, channel_mimo, gen_scenario, redraw_prm_phases,
                           sample_directions)
from makit.errors import InfeasibleError
from makit.geometry import MoveRegion, validate_placement
from makit.optimize import (SampledLine, gma_opt, graph_opt_miso, isac_constrained_opt,
                            mimo_position_ao, multiuser_position_opt, sensing_2d_ao)
from makit.optimize import mimo as mimo_module

LAM = 1.0


def square_region(side, d_min=0.5):
    return MoveRegion.box((side, side, 0.0), d_min=d_min)


def upa(side, spacing, n):
    rows = int(round(np.sqrt(n)))
    return np.asarray([(i * spacing, j * spacing, 0.0)
                       for j in range(rows) for i in range(rows)], dtype=float)


def test_mimo_single_path_exits_after_one_sweep():
    sc = gen_scenario(0, n_paths=1, wavelength=LAM, kappa=np.inf)
    region = square_region(2.0)
    init = upa(2.0, 0.5, 4)
    rep = mimo_position_ao(sc, region, region, init, init, 10.0, 1.0)
    assert rep.iterations <= 2
    # single-path capacity does not depend on the placement
    caps = [mimo_capacity(channel_mimo(upa(2.0, s, 4), upa(2.0, s, 4), sc), 10.0, 1.0)
            for s in (0.5, 0.7, 1.0)]
    assert np.ptp(caps) < 1e-9


def test_mimo_ao_beats_dense_baseline():
    region = square_region(3.0)
    dense = upa(3.0, 0.5, 4)
    wins = 0
    for seed in range(5):
        sc = gen_scenario(seed, n_paths=4, wavelength=LAM, kappa=1.0)
        base = mimo_capacity(channel_mimo(dense, dense, sc), 100.0, 1.0)
        rep = mimo_position_ao(sc, region, region, dense, dense, 100.0, 1.0, max_sweeps=10)
        assert rep.best_score >= base - 1e-12
        assert np.all(np.diff(rep.trace) >= -1e-12)
        assert validate_placement(rep.extra["tx_positions"], region).ok
        assert validate_placement(rep.extra["rx_positions"], region).ok
        if rep.best_score > base + 1e-6:
            wins += 1
    assert wins >= 4  # the optimizer actually moves the antennas


def test_mimo_statistical_mode_agrees_with_instantaneous_for_pure_los():
    # with all power in the leading path, phase redraws leave |entries| fixed
    # and capacity depends only on geometry, so both modes match
    sc = gen_scenario(3, n_paths=1, wavelength=LAM, kappa=np.inf)
    ensemble = [redraw_prm_phases(sc, s) for s in range(6)]
    region = square_region(2.0)
    init = upa(2.0, 0.5, 4)
    rep_i = mimo_position_ao(sc, region, region, init, init, 10.0, 1.0, max_sweeps=4)
    rep_s = mimo_position_ao(ensemble, region, region, init, init, 10.0, 1.0,
                             mode="statistical", max_sweeps=4)
    assert abs(rep_i.best_score - rep_s.best_score) < 1e-9
    assert np.allclose(rep_i.best_placement, rep_s.best_placement)


def test_mimo_infeasible_init():
    sc = gen_scenario(4, n_paths=3, wavelength=LAM)
    region = square_region(2.0)
    bad = np.zeros((4, 3))  # all four antennas stacked at the origin
    with pytest.raises(InfeasibleError):
        mimo_position_ao(sc, region, region, bad, upa(2.0, 0.5, 4), 10.0, 1.0)


def make_users(seed, k, l=4, kappa=1.0):
    rng = np.random.default_rng(seed)
    return [gen_scenario(rng, n_paths=l, wavelength=LAM, kappa=kappa) for _ in range(k)]


def test_mimo_ascent_scores_each_antenna_in_at_most_three_calls(monkeypatch):
    # per antenna per sweep: one call for the derivative probes and at most two
    # for the backtracking steps (0-3, then 4-19)
    sizes = []
    capacity = mimo_module._ensemble_capacity

    def counted(tx, rx, *args):
        out = capacity(tx, rx, *args)
        sizes.append(np.size(out))
        return out

    monkeypatch.setattr(mimo_module, "_ensemble_capacity", counted)
    sc = gen_scenario(1, n_paths=4, wavelength=LAM, kappa=1.0)
    region = square_region(3.0)
    init = upa(3.0, 0.5, 4)
    rep = mimo_position_ao(sc, region, region, init, init, 10.0, 1.0, max_sweeps=3)
    assert rep.iterations == 3 and rep.stop_reason == "max_sweeps"
    assert len(sizes) <= 1 + 3 * rep.iterations * (len(init) + len(init))
    assert rep.evaluations == sum(sizes) > len(sizes)


def test_placement_reports_evaluations_and_stop_reason(caplog):
    region = square_region(3.0)
    init = upa(3.0, 0.5, 4)
    sc = gen_scenario(1, n_paths=4, wavelength=LAM, kappa=1.0)
    quiet = mimo_position_ao(sc, region, region, init, init, 10.0, 1.0, max_sweeps=1)
    with caplog.at_level(logging.DEBUG, logger="makit"):
        capped = mimo_position_ao(sc, region, region, init, init, 10.0, 1.0, max_sweeps=1)
    msgs = [r.getMessage() for r in caplog.records if r.name == "makit.optimize.search"]
    assert any("stopped at max_sweeps=1" in m for m in msgs)
    assert capped.trace == quiet.trace and capped.evaluations == quiet.evaluations
    assert capped.stop_reason == "max_sweeps" and capped.evaluations > 1
    stalled = mimo_position_ao(sc, region, region, init, init, 10.0, 1.0, max_sweeps=30)
    assert stalled.stop_reason == "stalled" and stalled.iterations < 30
    assert stalled.trace[-1] == stalled.trace[-2]

    users = make_users(7, 2, l=3)
    inner = []
    for mode, eta in (("rate", None), ("power", 4.0)):
        rep = multiuser_position_opt(users, square_region(2.0), upa(2.0, 0.5, 4), 50.0, 1.0,
                                     mode=mode, eta=eta, max_sweeps=1, bisection_iters=2)
        assert rep.stop_reason == "max_sweeps" and rep.evaluations > 0
        inner.append(rep.evaluations)
    assert inner[1] > inner[0]  # the power-centric search sums its inner ascents

    tx = upa(3.0, 0.5, 4)
    for mode, threshold in (("com", np.inf), ("sen", 0.0)):
        rep = isac_constrained_opt(sc, tx, region, init, 10.0, 1.0, mode=mode,
                                   threshold=threshold, max_sweeps=30)
        assert rep.stop_reason in ("stalled", "max_sweeps") and rep.evaluations > 0


def test_multiuser_single_user_matches_line_optimum():
    users = make_users(5, 1, l=4)
    m, n = 64, 4
    aperture = 6.0
    region = MoveRegion.box((aperture, 0.0, 0.0), d_min=0.5)

    def h_at(x):
        return complex(multiuser_channels(np.array([[x, 0.0, 0.0]]), users)[0, 0])

    line = SampledLine.from_channel(h_at, aperture, m, 0.5)
    graph = graph_opt_miso(line, n)
    pos0 = np.zeros((n, 3))
    pos0[:, 0] = graph.best_placement
    rep = multiuser_position_opt(users, region, pos0, 10.0, 1.0, combiner="zf",
                                 utility="sum", budget="sum", max_sweeps=6)
    assert np.all(np.diff(rep.trace) >= -1e-12)
    rate_graph = np.log2(1.0 + 10.0 * graph.best_score)
    assert rep.best_score >= rate_graph - 1e-9  # single user: sum power on one stream
    assert rep.best_score <= rate_graph * 1.1 + 0.5  # continuum refinement stays close


def test_multiuser_orthogonal_users_no_zf_loss():
    # two single-path users whose steering vectors on the array are orthogonal
    k_a = np.array([[1.0, 0.0, 0.0]])
    k_b = np.array([[0.0, 1.0, 0.0]])
    users = [
        Scenario(wavelength=LAM, tx_paths=PathSet(np.array([[1.0, 0, 0]])),
                 rx_paths=PathSet(k), prm=np.array([[1.0 + 0j]]))
        for k in (k_a, k_b)
    ]
    pos = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    h = multiuser_channels(pos, users)
    assert abs(h[:, 0].conj() @ h[:, 1]) < 1e-12
    w = zf_combiner(h)
    p = np.array([2.0, 2.0])
    _, rates = user_sinr_and_rates(h, w, p, 1.0)
    for k in range(2):
        single = np.log2(1 + p[k] * np.linalg.norm(h[:, k]) ** 2)
        assert abs(rates[k] - single) < 1e-9


def test_multiuser_statistical_close_to_instantaneous_for_strong_los():
    users = make_users(6, 3, l=4, kappa=100.0)
    region = square_region(3.0)
    init = upa(3.0, 0.5, 4)
    power, s2 = 10.0, 1.0
    rep_inst = multiuser_position_opt(users, region, init, power, s2, max_sweeps=6)
    ensembles = [[redraw_prm_phases(u, 100 + d * 7 + i) for i, u in enumerate(users)]
                 for d in range(20)]
    rep_stat = multiuser_position_opt(users, region, init, power, s2, ensembles=ensembles,
                                      max_sweeps=6)

    def mean_rate(pos):
        vals = []
        for draw in ensembles:
            h = multiuser_channels(pos, draw)
            w = zf_combiner(h)
            _, rates = user_sinr_and_rates(h, w, np.full(3, power / 3), s2)
            vals.append(rates.sum())
        return float(np.mean(vals))

    stat_perf = mean_rate(rep_stat.best_placement)
    inst_perf = mean_rate(rep_inst.best_placement)
    # statistical placement generalizes at least as well across the draws
    assert stat_perf >= 0.9 * inst_perf


def test_multiuser_power_centric_bisection():
    users = make_users(7, 2, l=3)
    region = square_region(2.0)
    init = upa(2.0, 0.5, 4)
    eta = 4.0
    rep = multiuser_position_opt(users, region, init, 50.0, 1.0, mode="power", eta=eta,
                                 utility="sum", budget="sum", max_sweeps=3,
                                 bisection_iters=10)
    assert rep.extra["achieved_utility"] >= eta - 1e-9
    assert rep.best_score <= 50.0


def test_multiuser_power_centric_infeasible_eta():
    users = make_users(8, 2, l=3)
    region = square_region(2.0)
    init = upa(2.0, 0.5, 4)
    with pytest.raises(InfeasibleError):
        multiuser_position_opt(users, region, init, 1e-6, 1e6, mode="power", eta=1e9,
                               max_sweeps=1, bisection_iters=3)


def test_isac_unconstrained_threshold_matches_capacity_opt():
    sc = gen_scenario(9, n_paths=4, wavelength=LAM, kappa=1.0)
    region = square_region(3.0)
    tx = upa(3.0, 0.5, 4)
    rx0 = upa(3.0, 0.5, 4)
    rep_isac = isac_constrained_opt(sc, tx, region, rx0, 10.0, 1.0, mode="com",
                                    threshold=np.inf, max_sweeps=6)
    rep_mimo = mimo_position_ao(sc, MoveRegion.grid(tx, d_min=0.0), region, tx, rx0,
                                10.0, 1.0, max_sweeps=6)
    assert rep_isac.best_score >= rep_mimo.best_score - 0.15


def test_isac_tight_threshold_pins_sensing_optimum():
    sc = gen_scenario(10, n_paths=4, wavelength=LAM, kappa=1.0)
    region = square_region(3.0)
    tx = upa(3.0, 0.5, 4)
    crb_opt = sensing_2d_ao(4, (3.0, 3.0), 0.5, metric="max")
    rx0 = np.column_stack([crb_opt.best_placement, np.zeros(4)])
    rep = isac_constrained_opt(sc, tx, region, rx0, 10.0, 1.0, mode="com",
                               threshold=crb_opt.best_score * (1 + 1e-9), max_sweeps=4)
    assert rep.extra["crb"] <= crb_opt.best_score * (1 + 1e-6)


def test_isac_infeasible_threshold():
    sc = gen_scenario(11, n_paths=3, wavelength=LAM)
    region = square_region(2.0)
    tx = upa(2.0, 0.5, 4)
    rx0 = upa(2.0, 0.5, 4)
    crb_opt = sensing_2d_ao(4, (2.0, 2.0), 0.5, metric="max")
    with pytest.raises(InfeasibleError):
        isac_constrained_opt(sc, tx, region, rx0, 10.0, 1.0, mode="com",
                             threshold=crb_opt.best_score * 0.5)


def test_isac_compliant_start_skips_sensing_optimizer(monkeypatch):
    import makit.optimize.mimo as mimo_mod

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sensing_2d_ao(*args, **kwargs)

    monkeypatch.setattr(mimo_mod, "sensing_2d_ao", counted)
    sc = gen_scenario(10, n_paths=3, wavelength=LAM, kappa=1.0)
    region = square_region(2.0)
    tx = upa(2.0, 0.5, 4)
    rx0 = upa(2.0, 1.5, 4)  # a spread start: its CRB meets the bound below
    bound = 2.0 * sensing_2d_ao(4, (2.0, 2.0), 0.5, metric="max").best_score
    rep = isac_constrained_opt(sc, tx, region, rx0, 10.0, 1.0, mode="com", threshold=bound,
                               max_sweeps=1)
    assert calls == [] and rep.extra["crb"] <= bound
    # a start above the bound falls back to the sensing optimum
    isac_constrained_opt(sc, tx, region, upa(2.0, 0.5, 4), 10.0, 1.0, mode="com",
                         threshold=bound, max_sweeps=1)
    assert len(calls) == 1


@pytest.mark.parametrize("mode, threshold", [("com", np.inf), ("sen", 0.0)])
def test_isac_infeasible_start_raises(mode, threshold):
    sc = gen_scenario(13, n_paths=3, wavelength=LAM, kappa=1.0)
    region = square_region(3.0)
    bad = np.array([[0, 0, 0], [0.1, 0, 0], [5, 5, 0], [1, 1, 0]], dtype=float)
    assert not validate_placement(bad, region).ok  # antenna 2 outside, pair (0, 1) too close
    with pytest.raises(InfeasibleError):
        isac_constrained_opt(sc, upa(3.0, 0.5, 4), region, bad, 10.0, 1.0, mode=mode,
                             threshold=threshold, max_sweeps=2)


def test_isac_capacity_nondecreasing_in_threshold():
    sc = gen_scenario(12, n_paths=4, wavelength=LAM, kappa=1.0)
    region = square_region(3.0)
    tx = upa(3.0, 0.5, 4)
    crb_opt = sensing_2d_ao(4, (3.0, 3.0), 0.5, metric="max")
    rx = np.column_stack([crb_opt.best_placement, np.zeros(4)])
    caps = []
    for scale in (1.0, 2.0, 8.0):
        rep = isac_constrained_opt(sc, tx, region, rx, 10.0, 1.0, mode="com",
                                   threshold=crb_opt.best_score * scale, max_sweeps=4)
        rx = rep.best_placement  # warm start keeps the sweep monotone
        caps.append(rep.extra["capacity"])
    assert np.all(np.diff(caps) >= -1e-9)


def test_isac_sensing_centric_mode():
    sc = gen_scenario(13, n_paths=4, wavelength=LAM, kappa=1.0)
    region = square_region(3.0)
    tx = upa(3.0, 0.5, 4)
    rx0 = upa(3.0, 0.5, 4)
    cap0 = mimo_capacity(channel_mimo(tx, rx0, sc), 10.0, 1.0)
    rep = isac_constrained_opt(sc, tx, region, rx0, 10.0, 1.0, mode="sen",
                               threshold=cap0 * 0.5, max_sweeps=4)
    assert rep.extra["capacity"] >= cap0 * 0.5 - 1e-9


def test_gma_opt_dense_limit():
    users = make_users(14, 2, l=3)
    rep = gma_opt(users, aperture=6.0, eta_max=1, n_antennas=4, powers=[1.0, 1.0],
                  wavelength=LAM)
    assert rep.extra["eta"] == 1
    assert np.all(np.diff(rep.trace) >= -1e-12)


def test_gma_opt_single_user_los_flat_in_anchor():
    # single user, single path along the broadside: |h| entries are position
    # independent in magnitude, so the rate is flat in the anchor
    user = [Scenario(wavelength=LAM, tx_paths=PathSet(np.array([[1.0, 0, 0]])),
                     rx_paths=PathSet(np.array([[0.0, 1.0, 0.0]])),
                     prm=np.array([[1.0 + 0j]]))]
    from makit.beamforming import gma_rate
    rates = [gma_rate(x, 2, user, [1.0], 4, LAM, 10.0) for x in (0.0, 1.0, 3.0)]
    assert np.ptp(rates) < 1e-9
    rep = gma_opt(user, aperture=10.0, eta_max=3, n_antennas=4, powers=[1.0],
                  wavelength=LAM)
    assert rep.best_score >= rates[0] - 1e-9


@pytest.mark.parametrize("max_rounds, stop", [(2, "max_sweeps"), (10, "stalled")])
def test_gma_opt_reports_why_it_stopped(max_rounds, stop):
    # both rounds gain; the third gains nothing
    rep = gma_opt(make_users(15, 5, l=4, kappa=10.0), aperture=8.0, eta_max=4, n_antennas=4,
                  powers=np.ones(5), wavelength=LAM, max_rounds=max_rounds)
    assert rep.stop_reason == stop and rep.iterations == min(max_rounds, 3)
    assert np.all(np.diff(rep.trace[:3]) > 0) and rep.trace[-1] == rep.best_score


def test_gma_opt_beats_dense_baseline():
    users = make_users(15, 5, l=4, kappa=10.0)
    powers = np.ones(5)
    from makit.beamforming import gma_rate
    dense = gma_rate(0.0, 1, users, powers, 4, LAM, 8.0)
    rep = gma_opt(users, aperture=8.0, eta_max=4, n_antennas=4, powers=powers,
                  wavelength=LAM)
    assert rep.best_score >= dense - 1e-12
