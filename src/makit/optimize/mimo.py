"""Antenna-position optimization for MIMO capacity, multiuser rates, and ISAC trade-offs.

All optimizers run one primitive, `search._ascend`: alternating per-antenna
moves using projected finite-difference gradient steps with backtracking,
where a move is accepted only if it is feasible (region membership plus
minimum spacing) and improves the objective.  Objective traces are therefore
monotone by construction.  Statistical-CSI objectives average the metric over a fixed,
caller-supplied ensemble of channel draws.

Every objective takes the moving block as a (B, N, 3) stack of candidate
placements and returns their (B,) scores, each equal to its placement's score
alone: an antenna's derivative probes are one call, its backtracking steps at most two.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..beamforming import (mimo_capacity, mmse_combiner, multiuser_channels, user_sinr_and_rates,
                           water_filling, zf_combiner)
from ..channel import Scenario, channel_mimo, frm
from ..errors import InfeasibleError
from ..geometry import MoveRegion
from .report import OptReport
from .search import _ascend
from .sensing import crb_metric_2d, sensing_2d_ao

__all__ = ["mimo_position_ao", "multiuser_position_opt", "isac_constrained_opt"]

# finite-difference probe and first trial step, in wavelengths
_FD_STEP = 5e-3
_STEP0 = 0.25


def _ensemble_capacity(tx: np.ndarray, rx: np.ndarray, ensemble, power: float, sigma2: float):
    """MIMO capacity averaged over a fixed list of channel draws; a (B, N, 3)
    stack on either side gives (B,) averages."""
    h = np.stack([channel_mimo(tx, rx, sc) for sc in ensemble], axis=-3)
    # draws on the last, contiguous axis: the mean sums them as it sums a list
    return np.mean(mimo_capacity(h, power, sigma2), axis=-1)


def _run_stats(runs) -> dict:
    """Evaluations and stop reason of several ascents: 'max_sweeps' if any stopped at the cap."""
    capped = any(r.stop_reason == "max_sweeps" for r in runs)
    return {"evaluations": sum(r.evaluations for r in runs),
            "stop_reason": "max_sweeps" if capped else "stalled"}


def _as_ensemble(scenario) -> list[Scenario]:
    return list(scenario) if isinstance(scenario, (list, tuple)) else [scenario]


def mimo_position_ao(scenario, tx_region: MoveRegion, rx_region: MoveRegion,
                     init_tx: np.ndarray, init_rx: np.ndarray, power: float, sigma2: float,
                     mode: str = "instantaneous", max_sweeps: int = 30) -> OptReport:
    """Alternating Tx/Rx antenna-position optimization of MIMO capacity.

    mode 'instantaneous' uses the single scenario; mode 'statistical'
    averages capacity over the supplied scenario ensemble (a fixed list of
    channel draws), which keeps the objective deterministic.
    """
    ensemble = _as_ensemble(scenario)
    if mode == "instantaneous":
        ensemble = ensemble[:1]
    elif mode != "statistical":
        raise ValueError(f"unknown mode {mode!r}")
    lam = ensemble[0].wavelength
    (tx, rx), rep = _ascend(
        [(init_tx, tx_region), (init_rx, rx_region)],
        lambda t, r: _ensemble_capacity(t, r, ensemble, power, sigma2),
        max_sweeps, _FD_STEP * lam, _STEP0 * lam)
    return replace(rep, extra={"tx_positions": tx, "rx_positions": rx})


def _allocate_and_rate(h: np.ndarray, combiner: str, utility: str, budget: str,
                       power: float, sigma2: float):
    """Combiner weights, power allocation, and per-user rates for one (N, K)
    channel or a (..., N, K) stack; a rank-deficient member of a ZF stack gets NaN rates."""
    k = h.shape[-1]
    if combiner == "zf":
        w = zf_combiner(h)
        wn2 = np.linalg.norm(w, axis=-2) ** 2
        gains = 1.0 / (wn2 * sigma2)  # SINR per unit power, interference-free
        if budget == "max":
            p = np.full(gains.shape, power)
        elif utility == "sum":  # a NaN gain (rank-deficient member) is filled as 1; its rates stay NaN
            p = water_filling(np.sqrt(sigma2 * np.where(np.isnan(gains), 1.0, gains)),
                              power, sigma2)
        else:  # equalize SINRs under a sum budget
            inv = 1.0 / gains
            p = power * inv / inv.sum(axis=-1, keepdims=True)
    elif combiner == "mmse":
        p = np.full(h.shape[:-2] + (k,), power if budget == "max" else power / k)
        w = mmse_combiner(h, p, sigma2)
    else:
        raise ValueError(f"unknown combiner {combiner!r}")
    _, rates = user_sinr_and_rates(h, w, p, sigma2)
    return w, p, rates


def _draw_channels(draws):
    """The uplink channels of every draw (a list of user scenarios) as one function
    of base-station positions: (..., N, 3) gives the (..., D, N, K) stack of
    `multiuser_channels` taken draw by draw.

    Each user's Tx response (its antenna sits at the origin) and the stacked
    PRMs of the draws that share its path geometry, as `redraw_prm_phases`
    draws do, are formed here once.  A call then forms one Rx field response
    per geometry and applies its draws in one product (F^H PRM_d) g, the
    association `channel_mimo` uses."""
    users = []  # per user: (draw indices, scenario, PRM stack, Tx response) per geometry
    for draw_users in zip(*draws, strict=True):  # every draw lists the same users
        groups = {}  # (Rx paths, Tx paths, wavelength) -> draw indices
        for d, sc in enumerate(draw_users):
            if sc.prm is None:
                raise ValueError("scenario has no prm")
            groups.setdefault((id(sc.rx_paths), id(sc.tx_paths), sc.wavelength), []).append(d)
        users.append([])
        for idx in groups.values():
            sc = draw_users[idx[0]]
            users[-1].append((idx, sc, np.stack([draw_users[d].prm for d in idx]),
                              frm(np.zeros((1, 3)), sc.tx_paths, sc.wavelength)))

    def channels(positions):
        positions = np.asarray(positions, dtype=float)
        out = []
        for groups in users:
            h = np.empty(positions.shape[:-2] + (len(draws), positions.shape[-2]), dtype=complex)
            for idx, sc, prm_stack, g in groups:
                fh = np.conj(frm(positions, sc.rx_paths, sc.wavelength)).swapaxes(-1, -2)
                h[..., idx, :] = (fh[..., None, :, :] @ prm_stack @ g)[..., 0]
            out.append(h)
        return np.stack(out, axis=-1)
    return channels


def _mean_utility(positions: np.ndarray, channels, combiner: str, utility: str, budget: str,
                  power: float, sigma2: float) -> np.ndarray:
    """Rate utility of each placement in a (B, N, 3) stack, averaged over the
    draws whose channels `channels` (from `_draw_channels`) gives: (B,).  A
    placement whose ZF channel is rank deficient in any draw scores -inf."""
    h = channels(positions)
    try:
        _, _, rates = _allocate_and_rate(h, combiner, utility, budget, power, sigma2)
    except (ValueError, np.linalg.LinAlgError):
        return np.full(len(positions), -np.inf)
    vals = np.sum(rates, axis=-1) if utility == "sum" else np.min(rates, axis=-1)
    score = np.mean(vals, axis=-1)  # over the draws, as _ensemble_capacity averages
    return np.where(np.isnan(score), -np.inf, score)


def multiuser_position_opt(user_scenarios, bs_region: MoveRegion, init_rx: np.ndarray,
                           power: float, sigma2: float, combiner: str = "zf",
                           utility: str = "sum", budget: str = "sum", mode: str = "rate",
                           eta: float | None = None, ensembles=None, max_sweeps: int = 20,
                           bisection_iters: int = 12) -> OptReport:
    """Base-station antenna placement for multiuser uplink rate or power objectives.

    Rate-centric mode maximizes the rate utility ('sum' or 'min') under the
    power budget ('sum' or 'max' over users).  Power-centric mode finds the
    smallest budget whose rate-centric optimum still meets the target utility
    `eta`, by bisection around the rate-centric solver.  `ensembles`, when
    given, is a list of per-draw user-scenario lists for statistical
    averaging.
    """
    draws = ensembles if ensembles is not None else [user_scenarios]
    lam = draws[0][0].wavelength
    channels = _draw_channels(draws)
    runs = []  # the report of every ascent, in order

    def solve_rate(budget_power, start):
        (pos,), rep = _ascend(
            [(start, bs_region)],
            lambda q: _mean_utility(q, channels, combiner, utility, budget, budget_power, sigma2),
            max_sweeps, _FD_STEP * lam, _STEP0 * lam)
        runs.append(rep)
        return pos, rep.best_score

    if mode == "rate":
        pos, _ = solve_rate(power, init_rx)
        h = multiuser_channels(pos, draws[0])
        w, p, rates = _allocate_and_rate(h, combiner, utility, budget, power, sigma2)
        return replace(runs[0], extra={"weights": w, "powers": p, "rates": rates})
    if mode != "power":
        raise ValueError(f"unknown mode {mode!r}")
    if eta is None:
        raise ValueError("power-centric mode needs a rate target eta")

    p_hi = power
    pos, val = solve_rate(p_hi, init_rx)
    grow = 0
    while val < eta and grow < 12:
        p_hi *= 2.0
        pos, val = solve_rate(p_hi, pos)
        grow += 1
    if val < eta:
        raise InfeasibleError(f"rate target {eta} unreachable even at power {p_hi}")
    p_lo, best_pos, best_p = 0.0, pos, p_hi
    for _ in range(bisection_iters):
        mid = 0.5 * (p_lo + p_hi)
        pos_mid, val_mid = solve_rate(mid, best_pos)
        if val_mid >= eta:
            p_hi, best_pos, best_p = mid, pos_mid, mid
        else:
            p_lo = mid
    h = multiuser_channels(best_pos, draws[0])
    w, p, rates = _allocate_and_rate(h, combiner, utility, budget, best_p, sigma2)
    return OptReport(best_placement=best_pos, best_score=best_p, iterations=bisection_iters,
                     trace=[best_p], extra={"weights": w, "powers": p, "rates": rates,
                                            "achieved_utility": float(np.sum(rates) if utility == "sum"
                                                                      else np.min(rates))},
                     **_run_stats(runs))


def isac_constrained_opt(scenario, tx_positions: np.ndarray, rx_region: MoveRegion,
                         init_rx: np.ndarray, power: float, sigma2: float,
                         mode: str = "com", threshold: float = np.inf,
                         crb_coef: float = 1.0, crb_metric: str = "max",
                         max_sweeps: int = 30) -> OptReport:
    """Receive-array placement trading MIMO capacity against the sensing CRB.

    mode 'com': maximize (ensemble-average) capacity subject to
    crb(rx) <= threshold; mode 'sen': minimize the CRB subject to
    capacity >= threshold.  A 'com' start above the CRB bound is replaced by
    the sensing optimum; 'sen' first solves the unconstrained capacity problem.
    Sweep moves violating the constraint are rejected, so the trace stays
    monotone and feasible.
    """
    ensemble = _as_ensemble(scenario)
    lam = ensemble[0].wavelength
    tx = np.asarray(tx_positions, dtype=float).reshape(-1, 3)

    def capacity(rx):
        return _ensemble_capacity(tx, rx, ensemble, power, sigma2)

    def crb(rx):
        return crb_metric_2d(np.asarray(rx)[..., :2], crb_metric, crb_coef)

    rx = np.asarray(init_rx, dtype=float).reshape(-1, 3).copy()
    if rx_region.kind != "box":
        raise ValueError("ISAC placement expects a box region")

    if mode == "com":
        if crb(rx) > threshold:  # fall back to the sensing-optimal placement
            crb_opt = sensing_2d_ao(len(rx), rx_region.extents[:2], rx_region.d_min,
                                    metric=crb_metric, coef=crb_coef)
            if crb_opt.best_score > threshold:
                raise InfeasibleError(f"CRB threshold {threshold:.3g} below the best "
                                      f"achievable {crb_opt.best_score:.3g}")
            rx = np.column_stack([crb_opt.best_placement, np.zeros(len(rx))])
        objective, constraint = capacity, lambda q: crb(q) <= threshold
        sense, runs = 1.0, []
    elif mode == "sen":
        (rx,), unconstrained = _ascend([(rx, rx_region)], capacity, max_sweeps,
                                       _FD_STEP * lam, _STEP0 * lam)
        if unconstrained.best_score < threshold:
            raise InfeasibleError(f"capacity target {threshold:.3g} unreachable")
        objective, constraint = lambda q: -crb(q), lambda q: capacity(q) >= threshold
        sense, runs = -1.0, [unconstrained]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    (rx,), rep = _ascend([(rx, rx_region)],
                         lambda q: np.where(constraint(q), objective(q), -np.inf),
                         max_sweeps, _FD_STEP * lam, _STEP0 * lam)
    return replace(rep, best_score=sense * rep.best_score, trace=[sense * v for v in rep.trace],
                   extra={"capacity": float(capacity(rx)), "crb": crb(rx)},
                   **_run_stats(runs + [rep]))
