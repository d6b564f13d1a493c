"""Single-position searchers, SISO gain bounds, and a seeded particle swarm."""

from __future__ import annotations

import logging

import numpy as np

from ..errors import InfeasibleError
from ..geometry import MoveRegion, _close_pairs, _too_close
from .report import _HALVES, _STEP_CHUNKS, OptReport, _scores, improves

__all__ = ["siso_gain_bounds", "grid_search_position", "gradient_position_search", "pso"]

_log = logging.getLogger(__name__)

_GRID_BLOCK = 1 << 14  # points per objective call of the grid search


def siso_gain_bounds(b) -> tuple[float, float]:
    """Channel power gain bounds for h(r) = f(r)^H b over unconstrained positions.

    Upper bound ||b||_1^2 (all path coefficients phase-aligned); lower bound
    (max(0, 2 |b_max| - ||b||_1))^2 (strongest path against all others).
    """
    b = np.asarray(b, dtype=complex).reshape(-1)
    if b.size == 0:
        raise ValueError("b must be nonempty")
    l1 = float(np.sum(np.abs(b)))
    return l1 ** 2, max(0.0, 2.0 * float(np.max(np.abs(b))) - l1) ** 2


def grid_search_position(objective, region: MoveRegion, step: float,
                         sense: str = "max") -> OptReport:
    """Exhaustive search of a single antenna position over a regular grid.

    objective scores an (M, 3) stack of positions as (M,), one block of the grid
    per call.  Ties break toward the lexicographically smallest grid point (the
    grid is generated in lexicographic order and only strict improvements
    replace the incumbent).
    """
    pts = region.grid_points(step)
    if len(pts) == 0:
        raise ValueError("empty search grid")
    sign = 1.0 if sense == "max" else -1.0
    best_val, best_idx = -np.inf, 0
    for lo in range(0, len(pts), _GRID_BLOCK):
        v = _scores(objective, pts[lo:lo + _GRID_BLOCK], sign)
        i = int(np.argmax(v))
        if v[i] > best_val:
            best_val, best_idx = float(v[i]), lo + i
    return OptReport(best_placement=pts[best_idx], best_score=sign * best_val,
                     iterations=len(pts), trace=[sign * best_val])


def gradient_position_search(objective, region: MoveRegion, start, max_iter: int = 200,
                             sense: str = "max") -> OptReport:
    """Projected finite-difference gradient ascent of a single antenna position.

    The placement ascent of the MIMO, multiuser and ISAC optimizers on one
    antenna, with objective scoring an (M, 3) stack of positions as (M,), each
    row the same whatever else is in the stack: FD probes 1e-4 apart, a first
    step of 1e-2 halved until the move gains (a step clipped back onto the
    antenna is not scored), and a stop when an iteration gains nothing or
    after max_iter; the trace is monotone.  A start outside the region raises
    InfeasibleError.
    """
    sign = 1.0 if sense == "max" else -1.0
    _, rep = _ascend([(start, region)], lambda stack: _scores(objective, stack[:, 0], sign),
                     max_iter, 1e-4, 1e-2)
    rep.best_placement, rep.best_score = rep.best_placement[0], sign * rep.best_score
    rep.trace = [sign * v for v in rep.trace]
    return rep


def _fd_gradient(f, x: np.ndarray, region: MoveRegion, fd_step: float) -> np.ndarray:
    """Central finite-difference gradient of f at x, with probes projected onto the region.

    f scores an (M, 3) stack of positions as (M,); all probes go in one call.
    An axis whose probes coincide or give a non-finite value gets a zero component.
    """
    e = fd_step * np.eye(3)
    hi, lo = region.clip(x + e), region.clip(x - e)
    denom = np.diagonal(hi) - np.diagonal(lo)
    axes = np.flatnonzero(denom > 0)
    grad = np.zeros(3)
    if axes.size:
        va, vb = np.reshape(f(np.concatenate([hi[axes], lo[axes]])), (2, -1))
        ok = np.isfinite(va) & np.isfinite(vb)
        grad[axes[ok]] = (va[ok] - vb[ok]) / denom[axes[ok]]
    return grad


def _sweep_antennas(positions: np.ndarray, region: MoveRegion, score, cur: float,
                    fd_step: float, step0: float) -> tuple[np.ndarray, float, bool]:
    """One sweep of projected gradient steps, one antenna at a time, from value cur.

    score maps a (B, N, 3) stack of placements to (B,) values, each row as
    scored alone.  Derivative probes ignore the spacing constraint.  Of the
    steps step0·0.5^j (j < 20), the first that keeps the spacing, moves the
    antenna (one clipped back onto its own position, bit for bit, is not
    scored) and `improves` on cur is accepted; steps 0-3 are scored in one
    call, steps 4-19 in a second only if none of those is, and a chunk with
    no such step takes no call.  Returns (positions, value, improved_any).
    """
    pos = positions.copy()
    improved_any = False
    steps = step0 * _HALVES
    for i in range(len(pos)):
        def placements(p):  # pos with antenna i at each row of p
            q = np.repeat(pos[None], len(p), axis=0)
            q[:, i] = p
            return q

        grad = _fd_gradient(lambda p: score(placements(p)), pos[i], region, fd_step)
        gn = np.linalg.norm(grad)
        if gn == 0:
            continue
        cand = region.clip(pos[i] + steps[:, None] * grad / gn)
        moved = (cand.view(np.uint64) != pos[i].view(np.uint64)).any(axis=1)
        feasible = moved & ~_too_close(cand, np.delete(pos, i, axis=0), region.d_min).any(axis=1)
        for lo, hi in _STEP_CHUNKS:
            j = lo + np.flatnonzero(feasible[lo:hi])
            if not j.size:
                continue
            vals = score(placements(cand[j]))
            gain = np.flatnonzero(improves(vals, cur))
            if gain.size:
                pos[i], cur = cand[j[gain[0]]], vals[gain[0]]
                improved_any = True
                break
    return pos, cur, improved_any


def _ascend(blocks, objective, max_sweeps: int, fd: float, step0: float) -> tuple[list, OptReport]:
    """Maximize objective(*positions) by sweeping each block in turn until no block improves.

    blocks is a list of (positions, region) pairs; a block's sweep holds the
    others fixed.  The objective takes one position array per block, where
    the moving block is a (B, N, 3) stack of candidate placements and the
    others are (N, 3), and returns the (B,) scores.  A start outside a region
    (tol 1e-6) or closer than d_min raises InfeasibleError.  Returns the
    positions per block and a report: the best value, the trace of it at the
    start and after each sweep, the sweeps run, the placements scored (not a
    step clipped back onto its antenna: an antenna with only such steps takes
    no step call) and why the ascent stopped ('stalled' or 'max_sweeps').
    """
    pos = [np.array(p, dtype=float).reshape(-1, 3) for p, _ in blocks]
    regions = [region for _, region in blocks]
    for p, region in zip(pos, regions):
        if not region.contains(p, tol=1e-6).all() or _close_pairs(p, region.d_min).any():
            raise InfeasibleError("initial placement is outside the region or closer than d_min")
    evaluations = 0

    def score(b, stack):  # the objective over a stack of block b's placements
        nonlocal evaluations
        evaluations += len(stack)
        return objective(*pos[:b], stack, *pos[b + 1:])

    cur = float(score(0, pos[0][None])[0])
    trace, stop = [cur], "max_sweeps"
    for _ in range(max_sweeps):
        improved = False
        for b, region in enumerate(regions):
            pos[b], cur, block_improved = _sweep_antennas(
                pos[b], region, lambda q: score(b, q), cur, fd, step0)
            improved |= block_improved
        trace.append(float(cur))
        if not improved:
            stop = "stalled"
            break
    if stop == "max_sweeps":
        _log.debug("_ascend: stopped at max_sweeps=%d with value %.6g after %d evaluations",
                   max_sweeps, cur, evaluations)
    return pos, OptReport(best_placement=np.vstack(pos), best_score=float(cur),
                          iterations=len(trace) - 1, trace=trace, evaluations=evaluations,
                          stop_reason=stop)


def pso(objective, dim: int, bounds, n_particles: int = 30, n_iter: int = 100,
        seed: int = 0, inertia: float = 0.7, cognitive: float = 1.5,
        social: float = 1.5, sense: str = "min") -> OptReport:
    """Global particle-swarm search, bitwise reproducible for a fixed seed; objective
    scores the (n_particles, dim) swarm as (n_particles,), one call per step."""
    lo, hi = (np.asarray(b, dtype=float).reshape(-1) for b in bounds)
    if len(lo) != dim or len(hi) != dim or np.any(hi < lo):
        raise ValueError("bounds must be (lower, upper) arrays of length dim")
    sign = -1.0 if sense == "min" else 1.0
    rng = np.random.default_rng(seed)
    span = hi - lo
    pos = lo + rng.random((n_particles, dim)) * span
    vel = (rng.random((n_particles, dim)) - 0.5) * span
    pbest, pval = pos.copy(), _scores(objective, pos, sign)
    gi = int(np.argmax(pval))
    gbest, gval, trace = pbest[gi].copy(), pval[gi], [sign * pval[gi]]
    for _ in range(n_iter):
        r1 = rng.random((n_particles, dim))
        r2 = rng.random((n_particles, dim))
        vel = inertia * vel + cognitive * r1 * (pbest - pos) + social * r2 * (gbest - pos)
        pos = np.clip(pos + vel, lo, hi)
        vals = _scores(objective, pos, sign)
        better = vals > pval
        pbest[better] = pos[better]
        pval[better] = vals[better]
        gi = int(np.argmax(pval))
        if pval[gi] > gval:
            gbest, gval = pbest[gi].copy(), pval[gi]
        trace.append(sign * gval)
    return OptReport(best_placement=gbest, best_score=sign * gval,
                     iterations=n_iter, trace=trace)
