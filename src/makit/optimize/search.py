"""Single-position searchers, SISO gain bounds, and a seeded particle swarm."""

from __future__ import annotations

import numpy as np

from ..errors import InfeasibleError
from ..geometry import MoveRegion, _close_pairs
from .report import OptReport

__all__ = ["siso_gain_bounds", "grid_search_position", "gradient_position_search", "pso"]


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

    Ties break toward the lexicographically smallest grid point (the grid is
    generated in lexicographic order and only strict improvements replace the
    incumbent).
    """
    pts = region.grid_points(step)
    if len(pts) == 0:
        raise ValueError("empty search grid")
    sign = 1.0 if sense == "max" else -1.0
    best_val = -np.inf
    best_idx = 0
    for i, p in enumerate(pts):
        v = sign * float(objective(p))
        if v > best_val:
            best_val, best_idx = v, i
    return OptReport(best_placement=pts[best_idx], best_score=sign * best_val,
                     iterations=len(pts), trace=[sign * best_val])


def gradient_position_search(objective, region: MoveRegion, start, step: float = None,
                             max_iter: int = 200, tol: float = 1e-9,
                             fd_step: float = 1e-4, sense: str = "max") -> OptReport:
    """Projected finite-difference gradient ascent of a single antenna position.

    Backtracking halves the step until the (projected) move improves the
    score; the trace is monotone by construction.
    """
    if not region.contains(start, tol=1e-6):
        raise ValueError("start position is not inside the region")
    x = np.asarray(region.clip(start), dtype=float)
    sign = 1.0 if sense == "max" else -1.0
    f = lambda p: sign * float(objective(p))
    if step is None:
        step = fd_step * 100
    cur = f(x)
    trace = [sign * cur]
    it = 0
    for it in range(1, max_iter + 1):
        grad = _fd_gradient(f, x, region, fd_step)
        gn = np.linalg.norm(grad)
        if gn == 0:
            break
        s = step
        improved = False
        for _ in range(30):
            cand = region.clip(x + s * grad / gn)
            val = f(cand)
            if val > cur:
                x, cur, improved = cand, val, True
                break
            s *= 0.5
        trace.append(sign * cur)
        if not improved or (len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol):
            break
    return OptReport(best_placement=x, best_score=sign * cur, iterations=it, trace=trace)


def _fd_gradient(f, x: np.ndarray, region: MoveRegion, fd_step: float) -> np.ndarray:
    """Central finite-difference gradient of f at x, with probes projected onto the region.

    An axis whose probes coincide or give a non-finite value gets a zero component.
    """
    grad = np.zeros(3)
    for d in range(3):
        e = np.zeros(3)
        e[d] = fd_step
        hi = region.clip(x + e)
        lo = region.clip(x - e)
        denom = hi[d] - lo[d]
        if denom <= 0:
            continue
        va = f(hi)
        vb = f(lo)
        if np.isfinite(va) and np.isfinite(vb):
            grad[d] = (va - vb) / denom
    return grad


def _sweep_antennas(positions: np.ndarray, region: MoveRegion, objective, cur: float,
                    fd_step: float, step0: float) -> tuple[np.ndarray, float, bool]:
    """One sweep of projected gradient steps, one antenna at a time, from value cur.

    Derivative probes ignore the spacing constraint; a move is accepted only
    if it keeps the spacing and gains more than 1e-12.  Returns (positions,
    value, improved_any).
    """
    pos = positions.copy()
    improved_any = False
    for i in range(len(pos)):
        def probe(p):
            q = pos.copy()
            q[i] = p
            return objective(q)

        grad = _fd_gradient(probe, pos[i], region, fd_step)
        gn = np.linalg.norm(grad)
        if gn == 0:
            continue
        s = step0
        for _ in range(20):
            cand = pos.copy()
            cand[i] = region.clip(pos[i] + s * grad / gn)
            if not _close_pairs(cand, region.d_min).any():
                v = objective(cand)
                if v > cur + 1e-12:
                    pos, cur = cand, v
                    improved_any = True
                    break
            s *= 0.5
    return pos, cur, improved_any


def _ascend(blocks, objective, max_sweeps: int, fd: float, step0: float):
    """Maximize objective(*positions) by sweeping each block in turn until no block improves.

    blocks is a list of (positions, region) pairs; a block's sweep holds the
    others fixed.  A start outside a region (tol 1e-6) or closer than d_min
    raises InfeasibleError.  Returns (positions per block, best value, trace
    of the best value at the start and after each sweep).
    """
    pos = [np.array(p, dtype=float).reshape(-1, 3) for p, _ in blocks]
    regions = [region for _, region in blocks]
    for p, region in zip(pos, regions):
        if not all(region.contains(q, tol=1e-6) for q in p) or _close_pairs(p, region.d_min).any():
            raise InfeasibleError("initial placement is outside the region or closer than d_min")
    cur = objective(*pos)
    trace = [cur]
    for _ in range(max_sweeps):
        improved = False
        for b, region in enumerate(regions):
            pos[b], cur, block_improved = _sweep_antennas(
                pos[b], region, lambda q: objective(*pos[:b], q, *pos[b + 1:]), cur, fd, step0)
            improved |= block_improved
        trace.append(cur)
        if not improved:
            break
    return pos, cur, trace


def pso(objective, dim: int, bounds, n_particles: int = 30, n_iter: int = 100,
        seed: int = 0, inertia: float = 0.7, cognitive: float = 1.5,
        social: float = 1.5, sense: str = "min") -> OptReport:
    """Global particle-swarm search, bitwise reproducible for a fixed seed."""
    lo, hi = (np.asarray(b, dtype=float).reshape(-1) for b in bounds)
    if len(lo) != dim or len(hi) != dim or np.any(hi < lo):
        raise ValueError("bounds must be (lower, upper) arrays of length dim")
    sign = -1.0 if sense == "min" else 1.0
    f = lambda p: sign * float(objective(p))
    rng = np.random.default_rng(seed)
    span = hi - lo
    pos = lo + rng.random((n_particles, dim)) * span
    vel = (rng.random((n_particles, dim)) - 0.5) * span
    pbest = pos.copy()
    pval = np.array([f(p) for p in pos])
    gi = int(np.argmax(pval))
    gbest, gval = pbest[gi].copy(), pval[gi]
    trace = [sign * gval]
    for _ in range(n_iter):
        r1 = rng.random((n_particles, dim))
        r2 = rng.random((n_particles, dim))
        vel = inertia * vel + cognitive * r1 * (pbest - pos) + social * r2 * (gbest - pos)
        pos = np.clip(pos + vel, lo, hi)
        vals = np.array([f(p) for p in pos])
        better = vals > pval
        pbest[better] = pos[better]
        pval[better] = vals[better]
        gi = int(np.argmax(pval))
        if pval[gi] > gval:
            gbest, gval = pbest[gi].copy(), pval[gi]
        trace.append(sign * gval)
    return OptReport(best_placement=gbest, best_score=sign * gval,
                     iterations=n_iter, trace=trace)
