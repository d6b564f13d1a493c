"""What the optimizers share: result container, acceptance rule, step schedule, memo of starts."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

__all__ = ["OptReport", "improves"]

_RTOL = 1e-12
# The one backtracking schedule: a first step scaled by 0.5^j, j < 20.  The placement sweep
# scores j < 4, then the rest only where none of those is taken; the beam ascent scores
# four a tick.  On the beam benchmark 98.4 % of digital, 92.5 % of analog weight moves take j < 4.
_HALVES = 0.5 ** np.arange(20)
_STEP_CHUNKS = ((0, 4), (4, 20))
_memos: list[OrderedDict] = []  # every start_memo, so that tests can empty them all


def improves(new, cur):
    """Whether new beats cur by more than 1e-12 of |cur| (elementwise): the one
    acceptance rule of every ascent; a descent asks improves(-new, -cur).

    Relative, so scaling an objective by a power of two moves no decision.  Any
    finite value beats -inf, nothing beats +inf and NaN never wins."""
    return new > cur * (1.0 + np.copysign(_RTOL, cur))


def start_memo() -> OrderedDict:
    """A new least-recently-used memo: an optimizer start's key -> a tuple of what it reached."""
    _memos.append(OrderedDict())
    return _memos[-1]


def memo_get(memo: OrderedDict, key) -> tuple | None:
    """A copy of key's tuple, now the most recently used, or None if key is unknown."""
    if key in memo:
        memo.move_to_end(key)
        return tuple([v.copy() if isinstance(v, (np.ndarray, list)) else v for v in memo[key]])
    return None


def memo_put(memo: OrderedDict, key, value: tuple, cap: int) -> None:
    """Store a copy of value under key, dropping the least recently used keys past cap."""
    memo[key] = value
    memo[key] = memo_get(memo, key)  # a copy, moved to the most recently used end
    while len(memo) > cap:
        memo.popitem(last=False)


def _scores(objective, stack, sign: float = 1.0) -> np.ndarray:
    """sign * objective(stack) as (len(stack),) floats, NaN as -inf so it never wins; the
    one reader of a searcher's objective.  Another shape, as from a scalar objective
    such as lambda p: p[0], raises ValueError instead of being misread; where an (M, d)
    stack has M == d rows, such an objective returns (M,) too, so there stack[:1] is
    scored as well and must give (1,)."""
    v = np.asarray(objective(stack))
    got, want = v.shape, (len(stack),)
    if got == want and np.ndim(stack) == 2 and len(stack) == np.shape(stack)[1] > 1:
        got, want = np.shape(objective(stack[:1])), (1,)
    if got != want:
        raise ValueError(f"objective must return shape {want}, got {got}")
    v = sign * v.astype(float)
    return np.where(np.isnan(v), -np.inf, v)


@dataclass
class OptReport:
    """Outcome of an optimization run.

    best_placement holds positions (shape depends on the problem: scalars for
    linear arrays, (N, 3) otherwise); trace is the best-so-far score after
    each iteration/sweep.  The placement ascents count the placements they
    scored (evaluations; not a step clipped back onto its antenna, so an antenna
    with only such steps takes no step call); the sweeping ascents say why they
    stopped (stop_reason: 'stalled' when a sweep improved nothing, 'max_sweeps'
    at the sweep cap).
    """

    best_placement: np.ndarray
    best_score: float
    iterations: int
    trace: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    evaluations: int = 0
    stop_reason: str | None = None
