"""The result container, acceptance rule and backtracking schedule shared by the optimizers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["OptReport", "improves"]

_RTOL = 1e-12
# The one backtracking schedule: a first step scaled by 0.5^j, j < 20, scored in two
# chunks, j < 4 for every candidate and the rest only where none of those is taken.  On
# the beam benchmark 98.4 % of digital and 92.5 % of analog weight moves take a j < 4.
_HALVES = 0.5 ** np.arange(20)
_STEP_CHUNKS = ((0, 4), (4, 20))


def improves(new, cur):
    """Whether new beats cur by more than 1e-12 of |cur| (elementwise): the one
    acceptance rule of every ascent; a descent asks improves(-new, -cur).

    Relative, so scaling an objective by a power of two moves no decision.  Any
    finite value beats -inf, nothing beats +inf and NaN never wins."""
    return new > cur * (1.0 + np.copysign(_RTOL, cur))


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
