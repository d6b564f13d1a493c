"""Common result container for placement optimizers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["OptReport", "NotConstructible"]


@dataclass
class OptReport:
    """Outcome of an optimization run.

    best_placement holds positions (shape depends on the problem: scalars for
    linear arrays, (N, 3) otherwise); trace is the best-so-far score after
    each iteration/sweep.  The placement ascents also record how many
    placements they scored (evaluations) and why they stopped (stop_reason:
    'stalled' when a sweep improved nothing, 'max_sweeps' at the sweep cap).
    """

    best_placement: np.ndarray
    best_score: float
    iterations: int
    trace: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    evaluations: int = 0
    stop_reason: str | None = None


class NotConstructible:
    """Returned when a closed-form array construction does not exist; carries the reason."""

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"NotConstructible({self.reason!r})"

    def __bool__(self):
        return False
