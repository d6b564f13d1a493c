"""Globally optimal antenna selection on a sampled line via fixed-hop dynamic programming.

The continuous placement problem on a segment is discretized into M sample
points; selecting N of them with a minimum index gap then maximizes the
summed per-sample channel power.  The hop-constrained shortest-path recursion
solves this exactly in O(M N) time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InfeasibleError
from .report import OptReport, _scores

__all__ = ["SampledLine", "graph_opt_miso"]


@dataclass(frozen=True)
class SampledLine:
    """Uniform sampling of a linear moving region [0, A].

    amplitudes[m] = |h(s_m)| at sample position s_m = (m+1) * A / M;
    a_min = ceil(d_min / spacing) is the minimum index gap between antennas.
    """

    length: float
    amplitudes: np.ndarray
    d_min: float

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=float).reshape(-1)
        if len(a) < 1:
            raise ValueError("need at least one sample")
        if self.length <= 0 or self.d_min < 0:
            raise ValueError("invalid line geometry")
        object.__setattr__(self, "amplitudes", a)

    @property
    def m(self) -> int:
        return len(self.amplitudes)

    @property
    def spacing(self) -> float:
        return self.length / self.m

    @property
    def a_min(self) -> int:
        return max(1, math.ceil(self.d_min / self.spacing - 1e-12))

    @property
    def positions(self) -> np.ndarray:
        return (np.arange(1, self.m + 1)) * self.spacing

    @classmethod
    def from_channel(cls, channel_fn, length: float, m: int, d_min: float) -> "SampledLine":
        """Sample |h| from channel_fn, which maps the (M,) stack of sample positions to
        their (M,) complex channels; a NaN channel gets amplitude -inf, never picked."""
        pos = (np.arange(1, m + 1)) * (length / m)
        return cls(length, _scores(lambda x: np.abs(channel_fn(x)), pos), d_min)


def graph_opt_miso(line: SampledLine, n_antennas: int) -> OptReport:
    """Optimal selection of n sample indices maximizing sum |h(s_m)|^2 with index gaps >= a_min.

    Ties break toward the lexicographically smallest index tuple.  Raises
    InfeasibleError if the spacing constraint leaves no selection.  A sample of
    amplitude -inf scores -inf, so it is picked only where no selection avoids it.
    """
    m, a = line.m, line.a_min
    n = n_antennas
    if n < 1:
        raise ValueError("need at least one antenna")
    if m - (a - 1) * (n - 1) < n:
        raise InfeasibleError(f"{n} antennas with index gap {a} do not fit in {m} samples")
    v = line.amplitudes * np.abs(line.amplitudes)

    # suffix[n][j] = best total using n antennas restricted to indices >= j
    neg = -np.inf
    width = m + a + 1
    suffix = np.zeros((n + 1, width))
    suffix[1:, :] = neg
    picks = np.empty((n + 1, m))
    for ni in range(1, n + 1):
        pick = v + suffix[ni - 1, a: a + m]
        suffix[ni, :m] = np.maximum.accumulate(pick[::-1])[::-1]
        suffix[ni, m:] = neg
        picks[ni] = pick

    best = suffix[n, 0]
    idx = []
    j = 0
    for ni in range(n, 0, -1):
        while picks[ni, j] < suffix[ni, j]:
            j += 1
        idx.append(j)
        j += a
    indices = np.array(idx)
    return OptReport(best_placement=line.positions[indices], best_score=float(best),
                     iterations=m * n, trace=[float(best)],
                     extra={"indices": indices})
