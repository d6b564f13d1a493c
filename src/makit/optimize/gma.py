"""Joint sparsity-and-position optimization of a sliding uniform sparse array."""

from __future__ import annotations

import numpy as np

from ..beamforming import gma_rate
from ..errors import InfeasibleError
from .report import OptReport, improves

__all__ = ["gma_opt"]


def gma_opt(user_scenarios, aperture: float, eta_max: int, n_antennas: int, powers,
            wavelength: float, n_grid: int = 96, max_rounds: int = 10) -> OptReport:
    """Alternate 1D line searches on the array anchor x and the sparsity level eta.

    eta is the integer spacing multiple of lambda/2 of the uniform sparse
    array; only levels whose aperture fits the region are considered.  Each
    search takes its best candidate (the first on ties) if it `improves` on
    the multiple-access rate; a round in which neither does ends the run
    (stop_reason 'stalled', else 'max_sweeps' after max_rounds).
    """
    if eta_max < 1:
        raise ValueError("eta_max must be >= 1")

    etas = np.arange(1, eta_max + 1)
    spans = (n_antennas - 1) * etas * wavelength / 2.0
    fits = spans <= aperture + 1e-12
    etas, spans = etas[fits], spans[fits]
    if not fits.any():
        raise InfeasibleError("even the dense array does not fit in the region")

    def rate(x, eta):
        return gma_rate(x, eta, user_scenarios, powers, n_antennas, wavelength, aperture)

    eta, span, x = int(etas[0]), spans[0], 0.0
    cur = rate(x, eta)
    trace, stop = [cur], "max_sweeps"
    for _ in range(max_rounds):
        improved = False
        # sparsity search at fixed anchor (re-anchor if the array would overflow)
        xs = np.minimum(x, aperture - spans)
        v = rate(xs, etas)
        j = int(np.argmax(v))
        if improves(v[j], cur):
            eta, span, x, cur, improved = int(etas[j]), spans[j], float(xs[j]), float(v[j]), True
        # anchor line search at fixed sparsity
        anchors = np.linspace(0.0, aperture - span, n_grid)
        v = rate(anchors, eta)
        j = int(np.argmax(v))
        if improves(v[j], cur):
            x, cur, improved = float(anchors[j]), float(v[j]), True
        trace.append(cur)
        if not improved:
            stop = "stalled"
            break
    return OptReport(best_placement=np.array([x]), best_score=cur, iterations=len(trace) - 1,
                     trace=trace, extra={"eta": eta, "anchor": x}, stop_reason=stop)
