"""Machine-speed calibration for timings on a shared, drifting machine.

On a small shared machine the same trial's wall time moves by up to 2x
within a minute while CPU time tracks wall time: the processor itself runs
slower, not the scheduler.  A fixed numpy kernel timed next to each trial
slows down with it, so a trial's time divided by the kernel's time is far
steadier than either.  Reported times are scaled back into seconds at the
speed where the kernel takes ``REFERENCE_S``.

The kernel mixes the two kinds of work the catalog does: many calls on tiny
arrays (a 4x4 channel, its singular values and a capacity formula) and a
field accumulated over a 51^3 grid.  It does not use makit, so no change to
the program changes it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.025   # kernel time at reference speed: its time on a quiet 2-core Xeon VM
SMALL_CALLS = 500
GRID_PASSES = 2


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.k = rng.standard_normal((6, 3))
        self.pos = rng.standard_normal((4, 3))
        self.prm = np.diag(rng.standard_normal(6) + 0j)
        self.axis = np.arange(0.0, 2.5 + 0.025, 0.05)

    def kernel_s(self) -> float:
        """Wall time of one run of the fixed kernel."""
        start = time.perf_counter()
        for _ in range(SMALL_CALLS):
            g = np.exp(2j * np.pi * (self.k @ self.pos.T))
            h = g.conj().T @ self.prm @ g
            s = np.linalg.svd(h, compute_uv=False)
            p = np.maximum(0.0, 1.0 - 1.0 / s ** 2)
            float(np.sum(np.log2(1.0 + p * s ** 2)))
        ax = self.axis
        for _ in range(GRID_PASSES):
            acc = np.zeros((len(ax),) * 3, dtype=complex)
            for kk in self.k[:4]:
                acc += (np.exp(-1j * kk[0] * ax)[:, None, None]
                        * np.exp(-1j * kk[1] * ax)[None, :, None]
                        * np.exp(-1j * kk[2] * ax)[None, None, :])
            float((np.abs(acc) ** 2).max())
        return time.perf_counter() - start

    @staticmethod
    def scale(before_s: float, after_s: float) -> float:
        """Factor taking wall seconds measured between two kernel runs to reference seconds."""
        return REFERENCE_S / (0.5 * (before_s + after_s))
