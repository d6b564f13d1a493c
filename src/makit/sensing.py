"""Snapshot signal model, direction-estimation CRBs, and MUSIC for movable arrays.

Single-target model: Y = beta * alpha(x, u) s^T + N over T_s snapshots, with
spatial frequency u = cos(angle) in 1D and (u, v) = (sin(th)cos(ph), cos(th))
in 2D.  The sample covariance uses 1/T_s scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SensingSetup",
    "SpatialAoa",
    "array_response",
    "simulate_snapshots",
    "crb_1d",
    "effective_variances",
    "crb_2d",
    "crb_2d_lower_bound",
    "music_1d",
    "music_2d",
]

_GRID_1D = 2048
_GRID_2D = 181
_REFINE_TOL = 1e-6


@dataclass(frozen=True)
class SpatialAoa:
    """Direction-cosine estimate; v is present only for planar arrays."""

    u: float
    v: float | None = None

    def __post_init__(self):
        if abs(self.u) > 1.0 + 1e-9 or (self.v is not None and abs(self.v) > 1.0 + 1e-9):
            raise ValueError("spatial frequencies must lie in [-1, 1]")


@dataclass(frozen=True)
class SensingSetup:
    """Geometry and signal parameters of a target-angle estimation experiment.

    placement: (N,) positions on a line or (N, 2) positions on a plane,
    meters.  snapshots >= 1; power and noise_power in watts; beta is the
    complex path coefficient; u (and v for 2D) the true spatial frequencies.
    """

    placement: np.ndarray
    snapshots: int
    power: float
    noise_power: float
    beta: complex
    u: float
    v: float | None = None
    wavelength: float = 1.0

    def __post_init__(self):
        p = np.asarray(self.placement, dtype=float)
        if p.ndim == 1:
            pass
        elif p.ndim == 2 and p.shape[1] == 2:
            if self.v is None:
                raise ValueError("planar placement needs both spatial frequencies u and v")
        else:
            raise ValueError("placement must be (N,) or (N, 2)")
        object.__setattr__(self, "placement", p)
        if self.snapshots < 1:
            raise ValueError("need at least one snapshot")
        if self.power <= 0 or self.noise_power < 0:
            raise ValueError("power must be > 0 and noise power >= 0")

    @property
    def n_antennas(self) -> int:
        return len(self.placement)


def array_response(placement: np.ndarray, u: float, v: float | None, wavelength: float) -> np.ndarray:
    """Steering vector exp(j 2 pi/lambda (x u [+ y v]))."""
    p = np.asarray(placement, dtype=float)
    if p.ndim == 1:
        phase = p * u
    else:
        phase = p[:, 0] * u + (p[:, 1] * v if v is not None else 0.0)
    return np.exp(2j * np.pi / wavelength * phase)


def simulate_snapshots(setup: SensingSetup, seed) -> np.ndarray:
    """Received matrix Y = beta alpha s^T + N, (N x T_s), seed-deterministic.

    The probe sequence has constant modulus sqrt(power) with uniform random
    phases; noise entries are circular complex Gaussian with variance
    noise_power.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    s = math.sqrt(setup.power) * np.exp(2j * np.pi * rng.random(setup.snapshots))
    alpha = array_response(setup.placement, setup.u, setup.v, setup.wavelength)
    y = setup.beta * np.outer(alpha, s)
    if setup.noise_power > 0:
        scale = math.sqrt(setup.noise_power / 2.0)
        y = y + scale * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    return y


def _crb_prefactor(setup: SensingSetup) -> float:
    return (setup.noise_power * setup.wavelength ** 2
            / (8.0 * np.pi ** 2 * setup.snapshots * setup.power
               * setup.n_antennas * abs(setup.beta) ** 2))


def crb_1d(setup: SensingSetup) -> float:
    """MSE lower bound on u for a linear array: prefactor / var(x)."""
    x = np.asarray(setup.placement, dtype=float)
    if x.ndim != 1:
        raise ValueError("crb_1d expects a linear placement")
    var = float(np.var(x))
    if var <= 0:
        raise ValueError("co-located antennas give an unbounded CRB")
    return _crb_prefactor(setup) / var


def effective_variances(xy: np.ndarray):
    """Per-axis effective variances var_x - cov^2/var_y and var_y - cov^2/var_x
    of one (n, 2) layout, or of each layout in a (..., n, 2) stack."""
    x, y = xy[..., 0], xy[..., 1]
    vx, vy = np.var(x, axis=-1), np.var(y, axis=-1)
    cov = np.mean(x * y, axis=-1) - np.mean(x, axis=-1) * np.mean(y, axis=-1)
    # libm pow, as a scalar ``cov ** 2`` computes it; numpy's array square differs
    # from it in the last bit for about 0.1 % of inputs
    cov2 = np.reshape([c ** 2 for c in np.ravel(cov).tolist()], np.shape(cov))
    lone = np.where(cov == 0, 0.0, np.inf)  # cov^2/var over a zero variance
    return (vx - np.divide(cov2, vy, out=lone.copy(), where=vy > 0),
            vy - np.divide(cov2, vx, out=lone, where=vx > 0))


def crb_2d(setup: SensingSetup) -> tuple[float, float]:
    """MSE lower bounds (CRB_u, CRB_v) for a planar array: prefactor / effective variance."""
    p = np.asarray(setup.placement, dtype=float)
    if p.ndim != 2:
        raise ValueError("crb_2d expects a planar placement")
    ex, ey = effective_variances(p)
    if ex <= 0 or ey <= 0:
        raise ValueError("collinear geometry: the 2D information matrix is singular")
    pref = _crb_prefactor(setup)
    return float(pref / ex), float(pref / ey)


def crb_2d_lower_bound(circumradius: float, setup: SensingSetup) -> float:
    """Aperture bound on the max-CRB: prefactor * 2 / circumradius^2."""
    if circumradius <= 0:
        raise ValueError("circumradius must be > 0")
    return 2.0 * _crb_prefactor(setup) / circumradius ** 2


def _noise_projector(y: np.ndarray) -> np.ndarray:
    """Noise-subspace projector E_n E_n^H from the sample covariance (single target)."""
    n, t = y.shape
    cov = (y @ y.conj().T) / t
    _, vecs = np.linalg.eigh(cov)
    en = vecs[:, : n - 1]  # all but the largest eigenvector
    return en @ en.conj().T


def _golden_min(f, lo: float, hi: float, tol: float) -> float:
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def music_1d(y: np.ndarray, placement, wavelength: float = 1.0,
             grid: int = _GRID_1D, refine_tol: float = _REFINE_TOL) -> SpatialAoa:
    """Spatial-frequency estimate maximizing the MUSIC pseudo-spectrum on u in [-1, 1].

    Coarse grid search followed by golden-section refinement around the best
    cell.
    """
    y = np.asarray(y, dtype=complex)
    x = np.asarray(placement, dtype=float).reshape(-1)
    if len(x) < 2:
        raise ValueError("MUSIC needs at least two antennas")
    proj = _noise_projector(y)
    ug = np.linspace(-1.0, 1.0, grid)
    ag = np.exp(2j * np.pi / wavelength * np.outer(ug, x))
    denom = np.einsum("gi,ij,gj->g", ag.conj(), proj, ag).real
    i = int(np.argmin(denom))

    def f(u):
        a = np.exp(2j * np.pi / wavelength * x * u)
        return float(np.real(a.conj() @ proj @ a))

    lo, hi = ug[max(0, i - 1)], ug[min(grid - 1, i + 1)]
    return SpatialAoa(u=_golden_min(f, lo, hi, refine_tol))


def music_2d(y: np.ndarray, placement, wavelength: float = 1.0,
             grid: int = _GRID_2D, refine_tol: float = _REFINE_TOL) -> SpatialAoa:
    """Joint (u, v) estimate from a planar array: 2D grid plus local refinement."""
    y = np.asarray(y, dtype=complex)
    p = np.asarray(placement, dtype=float).reshape(-1, 2)
    if len(p) < 2:
        raise ValueError("MUSIC needs at least two antennas")
    proj = _noise_projector(y)
    ug = np.linspace(-1.0, 1.0, grid)
    ex = np.exp(2j * np.pi / wavelength * np.outer(ug, p[:, 0]))  # (G, N)
    ey = np.exp(2j * np.pi / wavelength * np.outer(ug, p[:, 1]))
    # denom[g, h] = a^H proj a with a = ex[g] * ey[h], one x-row at a time
    denom = np.empty((grid, grid))
    for g in range(grid):
        pg = (ex[g].conj()[:, None] * proj) * ex[g][None, :]
        denom[g] = np.einsum("hi,ij,hj->h", ey.conj(), pg, ey).real
    gi, hi_ = np.unravel_index(int(np.argmin(denom)), denom.shape)

    def f(uv):
        a = np.exp(2j * np.pi / wavelength * (p[:, 0] * uv[0] + p[:, 1] * uv[1]))
        return float(np.real(a.conj() @ proj @ a))

    u, v = ug[gi], ug[hi_]
    span = 2.0 / (grid - 1)
    for _ in range(40):
        u = _golden_min(lambda uu: f((uu, v)), max(-1.0, u - span), min(1.0, u + span), refine_tol)
        v_new = _golden_min(lambda vv: f((u, vv)), max(-1.0, v - span), min(1.0, v + span), refine_tol)
        if abs(v_new - v) < refine_tol and span < 16 * refine_tol:
            v = v_new
            break
        v = v_new
        span = max(span / 2.0, 8 * refine_tol)
    if u ** 2 + v ** 2 > 1.0:  # clip into the visible region
        r = math.hypot(u, v)
        u, v = u / r, v / r
    return SpatialAoa(u=u, v=v)
