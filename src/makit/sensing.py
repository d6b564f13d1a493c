"""Snapshot signal model, direction-estimation CRBs, and MUSIC for movable arrays.

Single-target model: Y = beta * alpha(x, u) s^T + N over T_s snapshots, with
spatial frequency u = cos(angle) in 1D and (u, v) = (sin(th)cos(ph), cos(th))
in 2D.  The sample covariance uses 1/T_s scaling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import _complex_normal

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
_GRID_TABLES = 4  # placements whose music_1d grid table stays cached


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


def array_response(placement: np.ndarray, u, v, wavelength: float) -> np.ndarray:
    """Steering vector exp(j 2 pi/lambda (x u [+ y v])); arrays of u (and v) give (..., N)."""
    p = np.asarray(placement, dtype=float)
    u = np.asarray(u, dtype=float)[..., None]
    if p.ndim == 1:
        phase = p * u
    else:
        phase = p[:, 0] * u + (p[:, 1] * np.asarray(v)[..., None] if v is not None else 0.0)
    return np.exp(2j * np.pi / wavelength * phase)


def simulate_snapshots(setup: SensingSetup, seed) -> np.ndarray:
    """Received matrix Y = beta alpha s^T + N, (N x T_s), seed-deterministic.

    The probe sequence has constant modulus sqrt(power) with uniform random
    phases; noise entries are circular complex Gaussian with variance
    noise_power.
    """
    rng = np.random.default_rng(seed)
    s = math.sqrt(setup.power) * np.exp(2j * np.pi * rng.random(setup.snapshots))
    alpha = array_response(setup.placement, setup.u, setup.v, setup.wavelength)
    y = setup.beta * np.outer(alpha, s)
    return y + _complex_normal(rng, setup.noise_power, y.shape) if setup.noise_power > 0 else y


def _crb_prefactor(noise_power: float, wavelength: float, snapshots: int, power: float,
                  n: int, beta: complex) -> float:
    """Common factor sigma^2 lambda^2 / (8 pi^2 T_s P N |beta|^2) of the direction CRBs."""
    return (noise_power * wavelength ** 2
            / (8.0 * np.pi ** 2 * snapshots * power * n * abs(beta) ** 2))


def _setup_prefactor(s: SensingSetup) -> float:
    return _crb_prefactor(s.noise_power, s.wavelength, s.snapshots, s.power, s.n_antennas, s.beta)


def crb_1d(setup: SensingSetup) -> float:
    """MSE lower bound on u for a linear array: prefactor / var(x)."""
    x = np.asarray(setup.placement, dtype=float)
    if x.ndim != 1:
        raise ValueError("crb_1d expects a linear placement")
    var = float(np.var(x))
    if var <= 0:
        raise ValueError("co-located antennas give an unbounded CRB")
    return _setup_prefactor(setup) / var


def effective_variances(xy: np.ndarray):
    """Per-axis effective variances var_x - cov^2/var_y and var_y - cov^2/var_x
    of one (n, 2) layout, or of each layout in a (..., n, 2) stack."""
    x, y, n = xy[..., 0], xy[..., 1], xy.shape[-2]
    # np.mean/np.var's ufunc calls, and libm pow for cov ** 2 (numpy's square differs on 0.1 %)
    mx, my = (np.add.reduce(v, axis=-1, keepdims=True) / n for v in (x, y))
    vx, vy = (np.add.reduce(np.multiply(d, d, out=d), axis=-1) / n for d in (x - mx, y - my))
    cov = np.add.reduce(x * y, axis=-1) / n - mx[..., 0] * my[..., 0]
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
    pref = _setup_prefactor(setup)
    return float(pref / ex), float(pref / ey)


def crb_2d_lower_bound(circumradius: float, setup: SensingSetup | float) -> float:
    """Aperture bound 2 * prefactor / circumradius^2 on the max-CRB, of a setup or its prefactor."""
    if circumradius <= 0:
        raise ValueError("circumradius must be > 0")
    coef = _setup_prefactor(setup) if isinstance(setup, SensingSetup) else setup
    return 2.0 * coef / circumradius ** 2


def _signal_vector(y) -> np.ndarray:
    """Top eigenvector v of the sample covariance.  With one target the noise
    projector is I - v v^H, so a unit-modulus steering vector a scores N - |a^H v|^2."""
    y = np.asarray(y, dtype=complex)
    cov = (y @ y.conj().T) / y.shape[1]
    return np.linalg.eigh(cov)[1][:, -1]


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


@functools.lru_cache(maxsize=_GRID_TABLES)
def _music_grid_table(x_bytes: bytes, wavelength: float, grid: int) -> np.ndarray:
    """Read-only (grid, N) conjugated steering vectors of a linear placement on u in [-1, 1]."""
    table = array_response(np.frombuffer(x_bytes), np.linspace(-1.0, 1.0, grid), None,
                           wavelength).conj()
    table.flags.writeable = False
    return table


def music_1d(y: np.ndarray, placement, wavelength: float = 1.0,
             grid: int = _GRID_1D) -> SpatialAoa:
    """Spatial-frequency estimate maximizing the MUSIC pseudo-spectrum on u in [-1, 1].

    Coarse grid search followed by golden-section refinement around the best
    cell.  The grid's steering table is built once per (placement, wavelength,
    grid) and kept in a least-recently-used cache of _GRID_TABLES (4) tables,
    so repeated calls on the same arrays skip it.
    """
    x = np.asarray(placement, dtype=float).reshape(-1)
    if len(x) < 2:
        raise ValueError("MUSIC needs at least two antennas")
    sig = _signal_vector(y)

    def denom(u):
        return len(x) - np.abs(array_response(x, u, None, wavelength).conj() @ sig) ** 2

    ug = np.linspace(-1.0, 1.0, grid)
    table = _music_grid_table(x.tobytes(), wavelength, grid)
    i = int(np.argmin(len(x) - np.abs(table @ sig) ** 2))
    lo, hi = ug[max(0, i - 1)], ug[min(grid - 1, i + 1)]
    return SpatialAoa(u=_golden_min(denom, lo, hi, _REFINE_TOL))


def music_2d(y: np.ndarray, placement, wavelength: float = 1.0,
             grid: int = _GRID_2D) -> SpatialAoa:
    """Joint (u, v) estimate from a planar array: 2D grid plus local refinement."""
    p = np.asarray(placement, dtype=float).reshape(-1, 2)
    if len(p) < 2:
        raise ValueError("MUSIC needs at least two antennas")
    sig = _signal_vector(y)
    ug = np.linspace(-1.0, 1.0, grid)
    # a(u, v) = ex(u) * ey(v), so a^H sig over the grid is one product of the axis tables
    ex = array_response(p[:, 0], ug, None, wavelength)  # (G, N)
    ey = array_response(p[:, 1], ug, None, wavelength)
    grid_denom = len(p) - np.abs((ex.conj() * sig) @ ey.conj().T) ** 2
    gi, hi_ = np.unravel_index(int(np.argmin(grid_denom)), grid_denom.shape)

    def denom(u, v):
        return len(p) - np.abs(array_response(p, u, v, wavelength).conj() @ sig) ** 2

    u, v = ug[gi], ug[hi_]
    span = 2.0 / (grid - 1)
    tol = _REFINE_TOL
    for _ in range(40):
        u = _golden_min(lambda uu: denom(uu, v), max(-1.0, u - span), min(1.0, u + span), tol)
        v_new = _golden_min(lambda vv: denom(u, vv), max(-1.0, v - span), min(1.0, v + span), tol)
        if abs(v_new - v) < tol and span < 16 * tol:
            v = v_new
            break
        v = v_new
        span = max(span / 2.0, 8 * tol)
    if u ** 2 + v ** 2 > 1.0:  # clip into the visible region
        r = math.hypot(u, v)
        u, v = u / r, v / r
    return SpatialAoa(u=u, v=v)
