"""Deterministic field-response channel synthesis for movable-antenna systems.

Covers narrowband SISO/MIMO, wideband CIR/CFR, near-field, and the full
position-plus-orientation channel with radiation and polarization, plus a
seeded random scenario generator for Monte Carlo studies.

Sign conventions follow exp(+j 2*pi/lambda * k^T x) for field-response
entries; the receive side enters channels through a conjugate transpose.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import InfeasibleError
from .geometry import accs_basis

__all__ = [
    "PathSet",
    "RadiationPattern",
    "CouplingPair",
    "Scenario",
    "frv_tx",
    "frv_rx",
    "frm",
    "channel_narrowband",
    "channel_mimo",
    "apply_coupling",
    "tap_of_delay",
    "db_to_linear",
    "cir",
    "cfr",
    "channel_nearfield",
    "radiation_gain",
    "polarization_gain",
    "prm_6dma",
    "channel_6dma",
    "sample_directions",
    "gen_scenario",
    "redraw_prm_phases",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_scenario",
    "load_scenario",
]


def db_to_linear(db: float) -> float:
    """Power ratio 10 ** (db / 10) of a level in dB; inf where it overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PathSet:
    """Propagation paths on one side of the link.

    wave_vectors: (L, 3) unit rows.  delays (seconds) are only used by the
    wideband model; scatterers (L, 3) only by the near-field model.
    """

    wave_vectors: np.ndarray
    delays: np.ndarray | None = None
    scatterers: np.ndarray | None = None

    def __post_init__(self):
        k = np.asarray(self.wave_vectors, dtype=float).reshape(-1, 3)
        if len(k) < 1:
            raise ValueError("a path set needs at least one path")
        object.__setattr__(self, "wave_vectors", k)
        if self.delays is not None:
            d = np.asarray(self.delays, dtype=float).reshape(-1)
            if len(d) != len(k):
                raise ValueError("delays must match the number of paths")
            if np.any(d < 0):
                raise ValueError("delays must be non-negative")
            object.__setattr__(self, "delays", d)
        if self.scatterers is not None:
            s = np.asarray(self.scatterers, dtype=float).reshape(-1, 3)
            if len(s) != len(k):
                raise ValueError("scatterers must match the number of paths")
            object.__setattr__(self, "scatterers", s)

    def __len__(self) -> int:
        return len(self.wave_vectors)

    @classmethod
    def from_spatial_frequencies(cls, uv, **kw) -> "PathSet":
        """Build from (u, v) pairs; the third component is fixed by the unit norm (+ sign)."""
        uv = np.asarray(uv, dtype=float).reshape(-1, 2)
        w = np.sqrt(np.clip(1.0 - uv[:, 0] ** 2 - uv[:, 1] ** 2, 0.0, None))
        return cls(np.column_stack([uv, w]), **kw)


class RadiationPattern:
    """Field patterns (F1, F2) over the two reference polarization axes.

    F1/F2 map a unit direction in the antenna frame to a complex field
    coefficient; |F1|^2 + |F2|^2 is the directive power gain.
    """

    def __init__(self, f1: Callable[[np.ndarray], complex], f2: Callable[[np.ndarray], complex],
                 name: str = "custom", params: dict | None = None):
        self.f1 = f1
        self.f2 = f2
        self.name = name
        self.params = params or {}
        self._stacked = None  # a built-in (f1, f2, F1 of a stack of k[2]), where F2 = 0

    @classmethod
    def isotropic(cls) -> "RadiationPattern":
        """Unit power gain in every direction, linearly polarized (F1=1, F2=0)."""
        pattern = cls(lambda k: 1.0, lambda k: 0.0, name="isotropic")
        pattern._stacked = (pattern.f1, pattern.f2, lambda kz: 1.0)
        return pattern

    @classmethod
    def ideal_directional(cls, gain_dbi: float = 6.0) -> "RadiationPattern":
        """Constant power gain inside a cone about the antenna z axis, zero outside.

        The cone solid angle is set so the total radiated energy matches the
        isotropic pattern: gain * solid_angle = 4*pi, giving
        cos(half_angle) = 1 - 2/gain.
        """
        g = db_to_linear(gain_dbi)
        if not 2.0 < g < math.inf:
            raise ValueError("gain must exceed 3 dBi for a proper cone and be a finite float")
        cos_half = 1.0 - 2.0 / g
        amp = math.sqrt(g)

        pattern = cls(lambda k: amp if k[2] >= cos_half else 0.0, lambda k: 0.0,
                      name="directional", params={"gain_dbi": gain_dbi})
        pattern._stacked = (pattern.f1, pattern.f2, lambda kz: np.where(kz >= cos_half, amp, 0.0))
        return pattern


@dataclass(frozen=True)
class CouplingPair:
    """Mutual-coupling matrices applied around a MIMO channel (externally supplied)."""

    tx_coupling: np.ndarray
    rx_coupling: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tx_coupling, dtype=complex)
        r = np.asarray(self.rx_coupling, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("coupling matrices must be square")
        object.__setattr__(self, "tx_coupling", t)
        object.__setattr__(self, "rx_coupling", r)


@dataclass(frozen=True)
class Scenario:
    """Deterministic channel environment between a Tx and an Rx moving region.

    Narrowband: prm is the (L_r x L_t) path-response matrix.  Wideband:
    bandwidth is set, paths carry delays, and prms holds one matrix per
    delay tap (restricted to the paths of that tap).  Near-field: the Rx
    origin offset (reference_offset, reference_rotation), los_amplitude and
    per-path scatterers are used instead of plane-wave phases.  pprms
    (L_r, L_t, 2, 2) enables the orientation-dependent channel.
    """

    wavelength: float
    tx_paths: PathSet
    rx_paths: PathSet
    prm: np.ndarray | None = None
    prms: tuple[np.ndarray, ...] | None = None
    bandwidth: float | None = None
    tx_pattern: RadiationPattern = field(default_factory=RadiationPattern.isotropic)
    rx_pattern: RadiationPattern = field(default_factory=RadiationPattern.isotropic)
    pprms: np.ndarray | None = None
    reference_offset: np.ndarray | None = None
    reference_rotation: np.ndarray | None = None
    los_amplitude: complex | None = None

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError("wavelength must be > 0")
        if self.prm is not None:
            p = np.asarray(self.prm, dtype=complex)
            if p.shape != (len(self.rx_paths), len(self.tx_paths)):
                raise ValueError(f"prm shape {p.shape} does not match path counts "
                                 f"({len(self.rx_paths)}, {len(self.tx_paths)})")
            if not np.all(np.isfinite(p)):
                raise ValueError("prm entries must be finite")
            object.__setattr__(self, "prm", p)
        if self.prms is not None:
            if self.bandwidth is None or self.bandwidth <= 0:
                raise ValueError("per-tap prms require a positive bandwidth")
            object.__setattr__(self, "prms", tuple(np.asarray(m, dtype=complex) for m in self.prms))
        if self.pprms is not None:
            q = np.asarray(self.pprms, dtype=complex)
            if q.shape != (len(self.rx_paths), len(self.tx_paths), 2, 2):
                raise ValueError("pprms must have shape (L_r, L_t, 2, 2)")
            object.__setattr__(self, "pprms", q)
        if self.reference_offset is not None:
            object.__setattr__(self, "reference_offset",
                               np.asarray(self.reference_offset, dtype=float).reshape(3))
        if self.reference_rotation is not None:
            rot = np.asarray(self.reference_rotation, dtype=float).reshape(3, 3)
            object.__setattr__(self, "reference_rotation", rot)


def _position_rows(positions) -> np.ndarray:
    """The positions frm takes as (..., N, 3) rows: missing coordinates are 0."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim < 2:
        pos = pos.reshape(len(pos), -1)
    if pos.shape[-1] == 3:
        return pos
    rows = np.zeros(pos.shape[:-1] + (3,))
    rows[..., :pos.shape[-1]] = pos
    return rows


def frm(positions, paths: PathSet, wavelength: float) -> np.ndarray:
    """Field response matrix (L x N): column n is the FRV of position n, given as
    an x coordinate or an (x, y) / (x, y, z) point (missing coordinates are 0).
    A (..., N, d) stack of placements gives (..., L, N)."""
    if wavelength <= 0:
        raise ValueError("wavelength must be > 0")
    rows = _position_rows(positions)
    return np.exp(2j * np.pi / wavelength * (paths.wave_vectors @ rows.swapaxes(-1, -2)))


def frv_tx(t, paths: PathSet, wavelength: float) -> np.ndarray:
    """Field response vector exp(j 2 pi / lambda * k_j^T t), one entry per Tx path:
    the one-position case of frm."""
    return frm(np.reshape(t, (1, -1)), paths, wavelength)[:, 0]


frv_rx = frv_tx  # identical form on the receive side


def channel_narrowband(t, r, scenario: Scenario) -> complex | np.ndarray:
    """Baseband channel h = f(r)^H Sigma g(t) between single Tx and Rx antennas.

    Paired (M, .) stacks of Tx and Rx positions give the (M,) channels
    h_m = f(r_m)^H Sigma g(t_m); a single pair gives a complex scalar.
    """
    if scenario.prm is None:
        raise ValueError("scenario has no narrowband prm")
    single = np.ndim(t) < 2 and np.ndim(r) < 2
    if single:
        t, r = np.reshape(t, (1, -1)), np.reshape(r, (1, -1))
    elif np.ndim(t) != 2 or np.ndim(r) != 2 or len(t) != len(r):
        raise ValueError("give one Tx and one Rx position, or paired (M, d) stacks")
    g = frm(t, scenario.tx_paths, scenario.wavelength)
    f = frm(r, scenario.rx_paths, scenario.wavelength)
    h = np.sum((f.conj().T @ scenario.prm) * g.T, axis=1)
    return complex(h[0]) if single else h


def channel_mimo(tx_positions, rx_positions, scenario: Scenario) -> np.ndarray:
    """Channel matrix H = F(r)^H Sigma G(t), shape (N_r, N_t).

    Either side may be a (..., N, d) stack of placements; the result is then
    the (..., N_r, N_t) stack of their channels.
    """
    if scenario.prm is None:
        raise ValueError("scenario has no narrowband prm")
    g = frm(tx_positions, scenario.tx_paths, scenario.wavelength)
    f = frm(rx_positions, scenario.rx_paths, scenario.wavelength)
    return np.conj(f).swapaxes(-1, -2) @ scenario.prm @ g


def apply_coupling(h: np.ndarray, coupling: CouplingPair) -> np.ndarray:
    """Effective channel C_r H C_t under mutual coupling."""
    h = np.asarray(h, dtype=complex)
    cr, ct = coupling.rx_coupling, coupling.tx_coupling
    if cr.shape[1] != h.shape[0] or h.shape[1] != ct.shape[0]:
        raise ValueError("coupling dimensions do not match the channel matrix")
    return cr @ h @ ct


def tap_of_delay(delay: float, bandwidth: float) -> int:
    """Delay tap index (1-based); each tap spans 1/bandwidth, boundary ties round down."""
    t = delay * bandwidth
    fl = math.floor(t)
    if fl == t and fl >= 1:
        return fl
    return fl + 1


def _tap_groups(paths: PathSet, bandwidth: float) -> dict[int, np.ndarray]:
    if paths.delays is None:
        raise ValueError("wideband paths need delays")
    taps = np.array([tap_of_delay(d, bandwidth) for d in paths.delays])
    return {tau: np.flatnonzero(taps == tau) for tau in sorted(set(taps))}


def cir(t, r, scenario: Scenario) -> np.ndarray:
    """Channel impulse response over delay taps: h_tau = f_tau(r)^H Sigma_tau g_tau(t)."""
    if scenario.prms is None or scenario.bandwidth is None:
        raise ValueError("scenario is not wideband (needs per-tap prms and bandwidth)")
    g = frv_tx(t, scenario.tx_paths, scenario.wavelength)
    f = frv_rx(r, scenario.rx_paths, scenario.wavelength)
    tx_groups = _tap_groups(scenario.tx_paths, scenario.bandwidth)
    rx_groups = _tap_groups(scenario.rx_paths, scenario.bandwidth)
    n_taps = len(scenario.prms)
    out = np.zeros(n_taps, dtype=complex)
    for tau in range(1, n_taps + 1):
        ti = tx_groups.get(tau, np.array([], dtype=int))
        ri = rx_groups.get(tau, np.array([], dtype=int))
        if len(ti) == 0 or len(ri) == 0:
            continue
        sig = scenario.prms[tau - 1]
        if sig.shape != (len(ri), len(ti)):
            raise ValueError(f"tap {tau}: prm shape {sig.shape} does not match "
                             f"path grouping ({len(ri)}, {len(ti)})")
        out[tau - 1] = f[ri].conj() @ sig @ g[ti]
    return out


def cfr(cir_taps, n_subcarriers: int) -> np.ndarray:
    """Frequency response: unscaled forward DFT of the zero-padded CIR.

    Convention: c[k] = sum_m h[m] exp(-j 2 pi k m / M), so ||c||^2 = M ||h||^2.
    """
    h = np.asarray(cir_taps, dtype=complex).reshape(-1)
    if n_subcarriers < len(h):
        raise ValueError("subcarrier count must be >= number of taps")
    padded = np.zeros(n_subcarriers, dtype=complex)
    padded[: len(h)] = h
    return np.fft.fft(padded)


def channel_nearfield(t, r, scenario: Scenario) -> complex:
    """Spherical-wave channel: LoS distance phase plus single-bounce scatterer terms."""
    lam = scenario.wavelength
    t, r = _position_rows([t])[0], _position_rows([r])[0]
    h = 0.0 + 0.0j
    if scenario.los_amplitude is not None and scenario.los_amplitude != 0:
        if scenario.reference_offset is None:
            raise ValueError("near-field LoS needs the Rx reference offset")
        rot = scenario.reference_rotation if scenario.reference_rotation is not None else np.eye(3)
        dist = np.linalg.norm(scenario.reference_offset + rot.T @ r - t)
        h += scenario.los_amplitude * np.exp(2j * np.pi / lam * dist)
    if scenario.prm is not None and np.any(scenario.prm != 0):
        if scenario.tx_paths.scatterers is None or scenario.rx_paths.scatterers is None:
            raise ValueError("near-field NLoS needs scatterer coordinates on both sides")
        g = np.exp(2j * np.pi / lam * np.linalg.norm(t - scenario.tx_paths.scatterers, axis=1))
        f = np.exp(2j * np.pi / lam * np.linalg.norm(r - scenario.rx_paths.scatterers, axis=1))
        h += f @ scenario.prm @ g  # transpose, not conjugate, on the Rx side
    return complex(h)


def radiation_gain(pattern: RadiationPattern, aom: np.ndarray, k: np.ndarray) -> float:
    """Directive field gain sqrt(|F1(Psi^T k)|^2 + |F2(Psi^T k)|^2) for a path."""
    k = np.asarray(k, dtype=float).reshape(3)
    k_accs = np.asarray(aom, dtype=float).T @ k
    return math.sqrt(abs(pattern.f1(k_accs)) ** 2 + abs(pattern.f2(k_accs)) ** 2)


def _polarization_vectors(pattern: RadiationPattern, aom: np.ndarray,
                          k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radiation gains (..., L) and LCS-frame pattern vectors (..., L, 2) for wave vectors (L, 3).

    aom is one orientation (3, 3) or a stack (..., 3, 3).  Row l is
    M_l @ [F1, F2] at the antenna-frame wave vector aom^T k_l, where
    M_l[a, b] = lcs_a . aom . accs_b maps the antenna-frame reference pair
    (accs_basis of aom^T k_l) onto the LCS pair (accs_basis of k_l).  A
    built-in pattern is evaluated on the whole stack at once; the callables of
    any other run once per orientation and path.  M_l is orthogonal,
    so the row's norm is the radiation gain and a path outside the pattern's
    lobe gives a zero row.
    """
    aom = np.asarray(aom, dtype=float)
    k = np.asarray(k, dtype=float).reshape(-1, 3)
    k_accs = k @ aom
    f = np.zeros(k_accs.shape[:-1] + (2,), dtype=complex)
    if pattern._stacked is not None and pattern._stacked[:2] == (pattern.f1, pattern.f2):
        f[..., 0] = pattern._stacked[2](k_accs[..., 2])
    else:
        f.reshape(-1, 2)[:] = [(pattern.f1(ka), pattern.f2(ka)) for ka in k_accs.reshape(-1, 3)]
    m = (np.stack(accs_basis(k), axis=1) @ aom[..., None, :, :]
         @ np.stack(accs_basis(k_accs), axis=-1))
    return np.sqrt(np.sum(np.abs(f) ** 2, axis=-1)), np.einsum("...lab,...lb->...la", m, f)


def polarization_gain(tx_pattern: RadiationPattern, rx_pattern: RadiationPattern,
                      psi: np.ndarray, omega: np.ndarray,
                      k_t: np.ndarray, k_r: np.ndarray,
                      pprm: np.ndarray) -> complex:
    """Normalized polarization coupling between one Tx path and one Rx path.

    Evaluates the quadruple product (Rx polarization row) x (Rx field-direction
    transform) x pprm x (Tx field-direction transform) x (Tx polarization
    column).  Reference direction pairs for each path are the shared basis
    construction evaluated in the LCS; the antenna-frame pairs use the same
    construction on the rotated wave vector.  This is the single-pair case of
    prm_6dma divided by both radiation gains.
    """
    g_t, v_t = _polarization_vectors(tx_pattern, psi, k_t)
    g_r, v_r = _polarization_vectors(rx_pattern, omega, k_r)
    if g_t[0] <= 0 or g_r[0] <= 0:
        raise ValueError("polarization gain is undefined at zero radiation gain")
    lam = np.asarray(pprm, dtype=complex).reshape(2, 2)
    return complex(v_r[0] @ lam @ v_t[0] / (g_r[0] * g_t[0]))


def prm_6dma(pprms: np.ndarray, psi: np.ndarray, omega: np.ndarray,
             tx_pattern: RadiationPattern, rx_pattern: RadiationPattern,
             tx_paths: PathSet, rx_paths: PathSet) -> np.ndarray:
    """Orientation-dependent PRM (..., L_r, L_t) with entries G_r * G_p * G_t per path pair.

    pprms has shape (L_r, L_t, 2, 2); psi and omega are the Tx and Rx
    orientation matrices (3, 3) or stacks of them (..., 3, 3) that broadcast
    against each other, giving one PRM per orientation pair.  The radiation
    gains cancel the normalization of the polarization product, so every
    entry is (Rx pattern vector) x pprm x (Tx pattern vector), contracted one
    index at a time: each step sums two terms, so an entry does not depend on
    the stack it was computed in.  Paths with zero radiation gain (outside a
    directional lobe) contribute zero entries rather than an error.
    """
    pprms = np.asarray(pprms, dtype=complex)
    if pprms.shape != (len(rx_paths), len(tx_paths), 2, 2):
        raise ValueError("pprms must have shape (L_r, L_t, 2, 2)")
    _, v_t = _polarization_vectors(tx_pattern, psi, tx_paths.wave_vectors)
    _, v_r = _polarization_vectors(rx_pattern, omega, rx_paths.wave_vectors)
    return np.einsum("...ia,...ija->...ij", v_r, np.einsum("ijab,...jb->...ija", pprms, v_t))


def channel_6dma(t, r, psi: np.ndarray, omega: np.ndarray, scenario: Scenario) -> complex:
    """Channel as a function of both positions and orientations: f^H Sigma(Psi,Omega) g."""
    if scenario.pprms is None:
        raise ValueError("scenario has no per-pair polarization response matrices")
    sigma = prm_6dma(scenario.pprms, psi, omega, scenario.tx_pattern, scenario.rx_pattern,
                     scenario.tx_paths, scenario.rx_paths)
    g = frv_tx(t, scenario.tx_paths, scenario.wavelength)
    f = frv_rx(r, scenario.rx_paths, scenario.wavelength)
    return complex(f.conj() @ sigma @ g)


def sample_directions(rng: np.random.Generator, n: int, law: str = "halfspace",
                      min_component_sep: float = 0.0, max_tries: int = 10000) -> np.ndarray:
    """Draw n path wave vectors, (n, 3).

    law 'halfspace': elevation density cos(theta)/2 on [-pi/2, pi/2], azimuth
    uniform on [-pi/2, pi/2] (joint density cos(theta)/(2 pi)).
    law 'sphere': same elevation law, azimuth uniform on [-pi, pi] (density
    cos(theta)/(4 pi)).

    min_component_sep > 0 rejection-samples until every pair of wave vectors
    differs by at least that amount in some component, i.e. the paths fall in
    distinct angular resolution bins; InfeasibleError after max_tries draws.
    """
    if law == "halfspace":
        az_lim = np.pi / 2
    elif law == "sphere":
        az_lim = np.pi
    else:
        raise ValueError(f"unknown angle law {law!r}")
    for _ in range(max_tries):
        el = np.arcsin(2.0 * rng.random(n) - 1.0)
        az = rng.uniform(-az_lim, az_lim, n)
        k = np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=1)
        if min_component_sep <= 0 or n == 1:
            return k
        d = np.max(np.abs(k[:, None, :] - k[None, :, :]), axis=2)
        np.fill_diagonal(d, np.inf)
        if d.min() >= min_component_sep:
            return k
    raise InfeasibleError("could not sample sufficiently separated paths")


def _rician_diagonal(rng: np.random.Generator, n_paths: int, kappa: float, gain: float) -> np.ndarray:
    """Diagonal geometric PRM with a Rician power split across paths."""
    var = np.empty(n_paths)
    if not np.isfinite(kappa):
        var[:] = 0.0
        var[0] = gain
    elif n_paths == 1:
        var[0] = gain
    else:
        var[0] = gain * kappa / (kappa + 1.0)
        var[1:] = gain / ((kappa + 1.0) * (n_paths - 1))
    diag = np.sqrt(var / 2.0) * (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths))
    return np.diag(diag)


def gen_scenario(seed, n_paths: int, wavelength: float = 1.0, kappa: float = 0.0,
                 gain: float = 1.0, distance: float | None = None, path_loss_exp: float = 2.5,
                 angle_law: str = "halfspace", min_component_sep: float = 0.0,
                 bandwidth: float | None = None, max_delay: float = 0.0,
                 nearfield: bool = False, scatterer_radius: float = 0.0,
                 los_amplitude: complex | None = None) -> Scenario:
    """Random geometric scenario: diagonal PRM, paired Tx/Rx paths, seeded RNG.

    kappa is the Rician factor: the first (line-of-sight) path gets
    gain*kappa/(kappa+1) and the other n_paths - 1 share the rest equally, so
    kappa=0 gives no line-of-sight path and n_paths - 1 equal-power paths (a
    single path takes all of `gain`).  When `distance` is given the total
    gain becomes wavelength^2 * kappa / (16 pi^2 distance^path_loss_exp).  With
    `bandwidth` set, per-path delays are drawn uniformly on [0, max_delay]
    and the PRM is split into per-tap diagonal blocks.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if distance is not None:
        gain = wavelength ** 2 * max(kappa, 1e-12) / (16.0 * np.pi ** 2 * distance ** path_loss_exp)
    kt = sample_directions(rng, n_paths, angle_law, min_component_sep)
    kr = sample_directions(rng, n_paths, angle_law, min_component_sep)
    sigma = _rician_diagonal(rng, n_paths, kappa, gain)

    if nearfield:
        st = rng.uniform(-scatterer_radius, scatterer_radius, (n_paths, 3))
        sr = rng.uniform(-scatterer_radius, scatterer_radius, (n_paths, 3))
        return Scenario(wavelength=wavelength,
                        tx_paths=PathSet(kt, scatterers=st),
                        rx_paths=PathSet(kr, scatterers=sr),
                        prm=sigma, los_amplitude=los_amplitude,
                        reference_offset=np.zeros(3), reference_rotation=np.eye(3))

    if bandwidth is not None:
        delays = rng.uniform(0.0, max_delay, n_paths)
        tx_paths = PathSet(kt, delays=delays)
        rx_paths = PathSet(kr, delays=delays)  # geometric model: shared physical paths
        groups = _tap_groups(tx_paths, bandwidth)
        n_taps = max(groups)
        prms = []
        for tau in range(1, n_taps + 1):
            idx = groups.get(tau, np.array([], dtype=int))
            prms.append(np.diag(np.diag(sigma)[idx]))
        return Scenario(wavelength=wavelength, tx_paths=tx_paths, rx_paths=rx_paths,
                        prms=tuple(prms), bandwidth=bandwidth)

    return Scenario(wavelength=wavelength, tx_paths=PathSet(kt), rx_paths=PathSet(kr), prm=sigma)


def redraw_prm_phases(scenario: Scenario, seed) -> Scenario:
    """Same geometry and PRM magnitudes, fresh uniform phases (statistical-CSI draws)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if scenario.prm is None:
        raise ValueError("phase redraw needs a narrowband prm")
    phases = np.exp(2j * np.pi * rng.random(scenario.prm.shape))
    return replace(scenario, prm=np.abs(scenario.prm) * phases)


# ---------------------------------------------------------------------------
# JSON serialization (complex numbers encoded as [re, im] pairs)

def _c2l(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _carr(a: np.ndarray) -> list:
    return np.stack([np.real(a), np.imag(a)], axis=-1).tolist()


def _from_carr(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.size == 0:
        return np.zeros((0, 0), dtype=complex)
    return a[..., 0] + 1j * a[..., 1]


def _pattern_to_dict(p: RadiationPattern) -> dict:
    if p.name == "isotropic":
        return {"type": "isotropic"}
    if p.name == "directional":
        return {"type": "directional", "gain_dbi": p.params["gain_dbi"]}
    raise ValueError("only the built-in radiation patterns serialize to JSON")


def _pattern_from_dict(d: dict) -> RadiationPattern:
    if d["type"] == "isotropic":
        return RadiationPattern.isotropic()
    if d["type"] == "directional":
        return RadiationPattern.ideal_directional(d["gain_dbi"])
    raise ValueError(f"unknown radiation pattern type {d['type']!r}")


def _pathset_to_dict(p: PathSet) -> dict:
    d = {"wave_vectors": p.wave_vectors.tolist()}
    if p.delays is not None:
        d["delays"] = p.delays.tolist()
    if p.scatterers is not None:
        d["scatterers"] = p.scatterers.tolist()
    return d


def _pathset_from_dict(d: dict) -> PathSet:
    return PathSet(np.asarray(d["wave_vectors"], dtype=float),
                   delays=np.asarray(d["delays"], dtype=float) if "delays" in d else None,
                   scatterers=np.asarray(d["scatterers"], dtype=float) if "scatterers" in d else None)


def scenario_to_dict(s: Scenario) -> dict:
    d = {
        "wavelength": s.wavelength,
        "tx_paths": _pathset_to_dict(s.tx_paths),
        "rx_paths": _pathset_to_dict(s.rx_paths),
        "tx_pattern": _pattern_to_dict(s.tx_pattern),
        "rx_pattern": _pattern_to_dict(s.rx_pattern),
    }
    if s.prm is not None:
        d["prm"] = _carr(s.prm)
    if s.prms is not None:
        d["prms"] = [_carr(m) for m in s.prms]
        d["bandwidth"] = s.bandwidth
    if s.pprms is not None:
        d["pprms"] = _carr(s.pprms)
    if s.reference_offset is not None:
        d["reference_offset"] = s.reference_offset.tolist()
    if s.reference_rotation is not None:
        d["reference_rotation"] = s.reference_rotation.tolist()
    if s.los_amplitude is not None:
        d["los_amplitude"] = _c2l(s.los_amplitude)
    return d


def scenario_from_dict(d: dict) -> Scenario:
    los = d.get("los_amplitude")
    return Scenario(
        wavelength=d["wavelength"],
        tx_paths=_pathset_from_dict(d["tx_paths"]),
        rx_paths=_pathset_from_dict(d["rx_paths"]),
        prm=_from_carr(d["prm"]) if "prm" in d else None,
        prms=tuple(_from_carr(m) for m in d["prms"]) if "prms" in d else None,
        bandwidth=d.get("bandwidth"),
        tx_pattern=_pattern_from_dict(d.get("tx_pattern", {"type": "isotropic"})),
        rx_pattern=_pattern_from_dict(d.get("rx_pattern", {"type": "isotropic"})),
        pprms=_from_carr(d["pprms"]) if "pprms" in d else None,
        reference_offset=np.asarray(d["reference_offset"]) if "reference_offset" in d else None,
        reference_rotation=np.asarray(d["reference_rotation"]) if "reference_rotation" in d else None,
        los_amplitude=complex(los[0], los[1]) if los is not None else None,
    )


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
