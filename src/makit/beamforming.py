"""Steering vectors, beamformers/combiners, power allocation, and rate metrics.

Weight vectors are plain complex arrays; a beamformer is "normalized" when
||w||_2 = 1 and "analog" when every entry has modulus 1/sqrt(N).  All rates
are base-2 (bits/s/Hz).
"""

from __future__ import annotations

import math

import numpy as np

from .channel import channel_mimo
from .errors import InfeasibleError

__all__ = [
    "steering_vector",
    "beam_gain",
    "mrt",
    "zf_combiner",
    "mmse_combiner",
    "water_filling",
    "mimo_capacity",
    "user_sinr_and_rates",
    "multiuser_channels",
    "gma_positions",
    "gma_rate",
]

_MMSE_FLOOR = 1e-15


def steering_vector(x, theta, wavelength: float) -> np.ndarray:
    """Array response exp(j 2 pi / lambda * x_n cos(theta)) of a linear array.

    x is one placement (N,) or a stack (..., N); a scalar theta gives
    (..., N), a 1-D array of K angles gives (..., K, N).
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be > 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = np.cos(np.asarray(theta, dtype=float))
    if c.ndim:
        x, c = x[..., None, :], c[:, None]
    phase = 2j * np.pi / wavelength * x * c
    return np.exp(phase, out=phase)


def beam_gain(x, w, theta, wavelength: float):
    """Beam gain |a(x, theta)^H w|^2: a float, or (..., K) over placements and angles."""
    a = steering_vector(x, theta, wavelength)
    w = np.asarray(w, dtype=complex).reshape(-1)
    if a.shape[-1] != len(w):
        raise ValueError("weight vector length does not match the array")
    return abs(np.conj(a, out=a) @ w) ** 2


def mrt(h) -> np.ndarray:
    """Maximal-ratio weight w = h / ||h||_2."""
    h = np.asarray(h, dtype=complex).reshape(-1)
    n = np.linalg.norm(h)
    if n == 0:
        raise ValueError("cannot match a zero channel")
    return h / n


def zf_combiner(h: np.ndarray) -> np.ndarray:
    """Zero-forcing combiner W with W^H H = I_K for an (N x K) channel, K <= N.

    A (..., N, K) stack gives (..., N, K); a rank-deficient member of a stack
    gets NaN weights, where a single channel raises ValueError.
    """
    h = np.asarray(h, dtype=complex)
    n, k = h.shape[-2:]
    if k > n:
        raise ValueError("zero forcing needs at least as many antennas as users")
    full = (np.linalg.matrix_rank(h) == k)[..., None, None]
    if h.ndim == 2 and not full:
        raise ValueError("channel matrix is rank deficient")
    gram = np.where(full, np.conj(h).swapaxes(-1, -2) @ h, np.eye(k))
    return np.where(full, h @ np.linalg.inv(gram), np.nan)


def mmse_combiner(h: np.ndarray, powers, sigma2: float) -> np.ndarray:
    """Per-user MMSE combiners w_k ~ (sum_q p_q h_q h_q^H + sigma2 I)^-1 h_k, unit norm.

    h may be a (..., N, K) stack, with powers (K,) or (..., K).
    """
    if sigma2 <= 0:
        raise ValueError("noise power must be > 0")
    h = np.asarray(h, dtype=complex)
    p = np.atleast_1d(np.asarray(powers, dtype=float))
    cov = (h * p[..., None, :]) @ np.conj(h).swapaxes(-1, -2)
    cov += (sigma2 + _MMSE_FLOOR) * np.eye(h.shape[-2])
    w = np.linalg.solve(cov, h)
    return w / np.linalg.norm(w, axis=-2, keepdims=True)


def water_filling(singular_values, total_power: float, sigma2: float) -> np.ndarray:
    """Power allocation p_i = max(0, mu - sigma2/s_i^2) with sum(p) = total_power.

    Exact: mu = (P + sum of the k lowest floors sigma2/s_i^2)/k for the last k
    whose k-th lowest floor lies below that level.  Singular values (n,) give
    (n,); a (..., n) stack is allocated row by row, each row with its own mu.
    """
    s = np.asarray(singular_values, dtype=float)
    shape = s.shape if s.ndim > 1 else (s.size,)
    s = s.reshape(math.prod(shape[:-1]), shape[-1])  # one row per allocation
    if total_power <= 0:
        raise ValueError("power budget must be > 0")
    inv = np.full_like(s, np.inf)
    np.divide(sigma2, s ** 2, out=inv, where=s > 1e-300)
    srt = np.sort(inv, axis=-1)  # zero singular values sort last, as infinite floors
    if s.size == 0 or not np.isfinite(srt[:, 0]).all():
        raise ValueError("all singular values are zero")
    levels = (total_power + srt.cumsum(axis=-1)) / np.arange(1, s.shape[1] + 1)
    below = srt < levels
    below[:, 0] = True  # a budget below one ulp of the lowest floor still fills that mode
    k = s.shape[1] - below[:, ::-1].argmax(axis=-1)  # the last k with its floor below its level
    rows = np.arange(len(s))
    on = inv <= srt[rows, k - 1][:, None]
    p = np.where(on, levels[rows, k - 1][:, None] - inv, 0.0)
    # exact renormalization on the active set removes cancellation residue
    p = np.where(on, p + ((total_power - p.sum(axis=-1)) / on.sum(axis=-1))[:, None], p)
    return np.maximum(p, 0.0).reshape(shape)


def mimo_capacity(h: np.ndarray, total_power: float, sigma2: float) -> float | np.ndarray:
    """Capacity log2 det(I + H Q H^H / sigma2) under the optimal eigenmode allocation.

    A (..., N_r, N_t) stack of channels gives a (...) array of capacities.
    """
    h = np.asarray(h, dtype=complex)
    s = np.linalg.svd(h, compute_uv=False)
    cap = np.zeros(s.shape[:-1])
    live = s[..., 0] > 0 if s.shape[-1] else cap > 0  # a zero channel has capacity 0
    if live.any():
        s = s[live]  # (M, n), also for a single channel
        p = water_filling(s, total_power, sigma2)
        cap[live] = np.sum(np.log2(1.0 + p * s ** 2 / sigma2), axis=-1)
    return float(cap) if h.ndim == 2 else cap


def user_sinr_and_rates(h: np.ndarray, w: np.ndarray, powers, sigma2: float):
    """Per-user SINR and rate for uplink combining.

    h, w are (N x K); user k's SINR is
    |w_k^H h_k|^2 p_k / (sum_{q != k} |w_k^H h_q|^2 p_q + ||w_k||^2 sigma2).
    Returns (sinr, rates) arrays of length K.  (..., N, K) stacks of h and w,
    with powers (K,) or (..., K), give (..., K) arrays.
    """
    h = np.asarray(h, dtype=complex)
    w = np.asarray(w, dtype=complex)
    p = np.atleast_1d(np.asarray(powers, dtype=float))
    if h.shape != w.shape or h.shape[-1] != p.shape[-1]:
        raise ValueError("channel, combiner, and power dimensions do not match")
    cross = np.abs(np.conj(w).swapaxes(-1, -2) @ h) ** 2  # (..., K, K): |w_k^H h_q|^2 at [k, q]
    sig = np.diagonal(cross, axis1=-2, axis2=-1) * p
    interference = (cross @ p[..., None])[..., 0] - sig
    noise = np.linalg.norm(w, axis=-2) ** 2 * sigma2
    sinr = sig / (interference + noise)
    return sinr, np.log2(1.0 + sinr)


def multiuser_channels(positions, user_scenarios) -> np.ndarray:
    """Stack per-user uplink channel vectors into an (N x K) matrix.

    Each user is described by a Scenario whose Tx side is the user's own
    antenna (kept at its reference point) and whose Rx side is the base
    station; `positions` are the base-station antenna positions, (N, 3) or a
    (..., N, 3) stack giving (..., N, K).
    """
    return np.stack([channel_mimo([np.zeros(3)], positions, sc)[..., 0]
                     for sc in user_scenarios], axis=-1)


def gma_positions(x: float, eta: int, n_antennas: int, wavelength: float) -> np.ndarray:
    """Uniform sparse array of sparsity eta anchored at x: x + n * eta * lambda/2."""
    if eta < 1:
        raise ValueError("sparsity must be >= 1")
    out = np.zeros((n_antennas, 3))
    out[:, 0] = x + np.arange(n_antennas) * eta * wavelength / 2.0
    return out


def gma_rate(x: float, eta: int, user_scenarios, powers, n_antennas: int,
             wavelength: float, aperture: float) -> float:
    """Multiple-access rate sum_k log2(1 + p_k h_k^H C_k^-1 h_k) of a sliding sparse array.

    powers are per-user transmit powers normalized by the noise power; C_k is
    the interference-plus-noise covariance I + sum_{i != k} p_i h_i h_i^H: the
    sum rate of the MMSE combiner at unit noise power, computed as such.
    """
    pos = gma_positions(x, eta, n_antennas, wavelength)
    if x < 0 or pos[-1, 0] > aperture + 1e-12:
        raise InfeasibleError("sparse array does not fit in the movement region")
    h = multiuser_channels(pos, user_scenarios)
    p = np.asarray(powers, dtype=float).reshape(-1)
    return float(np.sum(user_sinr_and_rates(h, mmse_combiner(h, p, 1.0), p, 1.0)[1]))
