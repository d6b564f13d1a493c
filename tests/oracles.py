"""Reference implementations of the kernels: one oracle per kernel and kind of check.

Each function is an earlier implementation of a kernel, kept only as an
oracle for the code that replaced it: a property test runs both on the same
draws and compares them, bitwise or within a stated tolerance.  Constants of
a test module are arguments here.  The test modules import their oracles
from here and define none of their own.

An oracle is retired only where a remaining oracle gives bitwise-equal
results on the same draws; the test that used it then asserts against the
one that stays.  An oracle that checks another property (a tolerance rather
than bitwise equality, or another algorithm) stays, even where it computes
the same quantity.
"""

import math

import numpy as np

from makit import estimate
from makit.beamforming import (beam_gain, gma_positions, mimo_capacity, mrt, multiuser_channels,
                               steering_vector)
from makit.channel import (PathSet, RadiationPattern, channel_mimo, frv_tx, radiation_gain,
                           sample_directions, tap_of_delay)
from makit.errors import InfeasibleError
from makit.geometry import aom_from_euler
from makit.optimize import OptReport, SampledLine, crb_metric_2d, sensing_2d_ao
from makit.optimize.beams import _position_sweep, fpa_ula
from makit.optimize.mimo import _allocate_and_rate
from makit.geometry import _too_close
from makit.optimize.report import _HALVES, _STEP_CHUNKS, improves
from makit.optimize.search import _ascend, _fd_gradient
from makit.optimize.sensing import _corner_init, _feasible, _perimeter_init, sensing_1d_optimal
from makit.sensing import _golden_min


# ---------------------------------------------------------------------------
# field response and the narrowband channel: the per-position coordinate rule
# (a bare x is (x, 0, 0), (x, y) is (x, y, 0)) applied one point at a time

def ref_pos3(x):
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size == 2:
        p = np.append(p, 0.0)
    if p.size == 1:
        p = np.array([p[0], 0.0, 0.0])
    return p.reshape(3)


def ref_frm(positions, paths, wavelength):
    pos = np.asarray([ref_pos3(p) for p in positions])
    return np.exp(2j * np.pi / wavelength * (paths.wave_vectors @ pos.T))


def ref_channel_narrowband(t, r, scenario):
    g = ref_frm([t], scenario.tx_paths, scenario.wavelength)[:, 0]
    f = ref_frm([r], scenario.rx_paths, scenario.wavelength)[:, 0]
    return complex(f.conj() @ scenario.prm @ g)


# ---------------------------------------------------------------------------
# polarization and grid-field kernels: one orientation per Euler product, one
# wave vector per accs_basis call, one path pair per polarization product, one
# outer product per path on the grid

def ref_aom_from_euler(yaw, pitch, roll):
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def ref_accs_basis(k_hat):
    k = np.asarray(k_hat, dtype=float).reshape(3)
    if abs(np.linalg.norm(k) - 1.0) > 1e-9:
        raise ValueError("k_hat must have unit norm")
    z = np.array([0.0, 0.0, 1.0])
    i = z - (k @ z) * k
    n = np.linalg.norm(i)
    if n < 1e-9:
        return np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    i = i / n
    j = np.cross(k, i)
    return i, j


def ref_polarization_gain(tx_pattern, rx_pattern, psi, omega, k_t, k_r, pprm):
    psi = np.asarray(psi, dtype=float)
    omega = np.asarray(omega, dtype=float)
    k_t = np.asarray(k_t, dtype=float).reshape(3)
    k_r = np.asarray(k_r, dtype=float).reshape(3)
    lam = np.asarray(pprm, dtype=complex).reshape(2, 2)
    g_t = radiation_gain(tx_pattern, psi, k_t)
    g_r = radiation_gain(rx_pattern, omega, k_r)
    if g_t <= 0 or g_r <= 0:
        raise ValueError("polarization gain is undefined at zero radiation gain")
    i_t, j_t = ref_accs_basis(k_t)
    i_r, j_r = ref_accs_basis(k_r)
    kt_accs = psi.T @ k_t
    kr_accs = omega.T @ k_r
    ih_t, jh_t = ref_accs_basis(kt_accs)
    ih_r, jh_r = ref_accs_basis(kr_accs)
    row_rx = np.array([rx_pattern.f1(kr_accs), rx_pattern.f2(kr_accs)], dtype=complex) / g_r
    m_rx = np.array([[ih_r @ omega.T @ i_r, ih_r @ omega.T @ j_r],
                     [jh_r @ omega.T @ i_r, jh_r @ omega.T @ j_r]])
    m_tx = np.array([[i_t @ psi @ ih_t, i_t @ psi @ jh_t],
                     [j_t @ psi @ ih_t, j_t @ psi @ jh_t]])
    col_tx = np.array([tx_pattern.f1(kt_accs), tx_pattern.f2(kt_accs)], dtype=complex) / g_t
    return complex(row_rx @ m_rx @ lam @ m_tx @ col_tx)


def ref_prm_6dma(pprms, psi, omega, tx_pattern, rx_pattern, tx_paths, rx_paths):
    lr, lt = len(rx_paths), len(tx_paths)
    g_t = np.array([radiation_gain(tx_pattern, psi, k) for k in tx_paths.wave_vectors])
    g_r = np.array([radiation_gain(rx_pattern, omega, k) for k in rx_paths.wave_vectors])
    out = np.zeros((lr, lt), dtype=complex)
    for i in range(lr):
        if g_r[i] <= 0:
            continue
        for j in range(lt):
            if g_t[j] <= 0:
                continue
            gp = ref_polarization_gain(tx_pattern, rx_pattern, psi, omega,
                                       tx_paths.wave_vectors[j], rx_paths.wave_vectors[i],
                                       pprms[i, j])
            out[i, j] = g_r[i] * gp * g_t[j]
    return out


def ref_gain_field_minmax(k_vectors, b, side, step, wavelength):
    ax = np.arange(0.0, side + step / 2.0, step)
    n = len(ax)
    acc = np.zeros((n, n, n), dtype=complex)
    w = 2.0 * np.pi / wavelength
    for kl, bl in zip(k_vectors, b):
        if bl == 0:
            continue
        acc += bl * (np.exp(-1j * w * kl[0] * ax)[:, None, None]
                     * np.exp(-1j * w * kl[1] * ax)[None, :, None]
                     * np.exp(-1j * w * kl[2] * ax)[None, None, :])
    p = np.abs(acc) ** 2
    return float(p.max()), float(p.min()), float(p[0, 0, 0])


def today_gain_field_minmax(k_vectors, coeffs, side, step, wavelength, block=1 << 16):
    """The blocked-GEMM grid kernel the path-pair form replaced: per-axis tables Z and
    [Re XY; Im XY], then per block of (x, y) points one real product [[Re Zc^T, -Im Zc^T],
    [Im Zc^T, Re Zc^T]] [Re XY; Im XY] = [Re f; Im f], squared, added and summed over columns."""
    ax = np.arange(0.0, side + step / 2.0, step)
    x, y, z = np.exp(np.multiply.outer(-2j * np.pi / wavelength * np.asarray(k_vectors).T, ax))
    xy = (x[:, :, None] * y[:, None, :]).reshape(len(z), -1)
    xy = np.concatenate([xy.real, xy.imag])
    l, n = z.shape
    coeffs = np.asarray(coeffs, dtype=complex).reshape(l, -1)
    zc = (z[:, :, None] * coeffs[:, None, :]).reshape(l, -1).T
    zr = np.block([[zc.real, -zc.imag], [zc.imag, zc.real]])
    rows, points = len(zc), xy.shape[1]
    width = max(2, -(-points // max(1, round(points * rows / block))))
    hi, lo = -np.inf, np.inf
    for i in reversed(range(0, points, width)):
        i = min(i, max(points - 2, 0))
        f = zr @ xy[:, i:i + min(width, points - i)]
        f = f[:rows] ** 2 + f[rows:] ** 2
        p = f.reshape(n, -1, f.shape[1]).sum(axis=1)
        hi, lo = max(hi, p.max()), min(lo, p.min())
    return float(hi), float(lo), float(p[0, 0])


def ref_wideband_gain_minmax(rng, params, k, b, side, lam):
    bandwidth = params["bandwidth"]
    m_sub = int(params["subcarriers"])
    delays = rng.uniform(0.0, params["max_delay"], len(b))
    taps = np.array([tap_of_delay(d, bandwidth) for d in delays])
    n_taps = int(taps.max())
    ax = np.arange(0.0, side + params["grid_step"] * lam / 2.0, params["grid_step"] * lam)
    n = len(ax)
    w = 2.0 * np.pi / lam
    fields = np.zeros((n_taps, n, n, n), dtype=complex)
    for kl, bl, tau in zip(k, b, taps):
        fields[tau - 1] += bl * (np.exp(-1j * w * kl[0] * ax)[:, None, None]
                                 * np.exp(-1j * w * kl[1] * ax)[None, :, None]
                                 * np.exp(-1j * w * kl[2] * ax)[None, None, :])
    dft = np.exp(-2j * np.pi * np.outer(np.arange(m_sub), np.arange(n_taps)) / m_sub)
    cfr = np.tensordot(dft, fields, axes=(1, 0))
    p = np.mean(np.abs(cfr) ** 2, axis=0)
    return float(p.max()), float(p.min()), float(p[0, 0, 0])


def ref_trial_dof(params, seed, idx):
    lam = params["wavelength"]
    rng = np.random.default_rng(seed)
    n_paths = int(params["n_paths"])
    k = sample_directions(rng, n_paths, "sphere")
    amp = np.sqrt(1.0 / (2.0 * n_paths)) * (rng.standard_normal(n_paths)
                                            + 1j * rng.standard_normal(n_paths))
    ang = rng.uniform(0.0, 2.0 * np.pi, n_paths)
    pprms = np.zeros((n_paths, n_paths, 2, 2), dtype=complex)
    for l in range(n_paths):
        c, s = np.cos(ang[l]), np.sin(ang[l])
        pprms[l, l] = amp[l] * np.array([[c, -s], [s, c]])
    tx_paths = PathSet(sample_directions(rng, n_paths, "sphere"))
    rx_paths = PathSet(k)
    tx_pat = RadiationPattern.isotropic()
    patterns = {"iso": RadiationPattern.isotropic(),
                "dir": RadiationPattern.ideal_directional(params["gain_dbi"])}
    side = params["region_side"] * lam
    step = params["grid_step"] * lam
    ng = int(params["orientation_grid"])
    yaws = np.linspace(0.0, 2 * np.pi, ng, endpoint=False)
    pitches = np.linspace(-np.pi / 2, np.pi / 2, max(2, ng // 2))
    rolls = np.linspace(0.0, 2 * np.pi, ng, endpoint=False)
    orientations = [aom_from_euler(y, p, r) for y in yaws for p in pitches for r in rolls]
    flat = [float(idx)]
    for name, pat in patterns.items():
        def coeffs(om):
            sig = ref_prm_6dma(pprms, np.eye(3), om, tx_pat, pat, tx_paths, rx_paths)
            return np.diag(sig)

        b0 = coeffs(np.eye(3))
        g_pos, _, g_fpa = ref_gain_field_minmax(k, b0, side, step, lam)
        g_orient = 0.0
        g_joint = 0.0
        for om in orientations:
            bv = coeffs(om)
            g_orient = max(g_orient, float(abs(np.sum(bv)) ** 2))
            if params["joint"]:
                g_joint = max(g_joint, ref_gain_field_minmax(k, bv, side, step, lam)[0])
        if not params["joint"]:
            g_joint = max(g_pos, g_orient)
        flat.extend([g_fpa, g_pos, g_orient, g_joint])
    return flat


# ---------------------------------------------------------------------------
# the spacing rule: a pair is too close unless |a - b| >= d_min (1 - 1e-12), so
# a pair at exactly d_min passes.  The step mask and pairwise check of the
# placement ascent, the candidate mask of the 2D sensing ascent and the pair
# mask of validate_placement each wrote this comparison out on its own.

def ref_too_close(a, b, d_min):
    d = np.linalg.norm(a[..., :, None, :] - b[..., None, :, :], axis=-1)
    return ~(d >= d_min * (1 - 1e-12))


def _spaced(pos, d_min):
    close = ref_too_close(pos, pos, d_min)
    np.fill_diagonal(close, False)
    return not close.any()


# ---------------------------------------------------------------------------
# water-filling (a 200-step bisection, and the exact sort before it took
# stacks) and the one-placement kernels under the placement objectives

def ref_water_filling(singular_values, total_power, sigma2, tol=1e-12):
    s = np.asarray(singular_values, dtype=float).reshape(-1)
    active = s > 1e-300
    inv = np.full_like(s, np.inf)
    inv[active] = sigma2 / s[active] ** 2
    lo = float(np.min(inv))
    hi = lo + total_power + float(np.max(inv[np.isfinite(inv)]))
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        p = np.maximum(0.0, mu - inv)
        if abs(p.sum() - total_power) < tol:
            break
        if p.sum() > total_power:
            hi = mu
        else:
            lo = mu
    p = np.maximum(0.0, 0.5 * (lo + hi) - inv)
    on = p > 0
    if np.any(on):
        p[on] += (total_power - p.sum()) / on.sum()
        p = np.maximum(p, 0.0)
    return p


def scalar_water_filling(singular_values, total_power, sigma2):
    s = np.asarray(singular_values, dtype=float).reshape(-1)
    if total_power <= 0:
        raise ValueError("power budget must be > 0")
    active = s > 1e-300
    inv = np.full_like(s, np.inf)
    inv[active] = sigma2 / s[active] ** 2
    srt = np.sort(inv[np.isfinite(inv)])
    if srt.size == 0:
        raise ValueError("all singular values are zero")
    levels = (total_power + np.cumsum(srt)) / np.arange(1, srt.size + 1)
    below = np.flatnonzero(srt < levels)
    k = below[-1] + 1 if below.size else 1
    on = inv <= srt[k - 1]
    p = np.where(on, levels[k - 1] - inv, 0.0)
    p[on] += (total_power - p.sum()) / on.sum()
    return np.maximum(p, 0.0)


def scalar_mimo_capacity(h, total_power, sigma2):
    h = np.asarray(h, dtype=complex)
    s = np.linalg.svd(h, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0.0
    p = scalar_water_filling(s, total_power, sigma2)
    return float(np.sum(np.log2(1.0 + p * s ** 2 / sigma2)))


def scalar_zf_combiner(h):
    h = np.asarray(h, dtype=complex)
    n, k = h.shape
    if k > n:
        raise ValueError("zero forcing needs at least as many antennas as users")
    if np.linalg.matrix_rank(h) < k:
        raise ValueError("channel matrix is rank deficient")
    return h @ np.linalg.inv(h.conj().T @ h)


def scalar_mmse_combiner(h, powers, sigma2):
    h = np.asarray(h, dtype=complex)
    p = np.asarray(powers, dtype=float).reshape(-1)
    n, k = h.shape
    cov = (h * p) @ h.conj().T + (sigma2 + 1e-15) * np.eye(n)
    w = np.linalg.solve(cov, h)
    return w / np.linalg.norm(w, axis=0, keepdims=True)


def scalar_user_sinr_and_rates(h, w, powers, sigma2):
    h = np.asarray(h, dtype=complex)
    w = np.asarray(w, dtype=complex)
    p = np.asarray(powers, dtype=float).reshape(-1)
    cross = np.abs(w.conj().T @ h) ** 2
    sig = np.diag(cross) * p
    interference = cross @ p - np.diag(cross) * p
    noise = np.linalg.norm(w, axis=0) ** 2 * sigma2
    sinr = sig / (interference + noise)
    return sinr, np.log2(1.0 + sinr)


def ref_gma_rate(x, eta, user_scenarios, powers, n_antennas, wavelength):
    """beamforming.gma_rate's sum over users of log2(1 + p_k h_k^H C_k^-1 h_k), one solve a user."""
    h = multiuser_channels(gma_positions(x, eta, n_antennas, wavelength), user_scenarios)
    p = np.asarray(powers, dtype=float).reshape(-1)
    total = np.eye(len(h), dtype=complex) + (h * p) @ h.conj().T
    rate = 0.0
    for j in range(h.shape[1]):
        ck = total - p[j] * np.outer(h[:, j], h[:, j].conj())
        rate += np.log2(1.0 + np.real(p[j] * h[:, j].conj() @ np.linalg.solve(ck, h[:, j])))
    return float(rate)


def _channel_from_frm(tx, rx, sc):
    g = ref_frm(tx, sc.tx_paths, sc.wavelength)
    f = ref_frm(rx, sc.rx_paths, sc.wavelength)
    return f.conj().T @ sc.prm @ g


def scalar_multiuser_channels(positions, users):
    return np.stack([_channel_from_frm(np.zeros((1, 3)), positions, sc).reshape(-1)
                     for sc in users], axis=1)


def scalar_ensemble_capacity(tx, rx, ensemble, power, sigma2):
    return float(np.mean([scalar_mimo_capacity(_channel_from_frm(tx, rx, sc), power, sigma2)
                          for sc in ensemble]))


def scalar_allocate_and_rate(h, combiner, utility, budget, power, sigma2):
    n, k = h.shape
    if combiner == "zf":
        w = scalar_zf_combiner(h)
        gains = 1.0 / (np.linalg.norm(w, axis=0) ** 2 * sigma2)
        if budget == "max":
            p = np.full(k, power)
        elif utility == "sum":
            p = scalar_water_filling(np.sqrt(sigma2 * gains), power, sigma2)
        else:
            inv = 1.0 / gains
            p = power * inv / inv.sum()
    else:
        p = np.full(k, power if budget == "max" else power / k)
        w = scalar_mmse_combiner(h, p, sigma2)
    return scalar_user_sinr_and_rates(h, w, p, sigma2)[1]


def scalar_mean_utility(positions, draws, combiner, utility, budget, power, sigma2):
    vals = []
    for users in draws:
        h = scalar_multiuser_channels(positions, users)
        try:
            rates = scalar_allocate_and_rate(h, combiner, utility, budget, power, sigma2)
        except (ValueError, np.linalg.LinAlgError):
            return -np.inf
        vals.append(np.sum(rates) if utility == "sum" else np.min(rates))
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# the 2D sensing placement: a coordinate-descent CRB scan that scores one
# candidate layout per call

def ref_effective_variances(xy):
    x, y = xy[..., 0], xy[..., 1]
    vx, vy = np.var(x, axis=-1), np.var(y, axis=-1)
    cov = np.mean(x * y, axis=-1) - np.mean(x, axis=-1) * np.mean(y, axis=-1)
    cov2 = np.reshape([c ** 2 for c in np.ravel(cov).tolist()], np.shape(cov))
    lone = np.where(cov == 0, 0.0, np.inf)
    return (vx - np.divide(cov2, vy, out=lone.copy(), where=vy > 0),
            vy - np.divide(cov2, vx, out=lone, where=vx > 0))


def ref_crb_metric_2d(xy, metric, coef):
    x, y = xy[:, 0], xy[:, 1]
    vx, vy = np.var(x), np.var(y)
    cov = np.mean(x * y) - np.mean(x) * np.mean(y)
    ex = vx - (cov ** 2 / vy if vy > 0 else (0.0 if cov == 0 else np.inf))
    ey = vy - (cov ** 2 / vx if vx > 0 else (0.0 if cov == 0 else np.inf))
    if ex <= 0 or ey <= 0:
        return np.inf
    if metric == "max":
        return coef * max(1.0 / ex, 1.0 / ey)
    return coef * (1.0 / ex + 1.0 / ey)


def ref_sensing_2d_ao(n, extents, d_min, metric, coef, max_sweeps, n_grid, seed):
    ax, ay = (float(e) for e in extents[:2])
    if ax <= 0 or ay <= 0:
        x = sensing_1d_optimal(n, max(ax, ay), d_min)
        xy = np.zeros((n, 2))
        xy[:, 0 if ax > 0 else 1] = x
        score = coef / np.var(x)
        return xy, float(score), [float(score)], 0, 0
    if d_min > 0 and n > (math.floor(ax / d_min) + 1) * (math.floor(ay / d_min) + 1):
        raise InfeasibleError("too many antennas for the region at the required spacing")
    rng = np.random.default_rng(seed)
    starts = [c for c in (_perimeter_init(n, ax, ay), _corner_init(n, ax, ay, d_min))
              if _feasible(c, ax, ay, d_min)]
    for _ in range(3):
        cand = rng.uniform(0, 1, (n, 2)) * (ax, ay)
        if _feasible(cand, ax, ay, d_min):
            starts.append(cand)
    if not starts:
        cols = math.floor(ax / d_min) + 1
        cand = np.array([(d_min * (i % cols), d_min * (i // cols)) for i in range(n)], dtype=float)
        if not _feasible(cand, ax, ay, d_min):
            raise InfeasibleError("could not build a feasible starting placement")
        starts.append(cand)
    best, sweeps = None, 0
    for xy0 in starts:
        xy = xy0.copy()
        cur = ref_crb_metric_2d(xy, metric, coef)
        trace = [cur]
        for _ in range(max_sweeps):
            improved, sweeps = False, sweeps + 1
            for i in range(n):
                for axis, hi in ((0, ax), (1, ay)):
                    orig = xy[i, axis]
                    best_v, best_c = np.inf, orig
                    for c in np.linspace(0.0, hi, n_grid):
                        xy[i, axis] = c
                        others = np.delete(xy, i, axis=0)
                        if d_min > 0 and ref_too_close(xy[i:i + 1], others, d_min).any():
                            continue
                        v = ref_crb_metric_2d(xy, metric, coef)
                        if v < best_v:
                            best_v, best_c = v, c
                    xy[i, axis] = orig
                    if improves(-best_v, -cur):
                        xy[i, axis], cur, improved = best_c, best_v, True
            trace.append(cur)
            if not improved:
                break
        if best is None or cur < best[1]:
            best = (xy, float(cur), trace, len(trace) - 1)
    # the layouts a scan of n_grid candidates per (antenna, axis) scores, after one per start
    return best + (len(starts) + sweeps * 2 * n * n_grid,)


# ---------------------------------------------------------------------------
# the placement ascent: each optimizer's own sweep-until-stall loop around a
# per-antenna sweep that evaluated the objective again at its start

def _feasible_start(pos, region):
    return all(region.contains(q, tol=1e-6) for q in pos) and _spaced(pos, region.d_min)


def ref_sweep(positions, region, objective, fd_step, step0, accepted=None):
    """accepted, when given, receives each moved antenna's accepted step (None: all rejected)."""
    pos = positions.copy()
    cur = objective(pos)
    improved_any = False
    for i in range(len(pos)):
        grad = np.zeros(3)
        for d in range(3):
            e = np.zeros(3)
            e[d] = fd_step
            hi = region.clip(pos[i] + e)
            lo = region.clip(pos[i] - e)
            denom = hi[d] - lo[d]
            if denom <= 0:
                continue
            p_hi = pos.copy()
            p_hi[i] = hi
            p_lo = pos.copy()
            p_lo[i] = lo
            va = objective(p_hi)
            vb = objective(p_lo)
            if not np.isfinite(va) or not np.isfinite(vb):
                continue
            grad[d] = (va - vb) / denom
        gn = np.linalg.norm(grad)
        if gn == 0:
            continue
        s = step0
        for j in range(20):
            cand = pos.copy()
            cand[i] = region.clip(pos[i] + s * grad / gn)
            if _spaced(cand, region.d_min):
                v = objective(cand)
                if improves(v, cur):
                    pos, cur = cand, v
                    improved_any = True
                    break
            s *= 0.5
        else:
            j = None
        if accepted is not None:
            accepted.append(j)
    return pos, cur, improved_any


def today_sweep_antennas(positions, region, score, cur, fd_step, step0):
    """The stacked sweep as it was before steps clipped back onto the moving antenna
    were dropped: every step that keeps the spacing is scored."""
    pos = positions.copy()
    improved_any = False
    steps = step0 * _HALVES
    for i in range(len(pos)):
        def placements(p):  # pos with antenna i at each row of p
            q = np.repeat(pos[None], len(p), axis=0)
            q[:, i] = p
            return q

        grad = _fd_gradient(lambda p: score(placements(p)), pos[i], region, fd_step)
        gn = np.linalg.norm(grad)
        if gn == 0:
            continue
        cand = region.clip(pos[i] + steps[:, None] * grad / gn)
        feasible = ~_too_close(cand, np.delete(pos, i, axis=0), region.d_min).any(axis=1)
        for lo, hi in _STEP_CHUNKS:
            j = lo + np.flatnonzero(feasible[lo:hi])
            if not j.size:
                continue
            vals = score(placements(cand[j]))
            gain = np.flatnonzero(improves(vals, cur))
            if gain.size:
                pos[i], cur = cand[j[gain[0]]], vals[gain[0]]
                improved_any = True
                break
    return pos, cur, improved_any


def ref_mimo(ensemble, tx_region, rx_region, init_tx, init_rx, max_sweeps, power, sigma2,
             fd_step=5e-3, step0=0.25):
    lam = ensemble[0].wavelength
    tx = np.asarray(init_tx, dtype=float).reshape(-1, 3).copy()
    rx = np.asarray(init_rx, dtype=float).reshape(-1, 3).copy()
    if not _feasible_start(tx, tx_region) or not _feasible_start(rx, rx_region):
        raise InfeasibleError("initial placement is infeasible")

    def capacity(t, r):
        return float(np.mean([mimo_capacity(channel_mimo(t, r, sc), power, sigma2)
                              for sc in ensemble]))

    cur = capacity(tx, rx)
    trace = [cur]
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        tx, _, imp_t = ref_sweep(tx, tx_region, lambda t: capacity(t, rx),
                                 fd_step * lam, step0 * lam)
        rx, cur2, imp_r = ref_sweep(rx, rx_region, lambda r: capacity(tx, r),
                                    fd_step * lam, step0 * lam)
        cur = max(cur, cur2)
        trace.append(cur)
        if not (imp_t or imp_r):
            break
    return np.vstack([tx, rx]), cur, trace, sweeps


def ref_multiuser(draws, region, init_rx, utility, mode, eta, max_sweeps, power, sigma2,
                  bisection_iters=3, fd_step=5e-3, step0=0.25):
    lam = draws[0][0].wavelength
    rx0 = np.asarray(init_rx, dtype=float).reshape(-1, 3)
    if not _feasible_start(rx0, region):
        raise InfeasibleError("initial base-station placement is infeasible")

    def score_at(positions, budget_power):
        vals = []
        for users in draws:
            h = multiuser_channels(positions, users)
            try:
                _, _, rates = _allocate_and_rate(h, "zf", utility, "sum", budget_power, sigma2)
            except (ValueError, np.linalg.LinAlgError):
                return -np.inf
            vals.append(np.sum(rates) if utility == "sum" else np.min(rates))
        return float(np.mean(vals))

    def solve_rate(budget_power, start):
        pos = start.copy()
        cur = score_at(pos, budget_power)
        trace = [cur]
        for _ in range(max_sweeps):
            pos, cur2, improved = ref_sweep(
                pos, region, lambda q: score_at(q, budget_power), fd_step * lam, step0 * lam)
            cur = max(cur, cur2)
            trace.append(cur)
            if not improved:
                break
        return pos, cur, trace

    if mode == "rate":
        pos, cur, trace = solve_rate(power, rx0)
        return pos, cur, trace, len(trace) - 1
    p_hi = power
    pos, val, _ = solve_rate(p_hi, rx0)
    grow = 0
    while val < eta and grow < 12:
        p_hi *= 2.0
        pos, val, _ = solve_rate(p_hi, pos)
        grow += 1
    if val < eta:
        raise InfeasibleError("rate target unreachable")
    p_lo, best_pos, best_p = 0.0, pos, p_hi
    for _ in range(bisection_iters):
        mid = 0.5 * (p_lo + p_hi)
        pos_mid, val_mid, _ = solve_rate(mid, best_pos)
        if val_mid >= eta:
            p_hi, best_pos, best_p = mid, pos_mid, mid
        else:
            p_lo = mid
    return best_pos, best_p, [best_p], bisection_iters


def ref_isac(ensemble, tx, region, init_rx, mode, threshold, max_sweeps, power, sigma2,
             fd_step=5e-3, step0=0.25):
    lam = ensemble[0].wavelength
    tx = np.asarray(tx, dtype=float).reshape(-1, 3)

    def capacity(rx):
        return float(np.mean([mimo_capacity(channel_mimo(tx, rx, sc), power, sigma2)
                              for sc in ensemble]))

    def crb(rx):
        return crb_metric_2d(np.asarray(rx)[:, :2], "max", 1.0)

    rx = np.asarray(init_rx, dtype=float).reshape(-1, 3).copy()
    n_r = len(rx)
    if mode == "com":
        crb_opt = sensing_2d_ao(n_r, region.extents[:2], region.d_min, metric="max", coef=1.0)
        if crb_opt.best_score > threshold:
            raise InfeasibleError("CRB threshold below the best achievable")
        if crb(rx) > threshold:
            rx = np.column_stack([crb_opt.best_placement, np.zeros(n_r)])
        objective, constraint = capacity, lambda q: crb(q) <= threshold
        sense = 1.0
    else:
        unc = rx.copy()
        best_cap = capacity(unc)
        for _ in range(max_sweeps):
            unc, cap2, improved = ref_sweep(unc, region, capacity, fd_step * lam, step0 * lam)
            best_cap = max(best_cap, cap2)
            if not improved:
                break
        if best_cap < threshold:
            raise InfeasibleError("capacity target unreachable")
        rx = unc
        objective, constraint = lambda q: -crb(q), lambda q: capacity(q) >= threshold
        sense = -1.0

    def guarded(q):
        return objective(q) if constraint(q) else -np.inf

    cur = guarded(rx)
    trace = [sense * cur]
    for _ in range(max_sweeps):
        rx, cur2, improved = ref_sweep(rx, region, guarded, fd_step * lam, step0 * lam)
        cur = max(cur, cur2)
        trace.append(sense * cur)
        if not improved:
            break
    return rx, sense * cur, trace, len(trace) - 1


# ---------------------------------------------------------------------------
# the public searchers and the line sampler: a scalar objective or channel,
# called once per grid point, ascent candidate, particle or line sample

def scalar_grid_search_position(objective, region, step, sense="max"):
    pts = region.grid_points(step)
    if len(pts) == 0:
        raise ValueError("empty search grid")
    sign = 1.0 if sense == "max" else -1.0
    best_val = -np.inf
    best_idx = 0
    for i, p in enumerate(pts):
        v = sign * float(objective(p))
        if v > best_val:
            best_val, best_idx = v, i
    return OptReport(best_placement=pts[best_idx], best_score=sign * best_val,
                     iterations=len(pts), trace=[sign * best_val])


def scalar_gradient_position_search(objective, region, start, max_iter=200, sense="max"):
    sign = 1.0 if sense == "max" else -1.0
    _, rep = _ascend([(start, region)],
                     lambda stack: np.array([sign * float(objective(p[0])) for p in stack]),
                     max_iter, 1e-4, 1e-2)
    rep.best_placement, rep.best_score = rep.best_placement[0], sign * rep.best_score
    rep.trace = [sign * v for v in rep.trace]
    return rep


def scalar_pso(objective, dim, bounds, n_particles=30, n_iter=100, seed=0, inertia=0.7,
               cognitive=1.5, social=1.5, sense="min"):
    lo, hi = (np.asarray(b, dtype=float).reshape(-1) for b in bounds)
    sign = -1.0 if sense == "min" else 1.0
    f = lambda p: sign * float(objective(p))
    rng = np.random.default_rng(seed)
    span = hi - lo
    pos = lo + rng.random((n_particles, dim)) * span
    vel = (rng.random((n_particles, dim)) - 0.5) * span
    pbest = pos.copy()
    pval = np.array([f(p) for p in pos])
    gi = int(np.argmax(pval))
    gbest, gval = pbest[gi].copy(), pval[gi]
    trace = [sign * gval]
    for _ in range(n_iter):
        r1 = rng.random((n_particles, dim))
        r2 = rng.random((n_particles, dim))
        vel = inertia * vel + cognitive * r1 * (pbest - pos) + social * r2 * (gbest - pos)
        pos = np.clip(pos + vel, lo, hi)
        vals = np.array([f(p) for p in pos])
        better = vals > pval
        pbest[better] = pos[better]
        pval[better] = vals[better]
        gi = int(np.argmax(pval))
        if pval[gi] > gval:
            gbest, gval = pbest[gi].copy(), pval[gi]
        trace.append(sign * gval)
    return OptReport(best_placement=gbest, best_score=sign * gval, iterations=n_iter,
                     trace=trace)


def scalar_from_channel(channel_fn, length, m, d_min):
    pos = (np.arange(1, m + 1)) * (length / m)
    amps = np.array([abs(channel_fn(x)) for x in pos])
    return SampledLine(length=length, amplitudes=amps, d_min=d_min)


def scalar_miso_line_channel(scenario):
    b = scenario.prm @ np.ones(len(scenario.tx_paths), dtype=complex)

    def h_at(x):
        return complex(np.conj(b) @ frv_tx((x, 0.0, 0.0), scenario.tx_paths, scenario.wavelength))

    return h_at


# ---------------------------------------------------------------------------
# beam weights and positions: the scalar ascent (one start at a time, one
# backtracking step per score call) with its gain product as an argument, the
# single-placement lockstep ascent, the per-angle and the rebuilt position
# sweeps, and the sequential refinement chains

def today_gains(a, w):
    return a @ w.conj()


def batched_gains(a, w):
    return (np.repeat(w.conj()[None], 20, axis=0) @ a.T)[0]


def ref_max_min_awv(x, thetas, wavelength, analog=False, seed=0, w0=None, n_iter=300,
                    gains=today_gains):
    x = np.asarray(x, dtype=float).reshape(-1)
    n = len(x)
    a = np.stack([steering_vector(x, t, wavelength) for t in np.atleast_1d(thetas)])
    rng = np.random.default_rng(seed)

    def project(w):
        if analog:
            ph = np.angle(w)
            return np.exp(1j * ph) / math.sqrt(n)
        return w / np.linalg.norm(w)

    def score(w):
        return float(np.min(np.abs(gains(a, w)) ** 2))

    k = a.shape[0]
    pick = range(k) if k <= 12 else np.linspace(0, k - 1, 12).astype(int)
    starts = [mrt(a[i]) for i in pick]
    aligned = mrt(np.sum(a * np.exp(-1j * np.angle(a[:, :1])), axis=0))
    starts.append(aligned)
    if w0 is not None:
        starts.append(np.asarray(w0, dtype=complex).reshape(-1))
    for _ in range(3):
        starts.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))

    best_w, best_v = None, -1.0
    for w in starts:
        w = project(w)
        cur = score(w)
        step = 0.5
        for _ in range(n_iter):
            g = gains(a, w)
            kmin = int(np.argmin(np.abs(g) ** 2))
            grad = a[kmin] * np.conj(g[kmin])
            improved = False
            s = step
            for _ in range(20):
                cand = project(w + s * grad)
                v = score(cand)
                if improves(v, cur):
                    w, cur, improved = cand, v, True
                    break
                s *= 0.5
            if improved:
                step = min(1.0, s * 2.0)
            else:
                break
        if cur > best_v:
            best_w, best_v = w, cur
    return best_w, best_v


def ref_position_sweep(x, thetas, w, wavelength, aperture, d_min, n_grid=48):
    x = x.copy()
    a_all = np.atleast_1d(thetas)

    def score(xx):
        return min(beam_gain(xx, w, t, wavelength) for t in a_all)

    cur = score(x)
    for i in range(len(x)):
        lo = x[i - 1] + d_min if i > 0 else 0.0
        hi = x[i + 1] - d_min if i < len(x) - 1 else aperture
        if hi <= lo:
            continue
        cand = np.linspace(lo, hi, n_grid)
        orig, best_xi, best_v = x[i], x[i], -np.inf
        for c in cand:
            x[i] = c
            v = score(x)
            if v > best_v:
                best_xi, best_v = c, v
        x[i] = orig
        if improves(best_v, cur):
            x[i], cur = best_xi, best_v
    return x, cur


def today_max_min_awv(x, thetas, wavelength, analog=False, seed=0, w0=None, n_iter=300):
    x = np.asarray(x, dtype=float).reshape(-1)
    n = len(x)
    a = steering_vector(x, np.atleast_1d(thetas), wavelength)  # (K, N)
    rng = np.random.default_rng(seed)

    def project(w):
        if analog:
            return np.exp(1j * np.angle(w)) / math.sqrt(n)
        return w / np.linalg.norm(w, axis=-1, keepdims=True)

    k = a.shape[0]
    pick = range(k) if k <= 12 else np.linspace(0, k - 1, 12).astype(int)
    starts = [mrt(a[i]) for i in pick]
    starts.append(mrt(np.sum(a * np.exp(-1j * np.angle(a[:, :1])), axis=0)))
    if w0 is not None:
        starts.append(np.asarray(w0, dtype=complex).reshape(-1))
    starts.extend(rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3))

    w = project(np.stack(starts))  # (S, N)
    g = w.conj() @ a.T  # complex gains a @ w^*, (S, K)
    cur = np.min(np.abs(g), axis=1) ** 2
    step = np.full(len(w), 0.5)
    live = np.arange(len(w))
    for _ in range(n_iter):
        if not live.size:
            break
        gl = g[live]
        kmin = np.argmin(np.abs(gl) ** 2, axis=1)
        grad = a[kmin] * np.conj(gl[np.arange(len(live)), kmin])[:, None]
        s = step[live, None] * 0.5 ** np.arange(20)  # (L, 20)
        cand = project(w[live, None, :] + s[..., None] * grad[:, None, :])
        gc = cand.conj() @ a.T  # (L, 20, K)
        v = np.min(np.abs(gc), axis=2) ** 2
        ok = improves(v, cur[live, None])
        hit = np.flatnonzero(ok.any(axis=1))
        j = ok[hit].argmax(axis=1)
        live = live[hit]
        w[live], g[live], cur[live] = cand[hit, j], gc[hit, j], v[hit, j]
        step[live] = np.minimum(1.0, s[hit, j] * 2.0)
    best = int(np.argmax(cur))
    return w[best], float(cur[best])


def today_position_sweep(x, thetas, w, wavelength, aperture, d_min, n_grid=48):
    x = x.copy()
    cur = np.min(beam_gain(x, w, thetas, wavelength))
    for i in range(len(x)):
        lo = x[i - 1] + d_min if i > 0 else 0.0
        hi = x[i + 1] - d_min if i < len(x) - 1 else aperture
        if hi <= lo:
            continue
        cand = np.repeat(x[None, :], n_grid, axis=0)
        cand[:, i] = np.linspace(lo, hi, n_grid)
        v = np.min(beam_gain(cand, w, thetas, wavelength), axis=1)
        j = np.argmax(v)
        if improves(v[j], cur):
            x[i], cur = cand[j, i], v[j]
    return x, cur


def today_ao_candidates(starts, thetas, wavelength, aperture, d_min, analog, seed, max_sweeps,
                        n_refine=3):
    """The sequential chain loop, returning the fixed array's own standalone ascent as
    the baseline."""
    if not starts:
        raise InfeasibleError("no feasible starting placement fits the region")
    fpa = today_max_min_awv(fpa_ula(len(starts[0]), wavelength), thetas, wavelength,
                            analog=analog, seed=seed)
    scored = []
    for x0 in starts:
        w, v = today_max_min_awv(x0, thetas, wavelength, analog=analog, seed=seed)
        scored.append((v, x0, w))
    order = sorted(range(len(scored)), key=lambda i: -scored[i][0])

    out = []
    for i in order[:n_refine]:
        cur, x, w = scored[i]
        trace = [cur]
        for _ in range(max_sweeps):
            x_new, _ = _position_sweep(x, thetas, w, wavelength, aperture, d_min)
            w_new, v_new = today_max_min_awv(x_new, thetas, wavelength, analog=analog,
                                             seed=seed, w0=w)
            if improves(v_new, cur):
                x, w, cur = x_new, w_new, v_new
                trace.append(cur)
            else:
                break
        out.append((cur, x, w, trace))
    for v, x0, w in (scored[i] for i in order[n_refine:]):
        out.append((v, x0, w, [v]))
    return out, fpa


# ---------------------------------------------------------------------------
# MUSIC and snapshots: the steering vector written out per call, the noise
# projector E_n E_n^H, a three-operand einsum over the 1D grid and a per-row
# loop over the 2D grid

def ref_array_response(placement, u, v, wavelength):
    p = np.asarray(placement, dtype=float)
    if p.ndim == 1:
        phase = p * u
    else:
        phase = p[:, 0] * u + (p[:, 1] * v if v is not None else 0.0)
    return np.exp(2j * np.pi / wavelength * phase)


def ref_noise_projector(y):
    n, t = y.shape
    cov = (y @ y.conj().T) / t
    _, vecs = np.linalg.eigh(cov)
    en = vecs[:, : n - 1]
    return en @ en.conj().T


def ref_music_1d(y, placement, wavelength, grid=2048, tol=1e-6):
    y = np.asarray(y, dtype=complex)
    x = np.asarray(placement, dtype=float).reshape(-1)
    proj = ref_noise_projector(y)
    ug = np.linspace(-1.0, 1.0, grid)
    ag = np.exp(2j * np.pi / wavelength * np.outer(ug, x))
    denom = np.einsum("gi,ij,gj->g", ag.conj(), proj, ag).real
    i = int(np.argmin(denom))

    def f(u):
        a = np.exp(2j * np.pi / wavelength * x * u)
        return float(np.real(a.conj() @ proj @ a))

    lo, hi = ug[max(0, i - 1)], ug[min(grid - 1, i + 1)]
    return _golden_min(f, lo, hi, tol)


def ref_music_2d(y, placement, wavelength, grid=181, tol=1e-6):
    y = np.asarray(y, dtype=complex)
    p = np.asarray(placement, dtype=float).reshape(-1, 2)
    proj = ref_noise_projector(y)
    ug = np.linspace(-1.0, 1.0, grid)
    ex = np.exp(2j * np.pi / wavelength * np.outer(ug, p[:, 0]))
    ey = np.exp(2j * np.pi / wavelength * np.outer(ug, p[:, 1]))
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
        u = _golden_min(lambda uu: f((uu, v)), max(-1.0, u - span), min(1.0, u + span), tol)
        v_new = _golden_min(lambda vv: f((u, vv)), max(-1.0, v - span), min(1.0, v + span), tol)
        if abs(v_new - v) < tol and span < 16 * tol:
            v = v_new
            break
        v = v_new
        span = max(span / 2.0, 8 * tol)
    if u ** 2 + v ** 2 > 1.0:
        r = math.hypot(u, v)
        u, v = u / r, v / r
    return u, v


def ref_simulate_snapshots(setup, seed):
    rng = np.random.default_rng(seed)
    s = math.sqrt(setup.power) * np.exp(2j * np.pi * rng.random(setup.snapshots))
    alpha = ref_array_response(setup.placement, setup.u, setup.v, setup.wavelength)
    y = setup.beta * np.outer(alpha, s)
    if setup.noise_power > 0:
        scale = math.sqrt(setup.noise_power / 2.0)
        y = y + scale * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    return y


# ---------------------------------------------------------------------------
# sparse channel acquisition: one pursuit loop, with the dictionary atom picker
# of omp and the blocked Tx-by-Rx pair picker of omp_joint

def ref_pursuit(y, n_atoms, noise_power, pick, columns):
    """The greedy loop of omp and omp_joint as each wrote it out before they shared one.

    pick(res, chosen) gives (atom, |correlation|) of the best atom outside
    `chosen`, atom None when none is left; columns(chosen) gives the (M, k)
    dictionary columns of the chosen atoms.
    """
    m = len(y)
    stop = 1.1 * math.sqrt(m * noise_power)
    res = y.copy()
    chosen = []
    converged = True
    coef = np.zeros(0, dtype=complex)
    for _ in range(n_atoms):
        if np.linalg.norm(res) <= max(stop, 1e-12 * np.linalg.norm(y)):
            break
        atom, val = pick(res, chosen)
        if atom is None or val <= 1e-12 * np.linalg.norm(y) * math.sqrt(m):
            converged = False
            break
        chosen.append(atom)
        sub = columns(chosen)
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        res = y - sub @ coef
    if len(chosen) < n_atoms and np.linalg.norm(res) > max(stop, 1e-12 * np.linalg.norm(y)):
        converged = False
    return chosen, coef, float(np.linalg.norm(res)), converged


def ref_omp(dictionary, y, n_atoms, noise_power=0.0):
    a = np.asarray(dictionary, dtype=complex)

    def pick(res, chosen):
        corr = np.abs(a.conj().T @ res)
        corr[chosen] = -1.0
        j = int(np.argmax(corr))
        return j, corr[j]

    chosen, coef, residual, converged = ref_pursuit(np.asarray(y, dtype=complex).reshape(-1),
                                                    n_atoms, noise_power, pick,
                                                    lambda chosen: a[:, chosen])
    return np.array(chosen, dtype=int), coef, residual, converged


def ref_omp_joint(ms, g, n_paths, wavelength, block=512, picks=None):
    """omp_joint with its atom tables written out as one complex exp per entry.

    When picks is a list, it receives per chosen atom (its pair, |correlation| of
    every (Tx, Rx) pair at that step, earlier picks set to -1).
    """
    grid = estimate.uv_grid(g)
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    uv = np.column_stack([uu.ravel(order="F"), vv.ravel(order="F")])
    at = np.exp(2j * np.pi / wavelength * (uv @ ms.tx_positions[:, :2].T))
    ar = np.exp(-2j * np.pi / wavelength * (uv @ ms.rx_positions[:, :2].T))
    n2 = at.shape[0]

    def pick(res, chosen):
        best_val, best_pq, blocks = -1.0, None, []
        for p0 in range(0, n2, block):
            p1 = min(p0 + block, n2)
            corr = np.abs((at[p0:p1].conj() * res[None, :]) @ ar.conj().T)
            for (pp, qq) in chosen:
                if p0 <= pp < p1:
                    corr[pp - p0, qq] = -1.0
            blocks.append(corr)
            flat = int(np.argmax(corr))
            val = float(corr.ravel()[flat])
            if val > best_val:
                best_val = val
                best_pq = (p0 + flat // corr.shape[1], flat % corr.shape[1])
        if picks is not None:
            picks.append((best_pq, np.vstack(blocks)))
        return best_pq, best_val

    chosen, coef, residual, converged = ref_pursuit(
        ms.pilots, n_paths, ms.noise_power, pick,
        lambda chosen: np.stack([at[p] * ar[q] for p, q in chosen], axis=1))
    if picks is not None:
        del picks[len(chosen):]  # a last pick the stop rules refused
    if not chosen:
        raise ValueError("joint recovery selected no atoms")
    tx_idx = sorted({pq[0] for pq in chosen})
    rx_idx = sorted({pq[1] for pq in chosen})
    prm = np.zeros((len(rx_idx), len(tx_idx)), dtype=complex)
    for (pp, qq), c in zip(chosen, coef):
        prm[rx_idx.index(qq), tx_idx.index(pp)] = c / math.sqrt(ms.power)
    return uv[tx_idx], uv[rx_idx], prm, residual, converged


def scalar_export_mapping_csv(path, tx_grid, rx_grid, h):
    """export_mapping_csv as it wrote one map entry per Python iteration."""
    tx = np.asarray(tx_grid, dtype=float).reshape(len(tx_grid), -1)
    rx = np.asarray(rx_grid, dtype=float).reshape(len(rx_grid), -1)
    h = np.asarray(h, dtype=complex)
    with open(path, "w") as fh:
        fh.write("tx_x,tx_y,rx_x,rx_y,re,im\n")
        for p in range(len(tx)):
            for q in range(len(rx)):
                vals = (tx[p, 0], tx[p, 1], rx[q, 0], rx[q, 1], h[q, p].real, h[q, p].imag)
                fh.write(",".join(repr(float(v)) for v in vals) + "\n")
