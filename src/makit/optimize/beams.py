"""Array-geometry beam synthesis: null steering, grating-lobe multibeam, wide beams.

The closed-form constructions exploit two geometric facts about linear
arrays: steering-vector orthogonality (full main-lobe gain with exact nulls
using the matched weight vector) and the grating-lobe condition (full gain
replicated at several angles).  Where no construction exists, alternating
optimization of positions and weights takes over.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import math
from fractions import Fraction

import numpy as np

from ..beamforming import beam_gain, mrt, steering_vector
from ..channel import _complex_normal
from ..errors import InfeasibleError
from ..geometry import _close_pairs
from .report import _HALVES, OptReport, improves, memo_get, memo_put, start_memo

__all__ = [
    "svo_null_apv",
    "grating_lobe_apv",
    "multibeam_ao",
    "widebeam_ao",
    "fpa_ula",
    "max_min_awv",
]

_RATIONAL_TOL = 1e-9
_MAX_DENOMINATOR = 64
_ASCENDED_CAP = 512  # ascended starts max_min_awv keeps, least recently used out first
_ascended = start_memo()  # max_min_awv's key of one start -> (weights, min gain) it ascended to

_log = logging.getLogger(__name__)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _groupings(primes: list[int], k: int) -> list[tuple[int, ...]]:
    """Distinct ways to multiply the prime multiset into exactly k factors >= 2."""
    if k == 1:
        return [(int(np.prod(primes)),)]
    seen = set()

    def rec(rem: tuple[int, ...], groups: tuple[int, ...]):
        if not rem:
            if len(groups) == k and all(g > 1 for g in groups):
                seen.add(tuple(sorted(groups)))
            return
        if len(groups) > k:
            return
        p, rest = rem[0], rem[1:]
        for i in range(len(groups)):
            rec(rest, groups[:i] + (groups[i] * p,) + groups[i + 1:])
        if len(groups) < k:
            rec(rest, groups + (p,))

    rec(tuple(primes), ())
    return list(seen)


def fpa_ula(n: int, wavelength: float, spacing: float | None = None) -> np.ndarray:
    """Fixed half-wavelength uniform linear array used as the baseline geometry."""
    d = wavelength / 2.0 if spacing is None else spacing
    return np.arange(n) * d


def svo_null_apv(theta0: float, null_angles, n: int, aperture: float, d_min: float,
                 wavelength: float):
    """Linear array achieving gain N at theta0 with exact nulls using the matched weight.

    Sequentially builds nested blocks: the array is the sum set of K scaled
    lattices, one per null, each contributing a vanishing geometric sum at
    its null angle.  Requires the null count not to exceed the number of
    prime factors of N (with multiplicity); raises InfeasibleError, with the
    reason, when no feasible geometry exists.
    """
    nulls = np.atleast_1d(np.asarray(null_angles, dtype=float))
    if n < 2:
        raise InfeasibleError("need at least two antennas")
    deltas = np.cos(nulls) - math.cos(theta0)
    deltas = np.array(sorted(set(np.round(deltas, 15))))
    if np.any(np.abs(deltas) < 1e-12):
        raise InfeasibleError("a null direction coincides with the main-beam direction")
    k = len(deltas)
    primes = _prime_factors(n)
    if k > len(primes):
        raise InfeasibleError(
            f"{k} nulls exceed the prime-factorization threshold of N={n} ({len(primes)} factors)")

    best = None
    for grouping in _groupings(primes, k):
        for perm in set(itertools.permutations(grouping)):
            pos = _svo_try(deltas, perm, aperture, d_min, wavelength)
            if pos is not None and (best is None or pos[-1] < best[-1]):
                best = pos
    if best is None:
        raise InfeasibleError("no feasible geometry fits the region at the required spacing")
    return best


def _svo_try(deltas, factors, aperture, d_min, wavelength):
    """Build the nested-lattice array for one factor assignment; None if it does not fit."""
    order = np.argsort([wavelength / (f * abs(dl)) for f, dl in zip(factors, deltas)])
    positions, span = np.array([0.0]), 0.0
    for idx in order:
        f, dl = factors[idx], abs(deltas[idx])
        need = span + d_min
        # spacing family: d = lam * p / (f * |delta|), p a positive integer not divisible by f
        p = max(1, math.ceil(need * f * dl / wavelength - 1e-12))
        while p % f == 0:
            p += 1
        d = wavelength * p / (f * dl)
        positions = (positions[None, :] + d * np.arange(f)[:, None]).ravel()
        span = span + d * (f - 1)
        if span > aperture + 1e-9:
            return None
    return np.sort(positions)


def grating_lobe_apv(theta0: float, desired_angles, n: int, aperture: float, d_min: float,
                     wavelength: float):
    """Equally spaced array replicating the full gain N at every desired angle.

    Exists when every cos(theta_k) - cos(theta0) is rational (detected by
    continued fractions with denominators up to 64, tolerance 1e-9): the
    spacing is a common period of all the difference frequencies.  Raises
    InfeasibleError, with the reason, where it does not exist or does not fit.
    """
    desired = np.atleast_1d(np.asarray(desired_angles, dtype=float))
    deltas = [float(math.cos(t) - math.cos(theta0)) for t in desired]
    deltas = [d for d in deltas if abs(d) > 1e-12]
    if not deltas:
        # only the main direction requested: any valid uniform array works
        d = max(d_min, wavelength / 2.0)
        if (n - 1) * d > aperture + 1e-9:
            raise InfeasibleError("region too small for the array at minimum spacing")
        return np.arange(n) * d

    fracs = []
    for dl in deltas:
        fr = Fraction(dl).limit_denominator(_MAX_DENOMINATOR)
        if fr == 0 or abs(float(fr) - dl) > _RATIONAL_TOL:
            raise InfeasibleError(
                f"difference frequency {dl:.6g} is not rational within tolerance")
        fracs.append(fr)
    num_gcd = math.gcd(*[abs(f.numerator) for f in fracs])
    den_lcm = math.lcm(*[f.denominator for f in fracs])
    base = wavelength * den_lcm / num_gcd
    mult = max(1, math.ceil(d_min / base - 1e-12))
    d = base * mult
    if (n - 1) * d > aperture + 1e-9:
        raise InfeasibleError("region too small for the grating spacing")
    return np.arange(n) * d


def _weakest(gains):
    """Each gain row's weakest angle and its |gain|^2, which is the min gain: squaring is
    monotone, and a gather at the argmin costs a fraction of a .min(axis=-1)."""
    g2 = np.abs(gains) ** 2
    k = g2.argmin(axis=-1)
    return k, g2.reshape(-1, g2.shape[-1])[np.arange(k.size), k.ravel()].reshape(k.shape)


def max_min_awv(x, thetas, wavelength: float, analog: bool = False, seed: int = 0,
                w0: np.ndarray | None = None,
                n_iter: int = 300) -> tuple[np.ndarray, float | np.ndarray]:
    """Weight vector maximizing the minimum beam gain over the given angles, ||w|| = 1.

    Multi-start projected ascent on the min-gain objective; with analog=True
    the weights have constant modulus 1/sqrt(N).  x is one placement (N,),
    giving (weights, min_gain), or a stack (P, N) with w0 None or (P, N),
    giving (P, N) weights and (P,) min gains.  Each placement's S starts are an
    MRT start per picked angle, the aligned start, w0 if given and three noise
    starts drawn from seed.  A start takes its first step step * 0.5^j, j < 20, that
    `improves` on its min gain, or drops out; each placement's first best start wins.
    Each start runs on its own step clock: a tick scores the next four halvings (chunk
    c: j = 4c..4c+3) of every live start in one gain product; a start that steps goes
    back to chunk 0, one that does not to chunk c + 1, and it drops out after chunk 4
    or its n_iter-th step.  The live starts' state, steering rows included, is packed
    and compacted only when one drops out.  Gains are never a one-row product:
    numpy's matrix-vector path differs in the last bit, which can decide a step.

    A least-recently-used memo of _ASCENDED_CAP (512) starts maps a start's
    placement, projected weights, angles, wavelength, analog, n_iter and S (it
    sets the first gain product's shape) to the result it ascended to; a known
    start takes that result and does not ascend.  Every start's path is its
    own, so the result is bitwise the same.
    """
    x = np.asarray(x, dtype=float)
    stacked = x.ndim == 2
    x = x if stacked else x.reshape(1, -1)
    p, n = x.shape
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    a = steering_vector(x, thetas, wavelength)  # (P, K, N)
    rng = np.random.default_rng(seed)

    def project(w):  # np.angle's and np.linalg.norm's formulas, without their call overhead
        if analog:
            return np.exp(1j * np.arctan2(w.imag, w.real)) / math.sqrt(n)
        return w / np.sqrt(np.add.reduce((w.conj() * w).real, axis=-1, keepdims=True))

    k = a.shape[1]
    pick = range(k) if k <= 12 else np.linspace(0, k - 1, 12).astype(int)
    w0s = [None] * p if w0 is None else np.asarray(w0, dtype=complex).reshape(p, n)
    noise = [_complex_normal(rng, 2.0, n) for _ in range(3)]  # standard normal parts
    starts = []
    for ap, wi in zip(a, w0s):
        starts += [mrt(ap[j]) for j in pick]
        starts.append(mrt(np.sum(ap * np.exp(-1j * np.angle(ap[:, :1])), axis=0)))
        starts += noise if wi is None else [wi, *noise]

    w_out = project(np.stack(starts))  # (P*S, N)
    s_per = len(w_out) // p
    g = (w_out.reshape(p, s_per, n).conj() @ a.transpose(0, 2, 1)).reshape(len(w_out), k)
    kmin, cur_out = _weakest(g)
    # a start the memo knows takes the result it ascended to and drops out
    tail = (thetas.tobytes(), wavelength, analog, n_iter, s_per)
    keys = [(x[r // s_per].tobytes(), wr.tobytes(), *tail) for r, wr in enumerate(w_out)]
    cached = np.zeros(len(w_out), dtype=bool)
    for r, key in enumerate(keys):
        if (known := memo_get(_ascended, key)) is not None:
            w_out[r], cur_out[r] = known
            cached[r] = True
    # packed state of the live starts: index into the outputs, weights, min gain, step,
    # weakest angle and its gain, steering rows, step chunk and accepted steps
    live = np.flatnonzero(~cached)
    w, cur, kmin = w_out[live], cur_out[live], kmin[live]
    step, gk, al = np.full(live.size, 0.5), g[live, kmin], a[live // s_per]
    chunk, took = np.zeros((2, live.size), dtype=int)
    rows, halves = np.arange(live.size), _HALVES.reshape(5, 4)
    ticks = scored = 0
    capped = 0 if n_iter > 0 else live.size  # n_iter < 1: no start ascends
    while live.size and n_iter > 0:
        ticks += 1
        # each start's next four halvings along the ascent direction of its active gain
        grad = al[rows, kmin] * gk.conj()[:, None]
        s = step[:, None] * halves[chunk]
        cand = project(w[:, None, :] + s[..., None] * grad[:, None, :])
        gc = cand.conj() @ al.transpose(0, 2, 1)  # (R, 4, K)
        km, v = _weakest(gc)
        ok = improves(v, cur[:, None])
        scored += ok.size
        hit, j = ok.any(axis=1), ok.argmax(axis=1)
        if full := hit.all():  # every start stepped: replace the state, no scatter
            w, cur, kmin = cand[rows, j], v[rows, j], km[rows, j]
            gk, step = gc[rows, j, kmin], np.minimum(1.0, s[rows, j] * 2.0)
        else:
            t = hit.nonzero()[0]
            jt = j[t]
            w[t], cur[t], kmin[t] = cand[t, jt], v[t, jt], km[t, jt]
            gk[t], step[t] = gc[t, jt, kmin[t]], np.minimum(1.0, s[t, jt] * 2.0)
        chunk, took = np.where(hit, 0, chunk + 1), took + hit
        # retire the stalled starts (no halving of the 20 improved) and those at n_iter steps
        if not full or ticks >= n_iter:  # else none stalled or took n_iter steps
            out = (chunk == 5) | (took == n_iter)
            if out.any():
                del cand, gc  # so that the compaction's copy of al is the only extra one
                capped += int(np.count_nonzero(took[out] == n_iter))
                w_out[live[out]], cur_out[live[out]] = w[out], cur[out]
                live, w, cur, step, kmin, gk, al, chunk, took = (
                    arr[~out] for arr in (live, w, cur, step, kmin, gk, al, chunk, took))
                rows = np.arange(live.size)
    for r in np.flatnonzero(~cached):
        memo_put(_ascended, keys[r], (w_out[r], cur_out[r]), _ASCENDED_CAP)
    if _log.isEnabledFor(logging.DEBUG):
        n_cached = int(cached.sum())
        _log.debug("max_min_awv: %d of %d starts stopped at n_iter=%d, %d stalled, "
                   "%d from the cache; %d ticks, %d candidate rows scored", capped,
                   len(w_out), n_iter, len(w_out) - capped - n_cached, n_cached, ticks,
                   scored)
    best = np.argmax(cur_out.reshape(p, s_per), axis=1) + np.arange(p) * s_per
    return (w_out[best], cur_out[best]) if stacked else (w_out[best[0]], float(cur_out[best[0]]))


def _uniform_spacing_starts(n, aperture, d_min, wavelength):
    """Uniform-array starting placements over a swept spacing family, the tightest
    array (spacing max(d_min, lambda/2)) first, each placement once.

    Collective geometry changes (scaling the common spacing) are moves the
    per-antenna coordinate sweep cannot make, so they enter as starts.
    """
    d_lo = max(d_min, wavelength / 2.0)
    d_hi = aperture / max(n - 1, 1)
    if n == 1 or d_hi <= d_lo:  # no spacing to sweep: the tightest array, if it fits
        ula = fpa_ula(n, wavelength, d_lo)
        return [ula] if ula[-1] <= aperture else []
    step = max(wavelength / 10.0, (d_hi - d_lo) / 32.0)
    return [np.arange(n) * min(d, d_hi) for d in np.arange(d_lo, d_hi + step / 2, step)]


def _repair_spacing(x, aperture, d_min):
    """Sort and push positions apart left-to-right to restore minimum gaps."""
    x = np.sort(np.clip(np.asarray(x, dtype=float), 0.0, aperture))
    for i in range(1, len(x)):
        if x[i] - x[i - 1] < d_min:
            x[i] = x[i - 1] + d_min
    if len(x) and x[-1] > aperture:
        x -= x[-1] - aperture
    if x[0] < -1e-9 or _close_pairs(x[:, None], d_min).any():
        return None
    return x


def _random_starts(n, aperture, d_min, seed):
    """Two seeded uniform placements, kept where the spacing repair makes them fit."""
    rng = np.random.default_rng(seed)
    guesses = [_repair_spacing(np.sort(rng.uniform(0, aperture, n)), aperture, d_min)
               for _ in range(2)]
    return [x for x in guesses if x is not None]


def _position_sweep(x, thetas, w, wavelength, aperture, d_min, n_grid: int = 48):
    """One coordinate-ascent sweep of antenna positions against a fixed weight vector.

    Each antenna's n_grid positions between its neighbours are scored in one
    (n_grid, K, N) gain evaluation; the best (the first on ties) is taken if it
    `improves` on the current min gain.  The candidates' conjugated steering
    matrix is built once; an antenna's scan rewrites only its column.
    """
    x = x.copy()
    cur = np.min(beam_gain(x, w, thetas, wavelength))
    cand = np.repeat(steering_vector(x, thetas, wavelength).conj()[None], n_grid, axis=0)
    for i in range(len(x)):
        lo = x[i - 1] + d_min if i > 0 else 0.0
        hi = x[i + 1] - d_min if i < len(x) - 1 else aperture
        if hi <= lo:
            continue
        col = cand[0, :, i].copy()
        grid = np.linspace(lo, hi, n_grid)
        cand[:, :, i] = steering_vector(grid, thetas, wavelength).conj().T
        v = np.min(abs(cand @ w) ** 2, axis=1)
        j = np.argmax(v)
        if improves(v[j], cur):
            x[i], cur, col = grid[j], v[j], cand[j, :, i].copy()
        cand[:, :, i] = col
    return x, cur


def multibeam_ao(thetas, n: int, aperture: float, d_min: float, wavelength: float,
                 analog: bool = False, seed: int = 0, max_sweeps: int = 12) -> OptReport:
    """Alternating position/weight optimization of the max-min gain over given directions.

    Starts include the half-wavelength uniform array and, when every angle
    difference is rational, the grating-lobe construction, so the result is
    never worse than those geometries under the same weight solver.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    starts = _uniform_spacing_starts(n, aperture, d_min, wavelength)
    if len(thetas) > 1:
        with contextlib.suppress(InfeasibleError):
            starts.append(grating_lobe_apv(thetas[0], thetas[1:], n, aperture, d_min, wavelength))
    starts += _random_starts(n, aperture, d_min, seed)
    candidates, fpa = _ao_candidates(starts, thetas, wavelength, aperture, d_min,
                                     analog, seed, max_sweeps)
    return _ao_report(max(candidates, key=lambda c: c[0]), candidates, max_sweeps, fpa)


def _ao_candidates(starts, thetas, wavelength, aperture, d_min, analog, seed, max_sweeps,
                   n_refine: int = 3):
    """Run the position/weight alternation from the most promising starts.

    One stacked ascent scores all starts and, as one more placement outside the
    pool unless it is the first start byte for byte, the fixed half-wavelength array;
    the n_refine best starts then alternate in lockstep, one stacked ascent per sweep,
    each chain until its min gain fails `improves`.  Returns the candidates and the
    fixed array's (weights, min gain).
    """
    if not starts:
        raise InfeasibleError("no feasible starting placement fits the region")
    fpa = fpa_ula(len(starts[0]), wavelength)
    i_fpa = 0 if fpa.tobytes() == starts[0].tobytes() else -1  # d_min <= lambda/2: first
    ws, vs = max_min_awv(np.stack(starts if i_fpa == 0 else [*starts, fpa]), thetas,
                         wavelength, analog=analog, seed=seed)
    vs = vs.tolist()
    out = [(vs[i], starts[i], ws[i], [vs[i]])
           for i in sorted(range(len(starts)), key=lambda i: -vs[i])]
    n_chains = min(n_refine, len(out))
    live = list(range(n_chains))
    n_sweeps = still = 0  # chain sweeps, and those whose position sweep moved no antenna
    for _ in range(max_sweeps):
        if not live:
            break
        xs = np.stack([_position_sweep(out[c][1], thetas, out[c][2], wavelength, aperture,
                                       d_min)[0] for c in live])
        n_sweeps += len(live)
        still += sum(xi.tobytes() == out[c][1].tobytes() for xi, c in zip(xs, live))
        w_new, v_new = max_min_awv(xs, thetas, wavelength, analog=analog, seed=seed,
                                   w0=np.stack([out[c][2] for c in live]))
        v_new = v_new.tolist()
        moved = [(i, c) for i, c in enumerate(live) if improves(v_new[i], out[c][0])]
        for i, c in moved:
            out[c] = (v_new[i], xs[i], w_new[i], out[c][3] + [v_new[i]])
        live = [c for _, c in moved]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("_ao_candidates: %d of %d chains stopped at max_sweeps=%d; %d of %d "
                   "chain sweeps moved no antenna", len(live), n_chains, max_sweeps, still,
                   n_sweeps)
    return out, (ws[i_fpa].copy(), vs[i_fpa])


def _ao_report(best, candidates, max_sweeps, fpa, **extra):
    """Report of one of the candidates, with the fixed array's weights and min gain
    fpa; it stopped at 'max_sweeps' if any chain ran all max_sweeps sweeps (a trace of
    max_sweeps + 1 values), else 'stalled'."""
    cur, x, w, trace = best
    stop = "max_sweeps" if any(len(c[3]) > max_sweeps for c in candidates) else "stalled"
    return OptReport(best_placement=np.asarray(x, dtype=float), best_score=cur,
                     iterations=len(trace), trace=trace,
                     extra={"weights": w, "fpa_weights": fpa[0], "fpa_min_gain": fpa[1],
                            **extra},
                     stop_reason=stop)


def _subregion_grids(theta_min: float, theta_max: float, n_subregions: int):
    """Cell midpoints of [theta_min, theta_max] cut into n_subregions cells, and into 4x as many."""
    return tuple(theta_min + (np.arange(k) + 0.5) * (theta_max - theta_min) / k
                 for k in (n_subregions, 4 * n_subregions))


def widebeam_ao(theta_min: float, theta_max: float, n_subregions: int, n: int,
                aperture: float, d_min: float, wavelength: float, seed: int = 0,
                max_sweeps: int = 12) -> OptReport:
    """Uniform coverage of a continuous angular region with analog weights.

    The region is discretized into subregion centers for optimization; the
    reported minimum gain is re-evaluated on a verification grid four times
    finer, for the fixed half-wavelength array's weights too.
    """
    if not theta_min <= theta_max:
        raise ValueError("theta_min must not exceed theta_max")
    centers, fine = _subregion_grids(theta_min, theta_max, n_subregions)
    starts = (_uniform_spacing_starts(n, aperture, d_min, wavelength)
              + _random_starts(n, aperture, d_min, seed))
    candidates, fpa = _ao_candidates(starts, centers, wavelength, aperture, d_min,
                                     analog=True, seed=seed, max_sweeps=max_sweeps)
    # rank candidates by the finer verification grid, not the optimization grid
    verified = [np.min(beam_gain(x, w, fine, wavelength)) for _, x, w, _ in candidates]
    best = int(np.argmax(verified))
    rep = _ao_report(candidates[best], candidates, max_sweeps, fpa,
                     verified_min_gain=verified[best])
    rep.extra["fpa_verified_min_gain"] = np.min(
        beam_gain(fpa_ula(n, wavelength), fpa[0], fine, wavelength))
    return rep
