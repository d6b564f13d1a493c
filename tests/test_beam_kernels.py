"""Lockstep beam-weight ascent and batched position sweep against the loops they replaced.

The reference functions below are the earlier scalar implementations, kept
here only as oracles: one start at a time and one backtracking step per
score call in max_min_awv, one beam_gain call per angle and candidate
position in the sweep.  Two starts can tie to within rounding, so results
are compared by score, not by weight vector.

The ascent, like every reference below, accepts a step only if it `improves`
on the current min gain (by more than 1e-12 of it), so near a stall the last
bit of a gain can decide whether a start stops or goes on, and where it ends.
The scalar ascent itself moved by up to 0.5 % in min gain on random inputs
when its gains were summed in another order.  The reference
therefore takes its gain product as an argument: the min gain must match
the ascent with today's product (one matrix-vector product per weight), or
else the same ascent with the product the batched code takes (a row of a
candidates-by-angles matrix product).

The stacked ascent (a stack of placements, backtracking steps scored in two
chunks) and the lockstep refinement chains are checked bitwise against the
single-placement lockstep ascent and the sequential chain loop they replaced,
kept below as today_max_min_awv and today_ao_candidates.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from makit.beamforming import beam_gain, mrt, steering_vector
from makit.errors import InfeasibleError
from makit.optimize import beams
from makit.optimize.beams import _position_sweep, max_min_awv, multibeam_ao, widebeam_ao
from makit.optimize.report import improves

RTOL = 1e-9
LAM = 1.0
D_MIN = 0.5


# ---------------------------------------------------------------------------
# reference implementations

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


def today_ao_candidates(starts, thetas, wavelength, aperture, d_min, analog, seed, max_sweeps,
                        n_refine=3):
    if not starts:
        raise InfeasibleError("no feasible starting placement fits the region")
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
    return out


# ---------------------------------------------------------------------------
# inputs

def draw_problem(n, k, seed, slack):
    """Feasible placement (gaps >= D_MIN inside [0, aperture]), angles and a unit weight."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, slack, n)) + np.arange(n) * D_MIN
    aperture = (n - 1) * D_MIN + slack
    thetas = rng.uniform(0.0, np.pi, k)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x, aperture, thetas, w / np.linalg.norm(w)


def draw_stack(p, n, k, seed):
    """P feasible placements of n antennas (each its own draw), angles and P unit weights."""
    drawn = [draw_problem(n, k, seed + i, slack=4.0) for i in range(p)]
    return (np.stack([d[0] for d in drawn]), drawn[0][2], np.stack([d[3] for d in drawn]))


def same_report(got, want):
    """Bitwise equality of two OptReports of the beam alternation."""
    assert got.best_placement.tobytes() == want.best_placement.tobytes()
    assert got.best_score == want.best_score and type(got.best_score) is type(want.best_score)
    assert got.trace == want.trace and got.iterations == want.iterations
    assert got.extra.keys() == want.extra.keys()
    assert got.extra["weights"].tobytes() == want.extra["weights"].tobytes()
    if "verified_min_gain" in want.extra:
        assert got.extra["verified_min_gain"] == want.extra["verified_min_gain"]


def close(got, want):
    return abs(got - want) <= RTOL * abs(want) + 1e-14


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=120, deadline=None)
@given(st.integers(1, 12), st.integers(1, 30), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_max_min_awv_matches_scalar_ascent(n, k, analog, with_w0, seed):
    x, _, thetas, w0 = draw_problem(n, k, seed, slack=4.0)
    w0 = w0 if with_w0 else None
    w, v = max_min_awv(x, thetas, LAM, analog=analog, seed=seed, w0=w0)
    _, v_ref = ref_max_min_awv(x, thetas, LAM, analog=analog, seed=seed, w0=w0)
    if not close(v, v_ref):
        _, v_ref = ref_max_min_awv(x, thetas, LAM, analog=analog, seed=seed, w0=w0,
                                   gains=batched_gains)
    assert close(v, v_ref), (v, v_ref)
    if analog:
        assert np.allclose(np.abs(w), 1.0 / math.sqrt(n), rtol=0.0, atol=1e-12)
    else:
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
    reached = min(beam_gain(x, w, t, LAM) for t in thetas)
    assert abs(reached - v) <= 1e-12 * max(v, 1.0)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 12), st.integers(1, 30), st.integers(0, 2**32 - 1),
       st.floats(0.0, 6.0))
def test_position_sweep_matches_scalar_sweep(n, k, seed, slack):
    x, aperture, thetas, w = draw_problem(n, k, seed, slack)
    x_new, v = _position_sweep(x, thetas, w, LAM, aperture, D_MIN)
    _, v_ref = ref_position_sweep(x, thetas, w, LAM, aperture, D_MIN)
    assert close(v, v_ref), (v, v_ref)
    assert np.all(np.diff(x_new) >= D_MIN - 1e-12)
    assert x_new[0] >= 0.0 and x_new[-1] <= aperture
    assert abs(min(beam_gain(x_new, w, t, LAM) for t in thetas) - v) <= 1e-12 * max(v, 1.0)


def test_beam_gain_stacks_placements_and_angles():
    x, _, thetas, w = draw_problem(6, 5, 3, slack=2.0)
    stack = np.stack([x, x + 0.3, 2.0 * x])
    got = beam_gain(stack, w, thetas, LAM)
    assert got.shape == (3, 5)
    want = [[beam_gain(xx, w, t, LAM) for t in thetas] for xx in stack]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert steering_vector(stack, thetas, LAM).shape == (3, 5, 6)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 12), st.integers(1, 30), st.booleans(),
       st.booleans(), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_stacked_max_min_awv_matches_each_placement_bitwise(p, n, k, analog, with_w0, n_iter,
                                                            seed):
    xs, thetas, w0s = draw_stack(p, n, k, seed)
    w, v = max_min_awv(xs, thetas, LAM, analog=analog, seed=seed,
                       w0=w0s if with_w0 else None, n_iter=n_iter)
    assert w.shape == (p, n) and v.shape == (p,)
    for i in range(p):
        w_ref, v_ref = today_max_min_awv(xs[i], thetas, LAM, analog=analog, seed=seed,
                                         w0=w0s[i] if with_w0 else None, n_iter=n_iter)
        assert w[i].tobytes() == w_ref.tobytes()
        assert v[i] == v_ref
    w1, v1 = max_min_awv(xs[0], thetas, LAM, analog=analog, seed=seed,
                         w0=w0s[0] if with_w0 else None, n_iter=n_iter)
    assert type(v1) is float and w1.tobytes() == w[0].tobytes() and v1 == v[0]


@settings(max_examples=6, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.booleans(), st.floats(0.5, 2.0),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(4, 3, False, 1.5, 4, 3)  # a chain's w0 start wins in multibeam_ao
@example(4, 3, False, 1.5, 4, 2)  # and in widebeam_ao
@example(6, 4, False, 1.5, 4, 18)  # a widebeam_ao chain gains 6.8e-12 in a sweep
def test_lockstep_chains_match_sequential_chains_bitwise(n, k, analog, slack, sweeps, seed):
    rng = np.random.default_rng(seed)
    aperture = (n - 1) * D_MIN + slack
    thetas = rng.uniform(0.0, np.pi, k)
    lo, hi = np.sort(rng.uniform(0.0, np.pi, 2))
    got = [multibeam_ao(thetas, n, aperture, D_MIN, LAM, analog=analog, seed=seed,
                        max_sweeps=sweeps),
           widebeam_ao(lo, hi, k, n, aperture, D_MIN, LAM, seed=seed, max_sweeps=sweeps)]
    with mock.patch.object(beams, "_ao_candidates", today_ao_candidates):
        want = [multibeam_ao(thetas, n, aperture, D_MIN, LAM, analog=analog, seed=seed,
                             max_sweeps=sweeps),
                widebeam_ao(lo, hi, k, n, aperture, D_MIN, LAM, seed=seed,
                            max_sweeps=sweeps)]
    for g, w in zip(got, want):
        same_report(g, w)
