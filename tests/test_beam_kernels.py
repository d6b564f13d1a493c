"""Lockstep beam-weight ascent and batched position sweep against the loops they replaced.

The oracles (in oracles.py) are the earlier scalar implementations: one
start at a time and one backtracking step per score call in max_min_awv, one
beam_gain call per angle and candidate position in the sweep.  Two starts can
tie to within rounding, so results are compared by score, not by weight
vector.

The ascent, like every oracle of it, accepts a step only if it `improves`
on the current min gain (by more than 1e-12 of it), so near a stall the last
bit of a gain can decide whether a start stops or goes on, and where it ends.
The scalar ascent itself moved by up to 0.5 % in min gain on random inputs
when its gains were summed in another order.  The reference
therefore takes its gain product as an argument: the min gain must match
the ascent with today's product (one matrix-vector product per weight), or
else the same ascent with the product the batched code takes (a row of a
candidates-by-angles matrix product).

The packed ascent (a stack of placements, each start on its own step clock with
four backtracking steps of every live start scored a tick, live starts' state
compacted only when one drops out) is checked bitwise against the
single-placement lockstep ascent, today_max_min_awv, applied to each
placement, and the lockstep refinement chains against the
sequential chain loop they replaced, today_ao_candidates.  The
column-updated position sweep is checked against the sweep that rebuilt
every candidate's steering matrix, today_position_sweep.  The
fixed-array baseline the beam AO reports must equal a standalone ascent of
the fixed array bitwise.  Ascents that take starts from the memo of ascended
starts must equal today's ascent, or an ascent with an empty memo, bitwise.
That the tick loop matches an oracle scoring all 20 steps at once rests on a
row of a complex gain product not depending on the product's row count; a
property test pins that for the BLAS numpy uses.
"""

import logging
import math
import re
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from makit.beamforming import beam_gain, steering_vector
from makit.optimize import beams
from makit.optimize.beams import (_position_sweep, _subregion_grids, fpa_ula, max_min_awv,
                                  multibeam_ao, widebeam_ao)
from makit.optimize.report import improves
from oracles import (batched_gains, ref_max_min_awv, ref_position_sweep, today_ao_candidates,
                     today_max_min_awv, today_position_sweep)

RTOL = 1e-9
LAM = 1.0
D_MIN = 0.5


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
    for key in ("weights", "fpa_weights"):
        assert got.extra[key].tobytes() == want.extra[key].tobytes()
    for key in ("fpa_min_gain", "verified_min_gain", "fpa_verified_min_gain"):
        if key in want.extra:
            assert got.extra[key] == want.extra[key]


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


def spy_improves(log):
    """An `improves` that records the (rows, steps) shape of every call it answers."""
    def spy(new, cur):
        ok = improves(new, cur)
        log.append((ok.shape, int(ok.any(axis=-1).sum()) if ok.ndim == 2 else None))
        return ok
    return spy


def check_ascent_per_placement(p, n, k, analog, with_w0, n_iter, seed):
    xs, thetas, w0s = draw_stack(p, n, k, seed)
    w, v = max_min_awv(xs, thetas, LAM, analog=analog, seed=seed,
                       w0=w0s if with_w0 else None, n_iter=n_iter)
    assert w.shape == (p, n) and v.shape == (p,)
    refs = [today_max_min_awv(xs[i], thetas, LAM, analog=analog, seed=seed,
                              w0=w0s[i] if with_w0 else None, n_iter=n_iter) for i in range(p)]
    for wi, vi, (w_ref, v_ref) in zip(w, v, refs):
        assert wi.tobytes() == w_ref.tobytes() and float(vi).hex() == v_ref.hex()
    w1, v1 = max_min_awv(xs[0], thetas, LAM, analog=analog, seed=seed,
                         w0=w0s[0] if with_w0 else None, n_iter=n_iter)
    assert w1.tobytes() == refs[0][0].tobytes() and v1 == refs[0][1] and type(v1) is float


# Two draws of one property, each with its example count: "wide" spans more
# placements, antennas and iteration counts; "chunked" takes n_iter from
# {1, 5, 300} and carries the examples whose starts reach a later step chunk.
ASCENT_DRAWS = {
    "wide": (25, (st.integers(1, 6), st.integers(1, 12), st.integers(1, 30), st.booleans(),
                  st.booleans(), st.integers(1, 300), st.integers(0, 2**32 - 1)), []),
    "chunked": (40, (st.integers(1, 5), st.integers(2, 10), st.integers(1, 30), st.booleans(),
                     st.booleans(), st.sampled_from([1, 5, 300]), st.integers(0, 2**32 - 1)),
                [(3, 6, 4, False, False, 300, 11),  # a start steps at j >= 4 as another retires
                 (3, 6, 4, False, False, 0, 11),  # no start ascends
                 (3, 6, 4, False, False, 1, 11),  # a start reaches the cap on a step at j >= 4
                 (3, 6, 4, False, False, 2, 11),  # and so at n_iter 2
                 (2, 8, 24, True, True, 300, 5)]),  # analog with w0, more angles than 12 starts
}


@pytest.mark.parametrize("draws", sorted(ASCENT_DRAWS))
def test_max_min_awv_matches_per_placement_ascent_bitwise(draws):
    n_examples, strategies, examples = ASCENT_DRAWS[draws]
    check = given(*strategies)(check_ascent_per_placement)
    for ex in examples:
        check = example(*ex)(check)
    settings(max_examples=n_examples, deadline=None)(check)()


def ascent_ticks(*args, **kwargs):
    """Run max_min_awv with spies on its halvings and on `improves`: its result and, per
    tick, each live start's step chunk and whether it stepped."""
    chunks, oks = [], []

    class Halves(np.ndarray):  # _HALVES, recording the chunk index array it is read with
        def __getitem__(self, idx):
            chunks.append(np.array(idx))
            return np.asarray(super().__getitem__(idx))

    def spy(new, cur):
        oks.append(improves(new, cur))
        return oks[-1]

    with mock.patch.object(beams, "_HALVES", beams._HALVES.view(Halves)), \
            mock.patch.object(beams, "improves", spy):
        out = max_min_awv(*args, **kwargs)
    assert [c.shape + (4,) for c in chunks] == [ok.shape for ok in oks]
    return out, [(c, ok.any(axis=1)) for c, ok in zip(chunks, oks)]


def replay_ticks(ticks, n_iter):
    """Check every tick's chunks against the schedule: a start that steps goes back to chunk 0,
    one that does not moves to the next, and it retires after chunk 4 or its n_iter-th step.
    Returns per tick the starts' (chunk, stepped, retired, steps taken)."""
    chunk = took = np.zeros(len(ticks[0][0]), dtype=int)
    events = []
    for c, hit in ticks:
        assert np.array_equal(c, chunk)
        chunk, took = np.where(hit, 0, chunk + 1), took + hit
        out = (chunk == 5) | (took == n_iter)
        events.append((c, hit, out, took))
        chunk, took = chunk[~out], took[~out]
    assert not chunk.size  # every start retired
    return events


def test_packed_ascent_example_reaches_the_second_chunk():
    # the first "chunked" example above: some ticks score starts at chunk 0 and starts at a
    # later chunk together, and in one a start steps at j >= 4 while another retires after
    # its last chunk
    xs, thetas, _ = draw_stack(3, 6, 4, 11)
    got, ticks = ascent_ticks(xs, thetas, LAM, seed=11)
    events = replay_ticks(ticks, 300)
    assert any((c == 0).any() and (c > 0).any() for c, *_ in events)
    assert any((hit & (c > 0)).any() and (~hit & (c == 4)).any() for c, hit, *_ in events)
    for wi, vi, x in zip(*got, xs):
        w_ref, v_ref = today_max_min_awv(x, thetas, LAM, seed=11)
        assert wi.tobytes() == w_ref.tobytes() and float(vi).hex() == v_ref.hex()


@pytest.mark.parametrize("n_iter", [1, 2])
def test_packed_ascent_example_caps_a_start_on_a_late_step(n_iter):
    # the "chunked" examples at n_iter 1 and 2: a start retires at the cap on a step it
    # found at j >= 4
    xs, thetas, _ = draw_stack(3, 6, 4, 11)
    _, ticks = ascent_ticks(xs, thetas, LAM, seed=11, n_iter=n_iter)
    events = replay_ticks(ticks, n_iter)
    assert any(((c > 0) & hit & out & (took == n_iter)).any() for c, hit, out, took in events)
    assert n_iter <= len(ticks) <= 5 * n_iter


def blas_name():
    """The BLAS numpy was built with, as np.show_config reports it."""
    return np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(1, 16), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_four_row_gain_products_equal_rows_of_wider_products_bitwise(r, n, k, seed):
    # the ascent scores four halvings of each start a tick, where its oracle scores all 20
    # in one product: a row of a complex (R, J, N) @ (R, N, K) product must not depend on
    # J (4, 16 or 20)
    rng = np.random.default_rng(seed)
    cand = rng.standard_normal((r, 20, n)) + 1j * rng.standard_normal((r, 20, n))
    a = rng.standard_normal((r, k, n)) + 1j * rng.standard_normal((r, k, n))
    at = a.transpose(0, 2, 1)  # the steering rows' layout in the ascent
    wide = {20: cand.conj() @ at, 16: cand[:, 4:].conj() @ at}
    for c in range(5):
        four = cand[:, 4 * c:4 * c + 4].conj() @ at
        assert four.tobytes() == wide[20][:, 4 * c:4 * c + 4].tobytes(), blas_name()
        if c:
            assert four.tobytes() == wide[16][:, 4 * c - 4:4 * c].tobytes(), blas_name()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(1, 30), st.integers(0, 2**32 - 1),
       st.floats(0.0, 6.0), st.booleans())
def test_column_updated_sweep_matches_rebuilt_sweep_bitwise(n, k, seed, slack, analog):
    x, aperture, thetas, w = draw_problem(n, k, seed, slack)
    if analog:
        w = np.exp(1j * np.angle(w)) / math.sqrt(n)
    x_new, v = _position_sweep(x, thetas, w, LAM, aperture, D_MIN)
    x_ref, v_ref = today_position_sweep(x, thetas, w, LAM, aperture, D_MIN)
    assert x_new.tobytes() == x_ref.tobytes() and v == v_ref


@settings(max_examples=8, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), st.floats(0.0, 3.0), st.floats(0.25, 1.0),
       st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
@example(6, 3, 1.0, 0.8, False, False, 7)  # d_min > lambda/2: the fixed array is no AO start
@example(4, 2, 0.5, 0.5, True, True, 3)  # widebeam's single-angle region
def test_beam_ao_baseline_is_the_standalone_fixed_array_ascent(n, k, slack, d_min, analog,
                                                               point_region, seed):
    rng = np.random.default_rng(seed)
    aperture = (n - 1) * max(d_min, LAM / 2) + slack
    thetas = rng.uniform(0.0, np.pi, k)
    x_fpa = fpa_ula(n, LAM)
    rep = multibeam_ao(thetas, n, aperture, d_min, LAM, analog=analog, seed=seed,
                       max_sweeps=2)
    w, g = max_min_awv(x_fpa, thetas, LAM, analog=analog, seed=seed)
    assert rep.extra["fpa_weights"].tobytes() == w.tobytes() and rep.extra["fpa_min_gain"] == g

    lo, hi = np.sort(rng.uniform(0.0, np.pi, 2))
    hi = lo if point_region else hi
    nsub = 2 * k
    rep = widebeam_ao(lo, hi, nsub, n, aperture, d_min, LAM, seed=seed, max_sweeps=2)
    centers, fine = _subregion_grids(lo, hi, nsub)
    w, g = max_min_awv(x_fpa, centers, LAM, analog=True, seed=seed)
    assert rep.extra["fpa_weights"].tobytes() == w.tobytes() and rep.extra["fpa_min_gain"] == g
    assert rep.extra["fpa_verified_min_gain"] == np.min(beam_gain(x_fpa, w, fine, LAM))


DEBUG_LINE = re.compile(r"max_min_awv: (\d+) of (\d+) starts stopped at n_iter=(\d+), "
                        r"(\d+) stalled, (\d+) from the cache; "
                        r"(\d+) ticks, (\d+) candidate rows scored")


def logged_ascent(caplog, *args, **kwargs):
    """Run max_min_awv under an `improves` spy; its DEBUG counts and the spy's (rows, steps)
    shapes."""
    calls = []
    caplog.clear()
    with mock.patch.object(beams, "improves", spy_improves(calls)), \
            caplog.at_level(logging.DEBUG, logger="makit"):
        max_min_awv(*args, **kwargs)
    (m,) = [DEBUG_LINE.fullmatch(r.getMessage()) for r in caplog.records
            if r.getMessage().startswith("max_min_awv: ")]
    return tuple(map(int, m.groups())), calls


def test_max_min_awv_logs_iterations_and_candidate_rows(caplog):
    xs, thetas, _ = draw_stack(2, 6, 3, 4)
    for n_iter in (1, 300):
        counts, calls = logged_ascent(caplog, xs, thetas, LAM, n_iter=n_iter)
        at_cap, starts, cap, stalled, cached, ticks, rows = counts
        assert starts == 2 * 7 and cap == n_iter and at_cap + stalled + cached == starts
        assert cached == 0
        # a tick scores four halvings of every live start, one `improves` call each
        assert ticks == len(calls)
        assert n_iter <= ticks <= 5 * n_iter if at_cap else 1 <= ticks <= 5 * n_iter
        if n_iter == 1:  # each start that steps leaves at the cap at once
            assert at_cap == sum(hits for _, hits in calls) > 0
        assert rows == sum(math.prod(shape) for shape, _ in calls)
        assert rows >= 4 * starts


def test_max_min_awv_logs_the_starts_taken_from_the_cache(caplog):
    # a start the memo knows does not ascend: a known placement's MRT and aligned starts
    # under every seed, its noise starts under the seed it was ascended with, and w0 only
    # if it is the same w0; a new placement in the stack ascends all its starts
    xs, thetas, w0s = draw_stack(3, 6, 3, 4)
    max_min_awv(xs[:2], thetas, LAM)
    max_min_awv(xs[:2], thetas, LAM, w0=w0s[:2])
    for stack, w0, seed, n_cached in (
            (xs, None, 0, 2 * 7),  # 7 starts a placement, 4 seed-free and 3 noise
            (xs[:2], w0s[:2].conj(), 0, 2 * 7),  # 8 starts a placement, the new w0 ascends
            (xs[:2], None, 1, 2 * 4)):  # another seed: no noise start is known
        counts, calls = logged_ascent(caplog, stack, thetas, LAM, seed=seed, w0=w0)
        at_cap, starts, _, stalled, cached, _, rows = counts
        assert starts == (7 + (w0 is not None)) * len(stack)
        assert cached == n_cached
        assert at_cap + stalled + cached == starts
        assert rows == sum(math.prod(shape) for shape, _ in calls)
        # the first step scores exactly the starts not in the memo
        assert calls[0][0][0] == starts - cached
        assert rows >= 4 * (starts - cached)


def test_an_ascent_with_every_start_cached_runs_no_iteration(caplog):
    # a repeated (placement, seed) without w0 takes all its starts from the memo
    xs, thetas, _ = draw_stack(2, 6, 3, 4)
    w, v = max_min_awv(xs, thetas, LAM, seed=5)
    counts, calls = logged_ascent(caplog, xs, thetas, LAM, seed=5)
    at_cap, starts, _, stalled, cached, ticks, rows = counts
    assert (at_cap, stalled, cached) == (0, 0, 2 * 7) and starts == 2 * 7
    assert ticks == rows == 0 and calls == []
    w2, v2 = max_min_awv(xs, thetas, LAM, seed=5)
    assert w2.tobytes() == w.tobytes() and v2.tobytes() == v.tobytes()


def check_cached_ascent(p, n, k, analog, with_w0, seed):
    xs, thetas, w0s = draw_stack(2 * p, n, k, seed)

    def ascend(idx, w0s=w0s, **kw):
        kw = {"thetas": thetas, "wavelength": LAM, "analog": analog, "n_iter": 300,
              "seed": seed, **kw}
        w, v = max_min_awv(xs[idx], w0=w0s[idx] if with_w0 else None, **kw)
        return (w, v), kw

    def same_as_today(idx, **kw):
        """The stack idx's results, each today's ascent of its placement bitwise."""
        (w, v), kw = ascend(idx, **kw)
        for wi, vi, i in zip(w, v, idx):
            w_ref, v_ref = today_max_min_awv(xs[i], w0=w0s[i] if with_w0 else None, **kw)
            assert wi.tobytes() == w_ref.tobytes() and float(vi).hex() == v_ref.hex()
        return w.tobytes(), v.tobytes()

    def same_as_fresh(idx, **kw):
        """The stack idx's results, bitwise those of an ascent with an empty memo."""
        got = [arr.tobytes() for arr in ascend(idx, **kw)[0]]
        with mock.patch.object(beams, "_ascended", OrderedDict()):
            assert got == [arr.tobytes() for arr in ascend(idx, **kw)[0]]

    known = np.arange(p)
    mixed = np.random.default_rng(seed).permutation(2 * p)
    beams._ascended.clear()
    cold = same_as_today(known)
    (w, v), _ = ascend(known)  # a repeated (placement, seed): only w0, if given, ascends
    assert (w.tobytes(), v.tobytes()) == cold
    same_as_fresh(known, w0s=w0s.conj())  # so too with another w0, as in an AO chain
    # the same placements and seed (so the same noise starts) under the other weight kind,
    # a shorter ascent, other angles and another wavelength
    same_as_today(known, analog=not analog)
    same_as_today(known, n_iter=3)
    same_as_fresh(known, thetas=np.pi - thetas)
    same_as_fresh(known, wavelength=1.5 * LAM)
    # known and new placements shuffled in one stack, under another seed (the known ones'
    # noise starts miss), with the new starts evicting the known ones from a memo of p
    with mock.patch.object(beams, "_ASCENDED_CAP", p):
        same_as_today(mixed, seed=seed + 1)
    # each placement twice in one stack, with an empty memo: every copy ascends as alone
    beams._ascended.clear()
    (w, v), _ = ascend(np.r_[known, known])
    assert (w[:p].tobytes(), v[:p].tobytes()) == (w[p:].tobytes(), v[p:].tobytes()) == cold


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 30), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(2, 6, 4, False, False, 11)  # the pinned "chunked" draw, with hits and misses mixed
def test_memo_hits_give_the_cold_ascent_bitwise(p, n, k, analog, with_w0, seed):
    check_cached_ascent(p, n, k, analog, with_w0, seed)


def test_beam_ao_reports_are_the_same_cold_and_warm(caplog):
    # chains whose position sweep moved no antenna take their noise starts from the memo
    thetas = np.deg2rad([30.0, 120.0, 160.0])

    def run(seed):
        return [multibeam_ao(thetas, 6, 6.0, D_MIN, LAM, seed=seed, max_sweeps=4),
                widebeam_ao(1.0, 2.0, 4, 4, 4.0, D_MIN, LAM, seed=seed, max_sweeps=4)]

    with caplog.at_level(logging.DEBUG, logger="makit"):
        cold = run(1)
    still = [re.search(r"(\d+) of \d+ chain sweeps moved no antenna", r.getMessage())
             for r in caplog.records if r.getMessage().startswith("_ao_candidates: ")]
    assert len(still) == 2 and all(int(m.group(1)) > 0 for m in still)
    for seeds in ((1,), (2, 1)):  # warm, and warm after another seed replaced the seeded starts
        for seed in seeds:
            warm = run(seed)
        for got, want in zip(warm, cold):
            same_report(got, want)


def test_ascended_memo_stays_bounded_and_unaliased(caplog):
    cap = beams._ASCENDED_CAP
    xs, thetas, _ = draw_stack(cap // 5 + 11, 4, 1, 2)  # 5 starts a placement
    cycled, x_new = xs[:-1], xs[-1]
    for lo in range(0, len(cycled), 10):
        max_min_awv(cycled[lo:lo + 10], thetas, LAM)
        assert len(beams._ascended) <= cap
    assert len(beams._ascended) == cap
    # ten placements under another seed: their 20 known MRT and aligned starts move to the
    # end of the memo, the 30 new noise starts follow them, and the 30 least recently used
    # starts go
    before = list(beams._ascended)
    chunk = cycled[-20:-10]
    counts, _ = logged_ascent(caplog, chunk, thetas, LAM, seed=1)
    after = list(beams._ascended)
    called = {xi.tobytes() for xi in chunk}
    ours = [key for key in before if key[0] in called]  # 5 starts a placement, in row order
    hits = [key for i, key in enumerate(ours) if i % 5 < 2]  # the MRT and aligned starts
    assert counts[4] == 20 and len(after) == cap
    assert after[-50:-30] == hits and not set(after[-30:]) & set(before)
    assert after[:-50] == [key for key in before if key not in set(hits)][30:]
    # a new placement whose MRT start wins (one angle: it reaches the gain N), and one whose
    # last noise start wins: changing the returned weights in place changes no later result
    x_noise, thetas_noise, _ = draw_stack(1, 4, 5, 1)
    for x, t, back in ((x_new, thetas, 5), (x_noise[0], thetas_noise, 1)):  # slot 0 of 5, 8 of 9
        w, v = max_min_awv(x, t, LAM)
        stored = list(beams._ascended.values())[-back]
        assert stored[0].tobytes() == w.tobytes() and stored[1] == v
        want = w.tobytes()
        w[:] = 0.0
        w2, v2 = max_min_awv(x, t, LAM)
        assert w2.tobytes() == want and v2 == v
