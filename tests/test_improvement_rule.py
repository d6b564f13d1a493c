"""The one acceptance rule of the optimizers, optimize.report.improves.

A move is kept only if its value beats the current one by more than 1e-12 of
the current value.  The rule is relative, so scaling an objective by an exact
power of two must leave every decision, and so every placement, bitwise
unchanged; an absolute margin would not.  A guard keeps inline margins from
coming back into the optimizers.
"""

import ast
import math
import pathlib
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from makit.channel import PathSet, Scenario, channel_narrowband, sample_directions
from makit.geometry import MoveRegion
from makit.optimize import gradient_position_search, report, sensing_2d_ao
from makit.optimize.search import _ascend

OPTIMIZE = pathlib.Path(__file__).resolve().parent.parent / "src" / "makit" / "optimize"
scales = st.integers(-40, 40).map(lambda k: 2.0 ** k)


def test_improves_is_relative_and_total_over_special_values():
    improves = report.improves
    inf, nan = math.inf, math.nan
    for v in (-1e300, -1.0, 0.0, 5e-324, 1.0, 1e300):
        assert improves(v, -inf)
        assert not improves(v, inf) and not improves(v, nan) and not improves(nan, v)
    assert improves(inf, 1e300) and not improves(inf, inf) and not improves(-inf, -inf)
    assert not improves(nan, -inf)
    # cur = 0 (either sign): any positive value wins, zero and below do not
    for zero in (0.0, -0.0):
        assert improves(5e-324, zero) and not improves(0.0, zero) and not improves(-1.0, zero)
    # the margin is 1e-12 of |cur|, on either side of zero
    for cur in (1.0, -1.0, 2.0 ** -40, -(2.0 ** 40)):
        assert improves(cur + 2e-12 * abs(cur), cur)
        assert not improves(cur + 0.5e-12 * abs(cur), cur) and not improves(cur, cur)
    # a descent asks improves(-new, -cur)
    assert improves(-0.5, -1.0) and not improves(-1.0, -0.5)


def test_improves_broadcasts_stacked_inputs():
    new = np.array([[1.0, 2.0, np.nan], [0.0, -np.inf, 3.0]])
    cur = np.array([[1.0], [-1.0]])
    got = report.improves(new, cur)
    assert got.dtype == bool and got.shape == (2, 3)
    assert got.tolist() == [[False, True, False], [True, False, True]]
    assert report.improves(np.array([1.0, 0.5]), np.array([0.5, -np.inf])).tolist() == [True,
                                                                                         True]


@settings(max_examples=18, deadline=None)
@given(scale=scales, n=st.integers(3, 9), ax=st.sampled_from([1.0, 2.0, 3.5]),
       ay=st.sampled_from([1.0, 2.0, 3.0]), d_min=st.sampled_from([0.0, 0.3, 0.5]),
       metric=st.sampled_from(["max", "sum"]), seed=st.integers(0, 2 ** 32 - 1))
def test_sensing_2d_ao_is_scale_free(scale, n, ax, ay, d_min, metric, seed):
    kw = dict(metric=metric, max_sweeps=3, n_grid=17, seed=seed)
    base = sensing_2d_ao(n, (ax, ay), d_min, coef=1.0, **kw)
    got = sensing_2d_ao(n, (ax, ay), d_min, coef=scale, **kw)
    assert got.best_placement.tobytes() == base.best_placement.tobytes()
    assert got.trace == [scale * v for v in base.trace]
    assert (got.iterations, got.evaluations, got.stop_reason) == \
        (base.iterations, base.evaluations, base.stop_reason)


@settings(max_examples=8, deadline=None)
@given(scale=scales, sense=st.sampled_from(["max", "min"]), seed=st.integers(0, 2 ** 32 - 1))
def test_gradient_position_search_is_scale_free(scale, sense, seed):
    rng = np.random.default_rng(seed)
    sc = Scenario(wavelength=1.0, tx_paths=PathSet(np.array([[1.0, 0, 0]])),
                  rx_paths=PathSet(sample_directions(rng, 4)),
                  prm=rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1)))
    region = MoveRegion.box((2.0, 2.0, 2.0))
    start = rng.uniform(0.0, 2.0, 3)

    def run(s):
        return gradient_position_search(
            lambda p: s * np.abs(channel_narrowband(np.zeros_like(p), p, sc)) ** 2, region, start,
            max_iter=60, sense=sense)

    base, got = run(1.0), run(scale)
    assert got.best_placement.tobytes() == base.best_placement.tobytes()
    assert got.trace == [scale * v for v in base.trace]
    assert (got.iterations, got.evaluations, got.stop_reason) == \
        (base.iterations, base.evaluations, base.stop_reason)


@settings(max_examples=8, deadline=None)
@given(scale=scales, seed=st.integers(0, 2 ** 32 - 1))
def test_two_block_ascend_is_scale_free(scale, seed):
    rng = np.random.default_rng(seed)
    waves = [sample_directions(rng, 3) * 2.0 * np.pi for _ in range(2)]
    coefs = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    region = MoveRegion.box((1.5, 1.5, 0.0), d_min=0.5)
    starts = [np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.0]]),
              np.array([[0.3, 1.4, 0.0], [1.4, 1.0, 0.0]])]

    def run(s):
        def objective(p, q):  # one block is a (B, 2, 3) stack, the other (2, 3)
            field = sum(np.exp(1j * (x @ k.T)).sum(axis=-2) @ c
                        for x, k, c in zip((p, q), waves, coefs))
            return s * np.abs(field) ** 2
        return _ascend([(starts[0], region), (starts[1], region)], objective, 8, 1e-4, 1e-2)

    (base_pos, base), (got_pos, got) = run(1.0), run(scale)
    assert all(g.tobytes() == b.tobytes() for g, b in zip(got_pos, base_pos))
    assert got.trace == [scale * v for v in base.trace]
    assert (got.iterations, got.evaluations, got.stop_reason) == \
        (base.iterations, base.evaluations, base.stop_reason)


def inline_margins(source: str) -> list[int]:
    """Lines comparing a current or best value against it plus or minus a literal below 1e-9.

    A current or best value is a name starting cur, best, v, val(s) or out (a
    chain's record); feasibility tolerances such as `aperture + 1e-12` name none.
    """
    value = re.compile(r"(cur|best|v|vals?|out)(_\w*)?$")
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        names = {n.id for s in sides for n in ast.walk(s) if isinstance(n, ast.Name)}
        tiny = any(isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Add, ast.Sub, ast.Mult))
                   and any(isinstance(c, ast.Constant) and isinstance(c.value, float)
                           and 0 < c.value < 1e-9 for c in ast.walk(n))
                   for s in sides for n in ast.walk(s))
        if tiny and any(value.match(name) for name in names):
            lines.append(node.lineno)
    return lines


def test_no_inline_acceptance_margin_in_the_optimizers():
    found = [f"{p.name}:{line}" for p in sorted(OPTIMIZE.glob("*.py"))
             for line in inline_margins(p.read_text())]
    assert not found, found


def test_margin_guard_flags_the_forms_it_replaced():
    flagged = ["ok = v > cur[rows, None] + 1e-15", "if v < best_v - 1e-15: pass",
               "moved = [c for c in live if v_new[c] > out[c][0] + 1e-12]",
               "gain = np.flatnonzero(vals > cur + 1e-12)", "ok = v > cur * (1 + 1e-12)"]
    exempt = ["ok = span(e) <= aperture + 1e-12", "bad = np.any(xy[:, 0] < -1e-12)",
              "p = max(1, math.ceil(need * f * dl / wavelength - 1e-12))",
              "ok = improves(v, cur)"]
    assert all(inline_margins(line) == [1] for line in flagged)
    assert not any(inline_margins(line) for line in exempt)
