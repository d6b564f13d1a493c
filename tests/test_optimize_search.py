"""The single-position searchers and the swarm, each scoring an (M, d) stack per call.

Their oracles in tests/oracles.py call a scalar objective once per point; on an
elementwise objective, whose stacked rows equal its scalar calls bitwise, both
give the same point, score and trace bitwise.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from makit.channel import PathSet, Scenario, channel_narrowband, sample_directions
from makit.errors import InfeasibleError
from makit.geometry import MoveRegion
from makit.optimize import (gradient_position_search, grid_search_position, pso,
                            siso_gain_bounds)
from makit.optimize import search
from oracles import scalar_gradient_position_search, scalar_grid_search_position, scalar_pso

LAM = 1.0


def power(sc):
    """|h|^2 of an Rx stack against a Tx antenna at the origin."""
    return lambda p: np.abs(channel_narrowband(np.zeros_like(p), p, sc)) ** 2


def poly(c):
    """An elementwise polynomial in the coordinates; a point or an (M, d) stack."""
    return lambda p: (c[0] * p[..., 0] ** 2 + c[1] * p[..., 1] * p[..., -1] + c[2] * p[..., -1]
                      - c[3] * p[..., 0])


def test_siso_gain_bounds_single_entry():
    assert siso_gain_bounds(np.array([1.0 + 0j])) == (1.0, 1.0)


def test_siso_gain_bounds_two_equal():
    up, lo = siso_gain_bounds(np.array([1.0, 1.0], dtype=complex))
    assert up == 4.0
    assert lo == 0.0


def test_siso_gain_bounds_dominant_path():
    up, lo = siso_gain_bounds(np.array([3.0, 1.0, 1.0], dtype=complex))
    assert up == 25.0
    assert lo == 1.0


def test_siso_gain_bounds_empty_raises():
    with pytest.raises(ValueError):
        siso_gain_bounds(np.array([], dtype=complex))


def test_grid_search_flat_objective_returns_first_point():
    region = MoveRegion.box((1.0, 1.0, 0.0))
    rep = grid_search_position(lambda p: np.ones(len(p)), region, 0.5)
    assert np.allclose(rep.best_placement, [0.0, 0.0, 0.0])


def test_grid_search_two_path_constructed_max():
    # place the alignment point of a 2-path field on the grid and recover it
    k = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    target = np.array([0.6, 0.4, 0.0])
    phases = 2 * np.pi / LAM * (k @ target)
    b = np.exp(1j * phases)  # aligned (zero relative phase) exactly at `target`
    sc = Scenario(wavelength=LAM, tx_paths=PathSet(np.array([[1.0, 0, 0]])),
                  rx_paths=PathSet(k), prm=b.reshape(2, 1))
    region = MoveRegion.box((1.0, 1.0, 0.0))
    rep = grid_search_position(power(sc), region, 0.05)
    assert abs(rep.best_score - 4.0) < 1e-9
    # the returned point aligns the two path phases (the field is periodic, so
    # several grid points attain the bound; any aligned one is correct)
    rel = 2 * np.pi / LAM * ((k[0] - k[1]) @ (rep.best_placement - target))
    assert abs(np.sin(rel / 2)) < 1e-9


def test_grid_search_single_point_region():
    region = MoveRegion.grid([[0.3, 0.2, 0.1]])
    rep = grid_search_position(lambda p: p[:, 0], region, 1.0)
    assert np.allclose(rep.best_placement, [0.3, 0.2, 0.1])


def test_grid_search_empty_grid_raises():
    region = MoveRegion.segment(1.0)
    with pytest.raises(ValueError):
        grid_search_position(lambda p: np.zeros(len(p)), region, -1.0)


def test_gradient_search_quadratic_converges():
    region = MoveRegion.box((2.0, 2.0, 2.0))
    target = np.array([0.7, 1.2, 0.4])
    rep = gradient_position_search(lambda p: -np.sum((p - target) ** 2, axis=1), region,
                                   start=[1.0, 1.0, 1.0], max_iter=500)
    assert np.linalg.norm(rep.best_placement - target) < 1e-5


def test_gradient_search_flat_single_path_exits():
    sc = Scenario(wavelength=LAM,
                  tx_paths=PathSet(sample_directions(np.random.default_rng(0), 1)),
                  rx_paths=PathSet(sample_directions(np.random.default_rng(1), 1)),
                  prm=np.array([[1.0 + 0j]]))
    region = MoveRegion.box((2.0, 2.0, 2.0))
    rep = gradient_position_search(power(sc), region, start=[1.0, 1.0, 1.0])
    assert rep.iterations <= 2


def test_gradient_search_monotone_trace():
    rng = np.random.default_rng(2)
    sc = Scenario(wavelength=LAM, tx_paths=PathSet(np.array([[1.0, 0, 0]])),
                  rx_paths=PathSet(sample_directions(rng, 4)),
                  prm=(rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))))
    region = MoveRegion.box((3.0, 3.0, 3.0))
    rep = gradient_position_search(power(sc), region, start=[1.5, 1.5, 1.5])
    assert np.all(np.diff(rep.trace) >= -1e-12)


def test_gradient_search_beats_095_of_grid():
    rng = np.random.default_rng(3)
    for trial in range(4):
        sc = Scenario(wavelength=LAM, tx_paths=PathSet(np.array([[1.0, 0, 0]])),
                      rx_paths=PathSet(sample_directions(rng, 4)),
                      prm=(rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))))
        region = MoveRegion.box((2.0, 2.0, 2.0))
        obj = power(sc)
        grid = grid_search_position(obj, region, 0.1)
        best = -np.inf
        for start in region.grid_points(1.0):
            rep = gradient_position_search(obj, region, start, max_iter=150)
            best = max(best, rep.best_score)
        assert best >= 0.95 * grid.best_score


def test_gradient_search_infeasible_start():
    region = MoveRegion.segment(1.0)
    with pytest.raises(InfeasibleError):
        gradient_position_search(lambda p: np.zeros(len(p)), region, start=[5.0, 1.0, 0.0])


@pytest.mark.parametrize("max_iter, stop", [(500, "stalled"), (3, "max_sweeps")])
def test_gradient_search_reports_evaluations_and_stop_reason(max_iter, stop):
    region = MoveRegion.box((2.0, 2.0, 2.0))
    target = np.array([0.7, 1.2, 0.4])
    calls = []

    def objective(p):
        calls.append(len(p))
        return np.sum((p - target) ** 2, axis=1)

    rep = gradient_position_search(objective, region, [1.0, 1.0, 1.0], max_iter=max_iter,
                                   sense="min")
    assert rep.evaluations == sum(calls) > rep.iterations
    assert rep.stop_reason == stop and rep.iterations == len(rep.trace) - 1
    assert rep.best_placement.shape == (3,) and rep.best_score == rep.trace[-1]
    assert np.all(np.diff(rep.trace) <= 0)
    if stop == "max_sweeps":
        assert rep.iterations == max_iter


def test_pso_sphere():
    rep = pso(lambda x: np.sum(x ** 2, axis=1), 3, (np.full(3, -2.0), np.full(3, 2.0)),
              n_particles=40, n_iter=200, seed=0)
    assert rep.best_score < 1e-3


def test_pso_beats_random_search_on_rastrigin():
    def rastrigin(x):
        return 10 * x.shape[-1] + np.sum(x ** 2 - 10 * np.cos(2 * np.pi * x), axis=-1)

    budget_particles, budget_iters = 30, 60
    rep = pso(rastrigin, 2, (np.full(2, -5.12), np.full(2, 5.12)),
              n_particles=budget_particles, n_iter=budget_iters, seed=1)
    rng = np.random.default_rng(1)
    n_evals = budget_particles * (budget_iters + 1)
    rand_best = np.min(rastrigin(rng.uniform(-5.12, 5.12, (n_evals, 2))))
    assert rep.best_score <= rand_best


def test_pso_seed_repeatable():
    f = lambda x: np.sum((x - 0.3) ** 2, axis=1)
    r1 = pso(f, 2, (np.zeros(2), np.ones(2)), seed=7, n_particles=10, n_iter=25)
    r2 = pso(f, 2, (np.zeros(2), np.ones(2)), seed=7, n_particles=10, n_iter=25)
    assert r1.trace == r2.trace
    assert np.array_equal(r1.best_placement, r2.best_placement)


def test_pso_trace_monotone():
    rep = pso(lambda x: np.cos(x[:, 0]) + x[:, 1] ** 2, 2, (np.full(2, -3.0), np.full(2, 3.0)),
              seed=3, n_particles=15, n_iter=40)
    assert np.all(np.diff(rep.trace) <= 1e-15)


@settings(max_examples=30, deadline=None)
@given(c=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
       step=st.sampled_from([0.25, 0.5, 1.0]), sense=st.sampled_from(["max", "min"]),
       block=st.sampled_from([1, 7, search._GRID_BLOCK]))
def test_grid_search_matches_its_scalar_oracle(c, step, sense, block):
    # integer coefficients on a binary grid tie often, within and across blocks
    region = MoveRegion.box((2.0, 1.5, 1.0))
    want = scalar_grid_search_position(poly(c), region, step, sense)
    with mock.patch.object(search, "_GRID_BLOCK", block):
        got = grid_search_position(poly(c), region, step, sense)
    assert got.best_placement.tobytes() == want.best_placement.tobytes()
    assert (got.best_score, got.trace, got.iterations) == \
        (want.best_score, want.trace, want.iterations)


def test_grid_search_ties_across_blocks_go_to_the_first_point():
    region = MoveRegion.box((2.0, 2.0, 2.0))
    objective = lambda p: -(p[..., 2] - 1.0) ** 2  # every (x, y) column ties
    got = grid_search_position(objective, region, 0.05)
    want = scalar_grid_search_position(objective, region, 0.05)
    assert got.iterations > 4 * search._GRID_BLOCK
    assert got.best_placement.tobytes() == want.best_placement.tobytes()
    assert got.best_score == want.best_score
    assert got.best_placement[:2].tolist() == [0.0, 0.0]


def test_grid_search_nan_never_wins():
    region = MoveRegion.segment(1.0)
    rep = grid_search_position(lambda p: np.where(p[:, 0] > 0.5, np.nan, p[:, 0]), region, 0.25)
    assert rep.best_placement[0] == 0.5 and rep.best_score == 0.5


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sense", ["min", "max"])
def test_pso_matches_its_scalar_oracle(seed, sense):
    objective = poly([1.0, -2.0, 0.5, 0.75])
    bounds = (np.array([-1.0, 0.0, -2.0]), np.array([1.0, 2.0, 0.5]))
    got = pso(objective, 3, bounds, n_particles=12, n_iter=30, seed=seed, sense=sense)
    want = scalar_pso(objective, 3, bounds, n_particles=12, n_iter=30, seed=seed, sense=sense)
    assert got.trace == want.trace and got.best_score == want.best_score
    assert got.best_placement.tobytes() == want.best_placement.tobytes()


def test_pso_nan_never_wins():
    with np.errstate(invalid="ignore"):
        rep = pso(lambda x: np.sqrt(x[:, 0]), 1, (np.array([-1.0]), np.array([1.0])), seed=0,
                  sense="max")
    assert np.all(np.isfinite(rep.trace))
    assert rep.best_score == np.sqrt(rep.best_placement[0])


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), sense=st.sampled_from(["max", "min"]),
       max_iter=st.sampled_from([3, 60]))
def test_gradient_search_matches_its_scalar_oracle(seed, sense, max_iter):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, 4)
    objective = poly(c if sense == "max" else -c)
    region = MoveRegion.box((2.0, 2.0, 1.0))
    start = rng.uniform(0.0, 1.0, 3) * [2.0, 2.0, 1.0]
    got = gradient_position_search(objective, region, start, max_iter, sense)
    want = scalar_gradient_position_search(objective, region, start, max_iter, sense)
    assert got.best_placement.tobytes() == want.best_placement.tobytes()
    assert got.trace == want.trace and got.best_score == want.best_score
    assert (got.iterations, got.evaluations, got.stop_reason) == \
        (want.iterations, want.evaluations, want.stop_reason)


@pytest.mark.parametrize("run", [
    lambda f: grid_search_position(f, MoveRegion.box((1.0, 1.0, 0.0)), 0.5),
    lambda f: gradient_position_search(f, MoveRegion.box((1.0, 1.0, 1.0)), [0.5, 0.5, 0.5]),
    lambda f: pso(f, 2, (np.zeros(2), np.ones(2)), n_particles=5, n_iter=3),
    # stacks of M == d rows, where p[0] has the stacked shape (M,) too
    lambda f: grid_search_position(f, MoveRegion.box((1.0, 0.0, 0.0)), 0.5),
    lambda f: pso(f, 2, (np.zeros(2), np.ones(2)), n_particles=2, n_iter=3),
], ids=["grid", "gradient", "pso", "grid-3-points", "pso-2-particles"])
def test_a_scalar_objective_is_refused(run):
    with pytest.raises(ValueError, match="must return shape"):
        run(lambda p: p[0])


def test_square_stacks_of_a_stacked_objective_are_scored():
    rep = grid_search_position(lambda p: -(p[:, 0] - 0.5) ** 2, MoveRegion.box((1.0, 0.0, 0.0)),
                               0.5)
    assert rep.best_placement.tolist() == [0.5, 0.0, 0.0] and rep.best_score == 0.0
    rep = pso(lambda p: p.sum(axis=1), 2, (np.zeros(2), np.ones(2)), n_particles=2, n_iter=3)
    assert rep.best_score == rep.best_placement.sum()
