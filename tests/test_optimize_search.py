import numpy as np
import pytest

from makit.channel import PathSet, Scenario, channel_narrowband, sample_directions
from makit.errors import InfeasibleError
from makit.geometry import MoveRegion
from makit.optimize import (gradient_position_search, grid_search_position, pso,
                            siso_gain_bounds)

LAM = 1.0


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
    rep = grid_search_position(lambda p: 1.0, region, 0.5)
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
    rep = grid_search_position(lambda p: abs(channel_narrowband(np.zeros(3), p, sc)) ** 2,
                               region, 0.05)
    assert abs(rep.best_score - 4.0) < 1e-9
    # the returned point aligns the two path phases (the field is periodic, so
    # several grid points attain the bound; any aligned one is correct)
    rel = 2 * np.pi / LAM * ((k[0] - k[1]) @ (rep.best_placement - target))
    assert abs(np.sin(rel / 2)) < 1e-9


def test_grid_search_single_point_region():
    region = MoveRegion.grid([[0.3, 0.2, 0.1]])
    rep = grid_search_position(lambda p: p[0], region, 1.0)
    assert np.allclose(rep.best_placement, [0.3, 0.2, 0.1])


def test_grid_search_empty_grid_raises():
    region = MoveRegion.segment(1.0)
    with pytest.raises(ValueError):
        grid_search_position(lambda p: 0.0, region, -1.0)


def test_gradient_search_quadratic_converges():
    region = MoveRegion.box((2.0, 2.0, 2.0))
    target = np.array([0.7, 1.2, 0.4])
    rep = gradient_position_search(lambda p: -np.sum((p - target) ** 2), region,
                                   start=[1.0, 1.0, 1.0], max_iter=500)
    assert np.linalg.norm(rep.best_placement - target) < 1e-5


def test_gradient_search_flat_single_path_exits():
    sc = Scenario(wavelength=LAM,
                  tx_paths=PathSet(sample_directions(np.random.default_rng(0), 1)),
                  rx_paths=PathSet(sample_directions(np.random.default_rng(1), 1)),
                  prm=np.array([[1.0 + 0j]]))
    region = MoveRegion.box((2.0, 2.0, 2.0))
    rep = gradient_position_search(
        lambda p: abs(channel_narrowband(np.zeros(3), p, sc)) ** 2, region,
        start=[1.0, 1.0, 1.0])
    assert rep.iterations <= 2


def test_gradient_search_monotone_trace():
    rng = np.random.default_rng(2)
    sc = Scenario(wavelength=LAM, tx_paths=PathSet(np.array([[1.0, 0, 0]])),
                  rx_paths=PathSet(sample_directions(rng, 4)),
                  prm=(rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))))
    region = MoveRegion.box((3.0, 3.0, 3.0))
    rep = gradient_position_search(
        lambda p: abs(channel_narrowband(np.zeros(3), p, sc)) ** 2, region,
        start=[1.5, 1.5, 1.5])
    assert np.all(np.diff(rep.trace) >= -1e-12)


def test_gradient_search_beats_095_of_grid():
    rng = np.random.default_rng(3)
    for trial in range(4):
        sc = Scenario(wavelength=LAM, tx_paths=PathSet(np.array([[1.0, 0, 0]])),
                      rx_paths=PathSet(sample_directions(rng, 4)),
                      prm=(rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))))
        region = MoveRegion.box((2.0, 2.0, 2.0))
        obj = lambda p: abs(channel_narrowband(np.zeros(3), p, sc)) ** 2
        grid = grid_search_position(obj, region, 0.1)
        best = -np.inf
        for start in region.grid_points(1.0):
            rep = gradient_position_search(obj, region, start, max_iter=150)
            best = max(best, rep.best_score)
        assert best >= 0.95 * grid.best_score


def test_gradient_search_infeasible_start():
    region = MoveRegion.segment(1.0)
    with pytest.raises(InfeasibleError):
        gradient_position_search(lambda p: 0.0, region, start=[5.0, 1.0, 0.0])


@pytest.mark.parametrize("max_iter, stop", [(500, "stalled"), (3, "max_sweeps")])
def test_gradient_search_reports_evaluations_and_stop_reason(max_iter, stop):
    region = MoveRegion.box((2.0, 2.0, 2.0))
    target = np.array([0.7, 1.2, 0.4])
    calls = []

    def objective(p):
        calls.append(p)
        return np.sum((p - target) ** 2)

    rep = gradient_position_search(objective, region, [1.0, 1.0, 1.0], max_iter=max_iter,
                                   sense="min")
    assert rep.evaluations == len(calls) > rep.iterations
    assert rep.stop_reason == stop and rep.iterations == len(rep.trace) - 1
    assert rep.best_placement.shape == (3,) and rep.best_score == rep.trace[-1]
    assert np.all(np.diff(rep.trace) <= 0)
    if stop == "max_sweeps":
        assert rep.iterations == max_iter


def test_pso_sphere():
    rep = pso(lambda x: np.sum(x ** 2), 3, (np.full(3, -2.0), np.full(3, 2.0)),
              n_particles=40, n_iter=200, seed=0)
    assert rep.best_score < 1e-3


def test_pso_beats_random_search_on_rastrigin():
    def rastrigin(x):
        return 10 * len(x) + np.sum(x ** 2 - 10 * np.cos(2 * np.pi * x))

    budget_particles, budget_iters = 30, 60
    rep = pso(rastrigin, 2, (np.full(2, -5.12), np.full(2, 5.12)),
              n_particles=budget_particles, n_iter=budget_iters, seed=1)
    rng = np.random.default_rng(1)
    n_evals = budget_particles * (budget_iters + 1)
    rand_best = min(rastrigin(rng.uniform(-5.12, 5.12, 2)) for _ in range(n_evals))
    assert rep.best_score <= rand_best


def test_pso_seed_repeatable():
    f = lambda x: np.sum((x - 0.3) ** 2)
    r1 = pso(f, 2, (np.zeros(2), np.ones(2)), seed=7, n_particles=10, n_iter=25)
    r2 = pso(f, 2, (np.zeros(2), np.ones(2)), seed=7, n_particles=10, n_iter=25)
    assert r1.trace == r2.trace
    assert np.array_equal(r1.best_placement, r2.best_placement)


def test_pso_trace_monotone():
    rep = pso(lambda x: np.cos(x[0]) + x[1] ** 2, 2, (np.full(2, -3.0), np.full(2, 3.0)),
              seed=3, n_particles=15, n_iter=40)
    assert np.all(np.diff(rep.trace) <= 1e-15)
