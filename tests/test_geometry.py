import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from makit.geometry import (Direction, MoveRegion, Pose, _close_pairs, _too_close, accs_basis,
                            aom_from_euler, validate_placement, wave_vector)
from oracles import ref_aom_from_euler, ref_region_contains, ref_too_close


def test_wave_vector_axis_case():
    assert np.allclose(wave_vector(Direction(0.0, 0.0)), [1.0, 0.0, 0.0])


def test_wave_vector_pole_case():
    for az in (0.0, 1.0, -2.5):
        assert np.allclose(wave_vector(Direction(np.pi / 2, az)), [0.0, 0.0, 1.0], atol=1e-15)


def test_wave_vector_trig_products():
    # direct evaluation of the three trigonometric products
    k = wave_vector(Direction(np.pi / 4, np.pi / 3))
    expected = [np.cos(np.pi / 4) * np.cos(np.pi / 3),
                np.cos(np.pi / 4) * np.sin(np.pi / 3),
                np.sin(np.pi / 4)]
    assert np.allclose(k, expected)
    assert np.allclose(k, [0.35355339, 0.61237244, 0.70710678])


def test_wave_vector_unit_norm_randoms():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        el = rng.uniform(-np.pi / 2, np.pi / 2)
        az = rng.uniform(-np.pi, np.pi)
        assert abs(np.linalg.norm(wave_vector(Direction(el, az))) - 1.0) <= 1e-12


def test_wave_vector_range_errors():
    with pytest.raises(ValueError):
        Direction(2.0, 0.0)
    with pytest.raises(ValueError):
        Direction(0.0, 4.0)


def test_aom_identity():
    assert np.allclose(aom_from_euler(0, 0, 0), np.eye(3))


def test_aom_yaw_pi():
    m = aom_from_euler(np.pi, 0, 0)
    expected = np.diag([-1.0, -1.0, 1.0])
    assert np.allclose(m, expected, atol=1e-15)


def test_aom_orthonormal_randoms():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        m = aom_from_euler(*rng.uniform(-np.pi, np.pi, 3))
        assert np.allclose(m.T @ m, np.eye(3), atol=1e-10)
        assert np.linalg.det(m) > 0.999999


@settings(max_examples=60, deadline=None)
@given(*(arrays(float, st.integers(1, 4), elements=st.floats(-10.0, 10.0)) for _ in range(3)))
def test_stacked_aom_from_euler_equals_per_angle_calls_bitwise(yaws, pitches, rolls):
    stack = aom_from_euler(yaws[:, None, None], pitches[:, None], rolls)
    assert stack.shape == (len(yaws), len(pitches), len(rolls), 3, 3)
    for (i, y), (j, p), (k, r) in itertools.product(*map(enumerate, (yaws, pitches, rolls))):
        one = aom_from_euler(y, p, r)
        assert one.shape == (3, 3)
        assert stack[i, j, k].tobytes() == one.tobytes()
        assert one.tobytes() == ref_aom_from_euler(y, p, r).tobytes()


def test_accs_basis_x_axis():
    i, j = accs_basis(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(i, [0.0, 0.0, 1.0])
    assert np.allclose(np.abs(j), [0.0, 1.0, 0.0])


def test_accs_basis_j_planar():
    _, j = accs_basis(np.array([0.0, 1.0, 0.0]))
    assert abs(j[2]) < 1e-14


def test_accs_basis_pole_fallback():
    for sign in (1.0, -1.0):
        i, j = accs_basis(np.array([0.0, 0.0, sign]))
        assert np.allclose(i, [1.0, 0.0, 0.0])
        assert np.allclose(j, [0.0, 1.0, 0.0])


def test_accs_basis_orthonormal_randoms():
    rng = np.random.default_rng(2)
    n = 0
    while n < 10_000:
        k = rng.standard_normal(3)
        k /= np.linalg.norm(k)
        if abs(k[2]) > 1 - 1e-6:
            continue
        n += 1
        i, j = accs_basis(k)
        triple = np.stack([k, i, j])
        assert np.allclose(triple @ triple.T, np.eye(3), atol=1e-9)
        assert abs(j[2]) < 1e-9
        # i lies in span{z, k}: orthogonal to z x k
        assert abs(i @ np.cross([0.0, 0.0, 1.0], k)) < 1e-9


def test_pose_validation():
    with pytest.raises(ValueError):
        Pose(position=np.array([np.inf, 0, 0]))
    with pytest.raises(ValueError):
        Pose(position=np.zeros(3), orientation=np.eye(3) * 2)
    # reflections are rejected
    with pytest.raises(ValueError):
        Pose(position=np.zeros(3), orientation=np.diag([1.0, 1.0, -1.0]))


def test_placement_boundary_spacing_passes():
    region = MoveRegion.box((2.0, 2.0, 2.0), d_min=0.5)
    report = validate_placement([[0, 0, 0], [0.5, 0, 0]], region)
    assert report.ok


def test_placement_close_pair_fails():
    region = MoveRegion.box((2.0, 2.0, 2.0), d_min=0.5)
    report = validate_placement([[0, 0, 0], [0.5 - 1e-6, 0, 0]], region)
    assert not report.ok
    assert report.pair_violations == ((0, 1),)


def test_placement_outside_segment():
    region = MoveRegion.segment(1.0, d_min=0.0)
    report = validate_placement([[1.5, 0, 0]], region)
    assert report.region_violations == (0,)


def test_placement_symmetric_and_idempotent():
    region = MoveRegion.box((3.0, 3.0, 3.0), d_min=0.7)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 3, (5, 3))
    r1 = validate_placement(pts, region)
    r2 = validate_placement(pts[::-1], region)
    assert r1.ok == r2.ok
    assert len(r1.pair_violations) == len(r2.pair_violations)
    assert validate_placement(pts, region) == r1


def test_grid_region_distinct_points():
    with pytest.raises(ValueError):
        MoveRegion.grid([[0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):  # -0.0 is the point 0.0
        MoveRegion.grid([[1.0, 0.0, 2.0], [0.5, 0.0, 0.0], [1.0, -0.0, 2.0]])
    assert len(MoveRegion.grid([[0, 0, 0], [0, 0, 1e-300]]).points) == 2


REGIONS = [MoveRegion.segment(2.0), MoveRegion.box((1.5, 2.0, 0.0)), MoveRegion.box((1.0, 0.5, 3.0)),
           MoveRegion.grid([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0], [0.25, 1.0, 1e-7]])]


@st.composite
def region_points(draw):
    """(region, (..., 3) stack, tol): coordinates drawn near and on the region's edges
    (0, each extent, grid coordinates), each moved by a multiple of tol or a few ulps."""
    region = draw(st.sampled_from(REGIONS))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
    edges = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 0.25, 1e-7]
    shape = draw(st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple)) + (3,)
    base = draw(arrays(np.float64, shape, elements=st.sampled_from(edges)))
    shift = draw(arrays(np.float64, shape, elements=st.sampled_from([0.0, -1.0, 1.0, -2.0, 2.0])))
    ulps = draw(arrays(np.float64, shape, elements=st.sampled_from([0.0, -1.0, 1.0])))
    noise = draw(arrays(np.float64, shape, elements=st.floats(-4.0, 4.0)))
    pts = base + shift * tol + ulps * np.spacing(np.maximum(base, tol))
    return region, np.where(draw(st.booleans()), pts, noise), tol


@settings(max_examples=300, deadline=None)
@given(region_points())
def test_stacked_contains_equals_per_point_calls(case):
    region, pts, tol = case
    flags = np.asarray(region.contains(pts, tol=tol))  # a bool for one point
    assert flags.shape == pts.shape[:-1] and flags.dtype == bool
    for idx in np.ndindex(pts.shape[:-1]):
        one = region.contains(pts[idx], tol=tol)
        assert type(one) is bool and one == flags[idx] == ref_region_contains(region, pts[idx], tol)
    if tol == 1e-9:  # validate_placement's tolerance
        bad = validate_placement(pts.reshape(-1, 3), region).region_violations
        assert bad == tuple(np.flatnonzero(~flags.reshape(-1)).tolist())


def test_region_grid_points_lexicographic():
    region = MoveRegion.box((1.0, 1.0, 0.0))
    pts = region.grid_points(0.5)
    assert pts.shape == (9, 3)
    assert np.all(np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0])) == np.arange(9))


@pytest.mark.parametrize("side, step", [(1.0, 0.5), (2.0, 0.2), (5.0, 0.3)])
def test_square_and_segment_grid_points_match_hand_built_grids(side, step):
    ax = np.arange(0.0, side + step / 2, step)
    square = np.array([(x, y, 0.0) for x in ax for y in ax])
    segment = np.zeros((len(ax), 3))
    segment[:, 0] = ax
    assert np.array_equal(MoveRegion.box((side, side, 0.0)).grid_points(step), square)
    assert np.array_equal(MoveRegion.segment(side).grid_points(step), segment)


@st.composite
def spaced_stacks(draw):
    """(stack (B, M, k), d_min): random coordinates, or lattice multiples of d_min
    so that many pairs sit at exactly d_min (or a relative 1e-13 or 1e-10 under
    it, either side of the margin), or a rotated lattice where they sit within
    rounding of it; d_min may be 0."""
    b, m, k = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    d_min = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.3, 0.7]))
    kind = draw(st.sampled_from(["random", "lattice", "rotated"]))
    if kind == "random":
        coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
        return draw(arrays(np.float64, (b, m, k), elements=coords)), d_min
    stack = draw(arrays(np.int64, (b, m, k), elements=st.integers(-2, 2))) * (d_min or 0.5)
    stack = stack * draw(st.sampled_from([1.0, 1 - 1e-13, 1 - 1e-10]))
    if kind == "rotated":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        stack = stack @ np.linalg.qr(rng.standard_normal((k, k)))[0]
    return stack, d_min


@settings(max_examples=300, deadline=None)
@given(spaced_stacks())
def test_too_close_matches_the_replaced_spacing_comparisons(case):
    stack, d_min = case
    for i in range(stack.shape[1]):
        others = np.delete(stack[0], i, axis=0)
        close = _too_close(stack[0], others, d_min)
        assert np.array_equal(~close.any(axis=1),
                              ~ref_too_close(stack[0], others, d_min).any(axis=1))
        close = _too_close(stack[:, i:i + 1], np.delete(stack, i, axis=1), d_min)
        # the sensing ascent's candidate mask took the differences the other way round
        want = ref_too_close(np.delete(stack, i, axis=1), stack[:, i:i + 1], d_min)
        assert np.array_equal(close[:, 0], want[..., 0])
    for pos in stack:
        want = ref_too_close(pos, pos, d_min)
        np.fill_diagonal(want, False)
        assert np.array_equal(_close_pairs(pos, d_min), want)
    # the stacked sensing sweep: (B, M, 1, k) candidate points against one (M, k) placement
    assert np.array_equal(_too_close(stack[:, :, None], stack[0], d_min),
                          ref_too_close(stack[:, :, None], stack[0], d_min))
