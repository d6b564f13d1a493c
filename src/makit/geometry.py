"""Coordinate systems, wave vectors, antenna orientations, and placement checks.

Conventions: the local coordinate system (LCS) is a fixed right-handed frame
at the transmitter or receiver; every antenna carries an antenna-centric
coordinate system (ACCS) whose axes, expressed in the LCS, form the columns
of an orthonormal orientation matrix with determinant +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Direction",
    "Pose",
    "MoveRegion",
    "PlacementReport",
    "wave_vector",
    "aom_from_euler",
    "accs_basis",
    "validate_placement",
]

_ORTH_TOL = 1e-10
_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Direction:
    """Propagation direction given by elevation in [-pi/2, pi/2] and azimuth in [-pi, pi]."""

    elevation: float
    azimuth: float

    def __post_init__(self):
        if not (-np.pi / 2 - 1e-12 <= self.elevation <= np.pi / 2 + 1e-12):
            raise ValueError(f"elevation {self.elevation} outside [-pi/2, pi/2]")
        if not (-np.pi - 1e-12 <= self.azimuth <= np.pi + 1e-12):
            raise ValueError(f"azimuth {self.azimuth} outside [-pi, pi]")


def wave_vector(d: Direction) -> np.ndarray:
    """Unit wave vector [cos(el)cos(az), cos(el)sin(az), sin(el)] for a direction."""
    ce = math.cos(d.elevation)
    return np.array([ce * math.cos(d.azimuth), ce * math.sin(d.azimuth), math.sin(d.elevation)])


def _check_orientation(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("orientation matrix must be 3x3")
    if not np.allclose(m.T @ m, np.eye(3), atol=_ORTH_TOL):
        raise ValueError("orientation matrix columns are not orthonormal")
    if np.linalg.det(m) < 0:
        raise ValueError("orientation matrix must be right-handed (det +1)")
    return m


def aom_from_euler(yaw, pitch, roll) -> np.ndarray:
    """Orientation matrix from intrinsic Z(yaw) * Y(pitch) * X(roll) rotations; angles that
    broadcast to shape S give the stack of matrices, shape S + (3, 3)."""
    a = np.array(np.broadcast_arrays(yaw, pitch, roll), dtype=float)
    (cy, cp, cr), (sy, sp, sr) = np.cos(a), np.sin(a)
    zero, one = np.zeros_like(cy), np.ones_like(cy)
    rz, ry, rx = (np.stack(m, axis=-1).reshape(cy.shape + (3, 3)) for m in (
        (cy, -sy, zero, sy, cy, zero, zero, zero, one),
        (cp, zero, sp, zero, one, zero, -sp, zero, cp),
        (one, zero, zero, zero, cr, -sr, zero, sr, cr)))
    return rz @ ry @ rx


@dataclass(frozen=True)
class Pose:
    """Antenna state: position vector (meters, LCS) plus orientation matrix."""

    position: np.ndarray
    orientation: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float).reshape(3)
        if not np.all(np.isfinite(p)):
            raise ValueError("position must be finite")
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "orientation", _check_orientation(self.orientation))


def accs_basis(k_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference basis (i_hat, j_hat) completing unit wave vectors to orthonormal triples.

    k_hat is one vector (3,) or a stack (..., 3); i_hat and j_hat have its shape.
    i_hat lies in the plane spanned by the z axis and k_hat; j_hat = k_hat x i_hat
    has zero third component.  For k_hat parallel to the z axis the plane
    constraint degenerates and the fixed pair i=(1,0,0), j=(0,1,0) is returned.
    """
    k = np.asarray(k_hat, dtype=float)
    if k.shape[-1:] != (3,):
        raise ValueError("k_hat must have shape (..., 3)")
    if np.any(np.abs(np.linalg.norm(k, axis=-1) - 1.0) > 1e-9):
        raise ValueError("k_hat must have unit norm")
    i = np.array([0.0, 0.0, 1.0]) - k[..., 2:] * k
    n = np.linalg.norm(i, axis=-1, keepdims=True)
    pole = n < 1e-9  # k parallel to the z axis
    n = np.where(pole, 1.0, n)
    j = k[..., [1, 0, 2]] * [1.0, -1.0, 0.0] / n  # k x i = (k x z) / n since k x k = 0
    return np.where(pole, [1.0, 0.0, 0.0], i / n), np.where(pole, [0.0, 1.0, 0.0], j)


@dataclass(frozen=True)
class MoveRegion:
    """Antenna movement region with a minimum inter-antenna spacing d_min.

    kind 'segment': the set {(x,0,0) : 0 <= x <= length}.
    kind 'box': the box [0,e1] x [0,e2] x [0,e3]; zero extents degenerate the box.
    kind 'grid': a fixed set of candidate positions (n, 3).
    """

    kind: str
    length: float = 0.0
    extents: tuple[float, float, float] = (0.0, 0.0, 0.0)
    points: np.ndarray | None = None
    d_min: float = 0.0

    def __post_init__(self):
        if self.kind not in ("segment", "box", "grid"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.d_min < 0:
            raise ValueError("d_min must be >= 0")
        if self.kind == "segment" and self.length <= 0:
            raise ValueError("segment length must be > 0")
        if self.kind == "box":
            ext = tuple(float(e) for e in self.extents)
            if any(e < 0 for e in ext) or max(ext) <= 0:
                raise ValueError("box extents must be >= 0 with at least one > 0")
            object.__setattr__(self, "extents", ext)
        if self.kind == "grid":
            pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
            if len(pts) == 0:
                raise ValueError("grid region needs at least one point")
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            np.fill_diagonal(d, np.inf)
            if len(pts) > 1 and d.min() == 0.0:
                raise ValueError("grid points must be pairwise distinct")
            object.__setattr__(self, "points", pts)

    @classmethod
    def segment(cls, length: float, d_min: float = 0.0) -> "MoveRegion":
        return cls(kind="segment", length=length, d_min=d_min)

    @classmethod
    def box(cls, extents, d_min: float = 0.0) -> "MoveRegion":
        ext = tuple(extents) + (0.0,) * (3 - len(tuple(extents)))
        return cls(kind="box", extents=ext, d_min=d_min)

    @classmethod
    def grid(cls, points, d_min: float = 0.0) -> "MoveRegion":
        return cls(kind="grid", points=np.asarray(points, dtype=float), d_min=d_min)

    def contains(self, position, tol: float = 1e-9) -> bool:
        p = np.asarray(position, dtype=float).reshape(3)
        if self.kind == "segment":
            return (-tol <= p[0] <= self.length + tol) and abs(p[1]) <= tol and abs(p[2]) <= tol
        if self.kind == "box":
            return all(-tol <= p[i] <= self.extents[i] + tol for i in range(3))
        return bool(np.min(np.linalg.norm(self.points - p, axis=1)) <= tol)

    def clip(self, position) -> np.ndarray:
        """Project a point, or each point of a (..., 3) stack, onto the region
        (nearest point for grids)."""
        p = np.asarray(position, dtype=float)
        p = p.reshape(3) if p.ndim < 2 else p
        if self.kind == "segment":
            return np.where([True, False, False], np.clip(p, 0.0, self.length), 0.0)
        if self.kind == "box":
            return np.clip(p, 0.0, np.asarray(self.extents))
        d = np.linalg.norm(self.points - p[..., None, :], axis=-1)
        return self.points[np.argmin(d, axis=-1)]

    def grid_points(self, step: float) -> np.ndarray:
        """Regular sampling of the region with the given step, (n, 3), lexicographic order."""
        if self.kind == "grid":
            return self.points.copy()
        if step <= 0:
            raise ValueError("step must be > 0")
        if self.kind == "segment":
            x = np.arange(0.0, self.length + step / 2, step)
            return np.column_stack([x, np.zeros((len(x), 2))])
        axes = [np.arange(0.0, e + step / 2, step) if e > 0 else np.array([0.0]) for e in self.extents]
        g = np.meshgrid(*axes, indexing="ij")
        return np.stack([a.ravel() for a in g], axis=1)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform random positions inside the region."""
        if self.kind == "segment":
            return np.column_stack([rng.uniform(0.0, self.length, n), np.zeros((n, 2))])
        if self.kind == "box":
            return rng.uniform(0.0, 1.0, (n, 3)) * np.asarray(self.extents)
        idx = rng.integers(0, len(self.points), n)
        return self.points[idx]


@dataclass(frozen=True)
class PlacementReport:
    """Outcome of validate_placement; violations are data, not errors."""

    ok: bool
    region_violations: tuple[int, ...]
    pair_violations: tuple[tuple[int, int], ...]

    def __bool__(self) -> bool:
        return self.ok


def _positions(poses) -> np.ndarray:
    out = [p.position if isinstance(p, Pose) else np.asarray(p, dtype=float).reshape(3)
           for p in poses]
    return np.asarray(out).reshape(-1, 3)


def _too_close(a: np.ndarray, b: np.ndarray, d_min: float) -> np.ndarray:
    """(..., m, n) mask, True where point i of a (..., m, k) and point j of b
    (..., n, k) are under d_min·(1 − 1e-12) apart.

    The inequality is closed: a pair at exactly d_min passes, and the
    relative margin absorbs rounding in the distance, which is summed over the axes
    in order, as np.linalg.norm does.
    """
    d2 = np.square(a[..., :, None, 0] - b[..., None, :, 0])
    for k in range(1, a.shape[-1]):
        d2 += np.square(a[..., :, None, k] - b[..., None, :, k])
    return ~(np.sqrt(d2) >= d_min * (1 - 1e-12))


def _close_pairs(pos: np.ndarray, d_min: float) -> np.ndarray:
    """(n, n) symmetric mask of the positions i != j of an (n, k) stack that are _too_close."""
    close = _too_close(pos, pos, d_min)
    np.fill_diagonal(close, False)
    return close


def validate_placement(poses, region: MoveRegion) -> PlacementReport:
    """Check every antenna is inside the region and every pair is >= d_min apart.

    The spacing check is a closed inequality: a pair at exactly d_min passes.
    """
    pos = _positions(poses)
    bad_region = tuple(i for i, p in enumerate(pos) if not region.contains(p))
    bad_pairs = tuple((int(i), int(j))
                      for i, j in zip(*np.nonzero(_close_pairs(pos, region.d_min))) if i < j)
    return PlacementReport(ok=not bad_region and not bad_pairs,
                           region_violations=bad_region,
                           pair_violations=bad_pairs)
