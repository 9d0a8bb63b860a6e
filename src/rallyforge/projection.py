"""Planar homography estimation between image pixels and the court plane.

A ``Homography`` stores the world-to-image matrix. Image-to-court lookups go
through its inverse, computed once when the homography is built. Estimation
uses the normalized direct linear transform: both point sets are translated
to their centroid and scaled so the mean distance from the origin is
sqrt(2), the 2n x 9 linear system is solved by SVD, and the result is
denormalized. This is exact for four pairs and a least-squares fit for more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

import numpy as np

from .court import CourtPoint
from .errors import (
    DegenerateConfiguration,
    InsufficientCorrespondences,
    ProjectionSingularity,
    ValidationError,
)

# Homogeneous w below this is treated as a point at infinity.
W_EPSILON = 1e-12

# |det| below this (after scale normalization) means the matrix is not invertible.
DET_EPSILON = 1e-12


@dataclass(frozen=True)
class Correspondence:
    """One matched pair: a court-plane point and its observed pixel."""

    world: CourtPoint
    pixel: Tuple[float, float]

    def __post_init__(self):
        u, v = self.pixel
        if not all(map(math.isfinite, (self.world.x, self.world.y, u, v))):
            raise ValidationError("correspondence coordinates must be finite")


def _normalize_matrix(m: np.ndarray) -> np.ndarray:
    """Scale so the bottom-right entry is 1 when nonzero, else unit Frobenius norm."""
    if abs(m[2, 2]) > W_EPSILON:
        return m / m[2, 2]
    return m / np.linalg.norm(m)


@dataclass(frozen=True)
class Homography:
    """World-plane to image mapping, stored scale-normalized."""

    matrix: np.ndarray = field(repr=False)
    _inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3) or not np.all(np.isfinite(m)):
            raise ValidationError("homography must be a finite 3x3 matrix")
        m = _normalize_matrix(m)
        if abs(np.linalg.det(m)) <= DET_EPSILON:
            raise DegenerateConfiguration("homography matrix is not invertible")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_inverse", np.linalg.inv(m))

    @staticmethod
    def identity() -> "Homography":
        return Homography(np.eye(3))

    def world_to_image(self, x: float, y: float) -> Tuple[float, float]:
        u, v = _project(self.matrix, x, y)
        return (u, v)

    def image_to_world(self, u: float, v: float) -> Tuple[float, float]:
        return _project(self._inverse, u, v)

    def world_to_image_many(self, points: np.ndarray) -> np.ndarray:
        """``world_to_image`` for every row of an (n, 2) array, bit for bit."""
        return _project_many(self.matrix, points)

    def image_to_world_many(self, pixels: np.ndarray) -> np.ndarray:
        """``image_to_world`` for every row of an (n, 2) array, bit for bit."""
        return _project_many(self._inverse, pixels)


def _project(m: np.ndarray, a: float, b: float) -> Tuple[float, float]:
    vec = m @ (a, b, 1.0)
    w = vec[2]
    if abs(w) <= W_EPSILON:
        raise ProjectionSingularity(f"point ({a}, {b}) maps to infinity (w={w:.3e})")
    return (vec[0] / w, vec[1] / w)


def _project_many(m: np.ndarray, points: np.ndarray) -> np.ndarray:
    homogeneous = np.ones((len(points), 3))
    homogeneous[:, :2] = points
    # one 3x3 mat-vec product per row adds in the order _project does;
    # homogeneous @ m.T and einsum round differently
    vec = (m @ homogeneous[:, :, None])[:, :, 0]
    w = vec[:, 2]
    at_infinity = np.flatnonzero(np.abs(w) <= W_EPSILON)
    if len(at_infinity):
        a, b = homogeneous[at_infinity[0], :2]
        raise ProjectionSingularity(
            f"point ({a}, {b}) maps to infinity (w={w[at_infinity[0]]:.3e})")
    return vec[:, :2] / w[:, None]


def _hartley_normalization(points: np.ndarray) -> np.ndarray:
    """Similarity transform taking points to zero centroid and mean norm sqrt(2)."""
    centroid = points.mean(axis=0)
    mean_dist = np.linalg.norm(points - centroid, axis=1).mean()
    if mean_dist <= 1e-12:
        raise DegenerateConfiguration("correspondence points are coincident")
    s = math.sqrt(2.0) / mean_dist
    return np.array([
        [s, 0.0, -s * centroid[0]],
        [0.0, s, -s * centroid[1]],
        [0.0, 0.0, 1.0],
    ])


def _collinear(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> bool:
    area2 = abs((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))
    span = max(np.linalg.norm(q - p), np.linalg.norm(r - p), 1.0)
    return area2 <= 1e-9 * span * span


def estimate_homography(pairs: Sequence[Correspondence]) -> Homography:
    """Fit the world-to-image homography from matched point pairs.

    Args:
        pairs: at least four correspondences; exactly four must have no three
            collinear points on either side.

    Raises:
        InsufficientCorrespondences: fewer than four pairs.
        DegenerateConfiguration: the layout does not pin down a unique,
            invertible mapping.
    """
    if len(pairs) < 4:
        raise InsufficientCorrespondences(
            f"homography needs at least 4 correspondences, got {len(pairs)}"
        )
    world = np.array([[c.world.x, c.world.y] for c in pairs], dtype=float)
    image = np.array([c.pixel for c in pairs], dtype=float)

    if len(pairs) == 4:
        idx = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        for pts in (world, image):
            if any(_collinear(pts[i], pts[j], pts[k]) for i, j, k in idx):
                raise DegenerateConfiguration("three of four correspondence points are collinear")

    t_world = _hartley_normalization(world)
    t_image = _hartley_normalization(image)
    wn = (t_world @ np.column_stack([world, np.ones(len(pairs))]).T).T
    im = (t_image @ np.column_stack([image, np.ones(len(pairs))]).T).T

    # two rows per pair, interleaved
    x, y, u, v = wn[:, 0], wn[:, 1], im[:, 0], im[:, 1]
    zero, one = np.zeros(len(pairs)), np.ones(len(pairs))
    a = np.empty((2 * len(pairs), 9))
    a[0::2] = np.column_stack([zero, zero, zero, -x, -y, -one, v * x, v * y, v])
    a[1::2] = np.column_stack([x, y, one, zero, zero, zero, -u * x, -u * y, -u])

    _, sing, vt = np.linalg.svd(a)
    # A second near-zero singular value means the solution is not unique.
    if len(pairs) > 4 and sing[-2] <= 1e-10 * max(sing[0], 1.0):
        raise DegenerateConfiguration("correspondences do not determine a unique homography")
    h_norm = vt[-1].reshape(3, 3)

    h = np.linalg.inv(t_image) @ h_norm @ t_world
    try:
        return Homography(h)
    except DegenerateConfiguration:
        raise DegenerateConfiguration("estimated homography is singular") from None


def reprojection_error(h: Homography, pairs: Iterable[Correspondence]) -> dict:
    """Pixel errors of the world-to-image mapping over the given pairs.

    Returns max and median Euclidean error in pixels. The median uses the
    lower of the two middle values for even counts so reported figures are
    always errors that actually occurred.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("reprojection error needs at least one correspondence")
    world = np.array([(c.world.x, c.world.y) for c in pairs], dtype=float)
    offset = h.world_to_image_many(world) - np.array([c.pixel for c in pairs], dtype=float)
    # math.hypot, as the per-pair definition uses; np.hypot rounds differently
    errors = sorted(map(math.hypot, offset[:, 0].tolist(), offset[:, 1].tolist()))
    return {
        "max_px": errors[-1],
        "median_px": errors[(len(errors) - 1) // 2],
        "count": len(errors),
    }
