"""Homography estimation and application tests.

The synthetic camera below is an independent pinhole construction: a
homography assembled from intrinsics and an explicit pose, not from the
estimator under test.
"""

import math

import numpy as np
import pytest

from rallyforge.court import CourtPoint, reference_keypoints
from rallyforge.errors import (
    DegenerateConfiguration,
    InsufficientCorrespondences,
    ProjectionSingularity,
    ValidationError,
)
from rallyforge.projection import (
    Correspondence,
    Homography,
    _hartley_normalization,
    estimate_homography,
    reprojection_error,
)


def pinhole_court_homography(position=(0.0, -26.0, 10.0), look_at=(0.0, 2.0, 0.0),
                             focal_px=1000.0, cx=960.0, cy=540.0) -> np.ndarray:
    """World court plane (z=0) to pixels for an elevated behind-court camera."""
    c = np.asarray(position, dtype=float)
    forward = np.asarray(look_at, dtype=float) - c
    forward /= np.linalg.norm(forward)
    right = np.cross(forward, [0.0, 0.0, 1.0])
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    rot = np.stack([right, down, forward])
    k = np.array([[focal_px, 0.0, cx], [0.0, focal_px, cy], [0.0, 0.0, 1.0]])
    t = -rot @ c
    return k @ np.column_stack([rot[:, 0], rot[:, 1], t])


def court_correspondences(matrix) -> list:
    h = Homography(matrix)
    pairs = []
    for p in reference_keypoints():
        pairs.append(Correspondence(world=p, pixel=h.world_to_image(p.x, p.y)))
    return pairs


def test_identity_application():
    h = Homography.identity()
    assert h.image_to_world(3.2, 7.7) == (3.2, 7.7)


def test_scaling_matrix_inverts_on_application():
    h = Homography(np.diag([2.0, 2.0, 1.0]))
    x, y = h.image_to_world(1.0, 1.0)
    assert abs(x - 0.5) < 1e-12 and abs(y - 0.5) < 1e-12


def test_normalization_bottom_right_one():
    h = Homography(3.0 * np.eye(3))
    assert h.matrix[2, 2] == 1.0
    assert np.allclose(h.matrix, np.eye(3))


def test_normalization_unit_frobenius_when_corner_zero():
    m = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]])
    h = Homography(m)
    assert h.matrix[2, 2] == 0.0
    assert np.linalg.norm(h.matrix) == pytest.approx(1.0)


def test_singularity_raises():
    # inverse of this permutation has third row (0, 1, 0): w = 0 at v = 0
    h = Homography(np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]]))
    with pytest.raises(ProjectionSingularity):
        h.image_to_world(0.0, 0.0)


def test_non_invertible_rejected():
    with pytest.raises(DegenerateConfiguration):
        Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 2.0, 0]]))


def test_too_few_pairs():
    pairs = court_correspondences(np.eye(3))[:3]
    with pytest.raises(InsufficientCorrespondences):
        estimate_homography(pairs)


def test_collinear_minimal_set_rejected():
    pts = [CourtPoint(0, 0), CourtPoint(1, 0), CourtPoint(2, 0), CourtPoint(0, 1)]
    pairs = [Correspondence(world=p, pixel=(p.x, p.y)) for p in pts]
    with pytest.raises(DegenerateConfiguration):
        estimate_homography(pairs)


def test_non_finite_pixel_rejected():
    with pytest.raises(ValidationError):
        Correspondence(world=CourtPoint(0, 0), pixel=(math.inf, 0.0))


def test_exact_recovery_four_pairs():
    truth = pinhole_court_homography()
    pairs = court_correspondences(truth)[:4]
    h = estimate_homography(pairs)
    report = reprojection_error(h, pairs)
    assert report["max_px"] <= 1e-9


def test_noiseless_recovery_fourteen_keypoints():
    truth = pinhole_court_homography()
    pairs = court_correspondences(truth)
    h = estimate_homography(pairs)
    report = reprojection_error(h, pairs)
    assert report["max_px"] <= 1e-9
    # unprojection returns the exact court points
    for c in pairs:
        x, y = h.image_to_world(*c.pixel)
        assert math.hypot(x - c.world.x, y - c.world.y) <= 1e-9


def test_round_trip_random_homographies():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        m = rng.uniform(-1.0, 1.0, size=(3, 3))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        h = Homography(m)
        u, v = rng.uniform(-10.0, 10.0, size=2)
        try:
            u2, v2 = h.world_to_image(*h.image_to_world(u, v))
        except ProjectionSingularity:
            continue
        assert math.hypot(u2 - u, v2 - v) <= 1e-9 * max(1.0, abs(u), abs(v))
        checked += 1


def test_invert_composes_to_identity():
    h = Homography(pinhole_court_homography())
    comp = h.matrix @ h._inverse
    comp = comp / comp[2, 2]
    assert np.allclose(comp, np.eye(3), atol=1e-9)


def test_lower_median_tie_rule():
    h = Homography.identity()
    pairs = [
        Correspondence(world=CourtPoint(0, 0), pixel=(0.0, 0.0)),
        Correspondence(world=CourtPoint(1, 1), pixel=(1.0, 2.0)),
    ]
    report = reprojection_error(h, pairs)
    assert report["median_px"] == 0.0
    assert report["max_px"] == 1.0


def test_noise_robustness_median_under_two_px():
    truth = pinhole_court_homography()
    clean = court_correspondences(truth)
    rng = np.random.default_rng(123)
    medians = []
    for _ in range(100):
        noisy = [
            Correspondence(world=c.world, pixel=(c.pixel[0] + rng.normal(0, 1.0),
                                                 c.pixel[1] + rng.normal(0, 1.0)))
            for c in clean
        ]
        h = estimate_homography(noisy)
        medians.append(reprojection_error(h, noisy)["median_px"])
    medians.sort()
    assert medians[(len(medians) - 1) // 2] <= 2.0


def _loop_reprojection_error(h, pairs) -> dict:
    """The per-pair loop reprojection_error replaced, kept as its reference."""
    errors = []
    for c in pairs:
        u, v = h.world_to_image(c.world.x, c.world.y)
        errors.append(math.hypot(u - c.pixel[0], v - c.pixel[1]))
    errors.sort()
    return {"max_px": errors[-1], "median_px": errors[(len(errors) - 1) // 2],
            "count": len(errors)}


def _loop_estimate_homography(pairs) -> Homography:
    """estimate_homography with the per-pair loop that built its DLT rows, kept as its reference."""
    world = np.array([[c.world.x, c.world.y] for c in pairs], dtype=float)
    image = np.array([c.pixel for c in pairs], dtype=float)
    t_world = _hartley_normalization(world)
    t_image = _hartley_normalization(image)
    wn = (t_world @ np.column_stack([world, np.ones(len(pairs))]).T).T
    im = (t_image @ np.column_stack([image, np.ones(len(pairs))]).T).T
    rows = []
    for (x, y, _), (u, v, _) in zip(wn, im):
        rows.append([0.0, 0.0, 0.0, -x, -y, -1.0, v * x, v * y, v])
        rows.append([x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y, -u])
    _, _, vt = np.linalg.svd(np.array(rows))
    return Homography(np.linalg.inv(t_image) @ vt[-1].reshape(3, 3) @ t_world)


def test_fit_and_errors_are_bit_equal_to_the_per_pair_loops():
    truth = pinhole_court_homography()
    clean = court_correspondences(truth)
    rng = np.random.default_rng(29)
    fitted = 0
    for _ in range(200):
        count = int(rng.integers(4, len(clean) + 1))
        chosen = rng.choice(len(clean), size=count, replace=False)
        noisy = [Correspondence(world=clean[i].world,
                                pixel=(clean[i].pixel[0] + rng.normal(0, 2.0),
                                       clean[i].pixel[1] + rng.normal(0, 2.0)))
                 for i in chosen]
        try:
            h = estimate_homography(noisy)
        except DegenerateConfiguration:
            continue
        fitted += 1
        assert h.matrix.tobytes() == _loop_estimate_homography(noisy).matrix.tobytes()
        assert reprojection_error(h, noisy) == _loop_reprojection_error(h, noisy)
        assert reprojection_error(h, iter(noisy)) == _loop_reprojection_error(h, noisy)
    assert fitted > 100


@pytest.mark.parametrize("pairs", [[], iter([]), ()])
def test_reprojection_error_needs_a_pair(pairs):
    with pytest.raises(ValidationError,
                       match="^reprojection error needs at least one correspondence$"):
        reprojection_error(Homography.identity(), pairs)
