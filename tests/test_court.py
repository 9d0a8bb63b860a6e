"""Court geometry and zone classification tests."""

import math

import numpy as np
import pytest

from rallyforge.court import (
    COURT,
    CourtPoint,
    CourtSide,
    DepthBand,
    LateralBand,
    Phase,
    ServeBand,
    ServeBox,
    ZONES,
    ZoneId,
    all_zones,
    classify_zone,
    reference_keypoints,
    zone_codes,
)
from rallyforge.config import DEFAULT_CONFIG
from rallyforge.errors import ValidationError
from rallyforge.ingest import clip_from_dict, to_court_space
from rallyforge.pipeline import log_zone_events, refine_tracks, solve_point_trajectories
from rallyforge.simulate import SimConfig, simulate_clip


def test_dimensions():
    assert COURT.length == 23.77
    assert COURT.singles_half_width == 4.115
    assert COURT.doubles_half_width == 5.485
    assert COURT.service_line_y == 6.40
    assert COURT.baseline_y == pytest.approx(11.885)
    assert COURT.net_cord_height == 0.9
    assert COURT.mid_depth_y == pytest.approx(9.1425)


def test_keypoint_count_and_first_corner():
    pts = reference_keypoints()
    assert len(pts) == 14
    assert pts[0] == CourtPoint(-5.485, -11.885, 0.0)
    assert all(p.z == 0.0 for p in pts)


def test_keypoints_symmetric_under_point_reflection():
    pts = {(p.x, p.y) for p in reference_keypoints()}
    assert {(-x, -y) for x, y in pts} == pts
    assert {(-x, y) for x, y in pts} == pts


def test_keypoint_groups():
    pts = reference_keypoints()
    assert {(p.x, p.y) for p in pts[0:4]} == {
        (-5.485, -11.885), (5.485, -11.885), (-5.485, 11.885), (5.485, 11.885)
    }
    assert {(p.x, p.y) for p in pts[4:8]} == {
        (-4.115, -11.885), (4.115, -11.885), (-4.115, 11.885), (4.115, 11.885)
    }
    assert {(p.x, p.y) for p in pts[8:12]} == {
        (-4.115, -6.40), (4.115, -6.40), (-4.115, 6.40), (4.115, 6.40)
    }
    assert {(p.x, p.y) for p in pts[12:14]} == {(0.0, -6.40), (0.0, 6.40)}


# ------------------------------------------------------------
# Zone classification
# ------------------------------------------------------------


def test_rally_zone_example():
    zone = classify_zone(CourtPoint(0.5, 10.0), Phase.RALLY)
    assert zone == ZoneId.rally(LateralBand.CENTER, DepthBand.DEEP, CourtSide.FAR)


def test_serve_zone_wide_example():
    zone = classify_zone(CourtPoint(-3.9, 4.0), Phase.SERVE)
    assert zone.phase is Phase.SERVE
    assert zone.serve_band is ServeBand.WIDE
    assert zone.box is ServeBox.DEUCE  # receiver on the far half, their right is x < 0


def test_doubles_alley_is_out_of_bounds():
    assert classify_zone(CourtPoint(4.8, 3.0), Phase.RALLY).is_out_of_bounds
    assert classify_zone(CourtPoint(-5.0, -10.0), Phase.RALLY).is_out_of_bounds
    assert classify_zone(CourtPoint(4.5, 3.0), Phase.SERVE).is_out_of_bounds


def test_beyond_baseline_is_out():
    assert classify_zone(CourtPoint(0.0, 12.0), Phase.RALLY).is_out_of_bounds
    assert classify_zone(CourtPoint(0.0, -11.9), Phase.RALLY).is_out_of_bounds


def test_serve_beyond_service_line_is_out():
    assert classify_zone(CourtPoint(0.5, 6.5), Phase.SERVE).is_out_of_bounds
    # on the net line there is no receiving box
    assert classify_zone(CourtPoint(0.5, 0.0), Phase.SERVE).is_out_of_bounds


def test_boundary_ties_go_to_band_nearer_centre():
    b = 4.115 / 3.0
    z = classify_zone(CourtPoint(b, 3.0), Phase.SERVE)
    assert z.serve_band is ServeBand.T
    z = classify_zone(CourtPoint(2 * b + 1e-12, 3.0), Phase.SERVE)
    assert z.serve_band is ServeBand.WIDE
    z = classify_zone(CourtPoint(b, 3.0), Phase.RALLY)
    assert z.lateral is LateralBand.CENTER
    z = classify_zone(CourtPoint(0.0, 6.40), Phase.RALLY)
    assert z.depth is DepthBand.SHORT
    z = classify_zone(CourtPoint(0.0, 9.1425), Phase.RALLY)
    assert z.depth is DepthBand.MID
    # lines are in: the sideline and baseline still count
    assert not classify_zone(CourtPoint(4.115, 11.885), Phase.RALLY).is_out_of_bounds
    assert not classify_zone(CourtPoint(4.115, 6.40), Phase.SERVE).is_out_of_bounds


def test_serve_band_thirds_are_equal_width():
    assert 4.115 / 3.0 == pytest.approx(1.3717, abs=1e-4)


def test_deuce_ad_convention():
    # near half: occupant faces +y, their right is +x
    assert classify_zone(CourtPoint(2.0, -3.0), Phase.SERVE).box is ServeBox.DEUCE
    assert classify_zone(CourtPoint(-2.0, -3.0), Phase.SERVE).box is ServeBox.AD
    # far half mirrors
    assert classify_zone(CourtPoint(-2.0, 3.0), Phase.SERVE).box is ServeBox.DEUCE
    assert classify_zone(CourtPoint(2.0, 3.0), Phase.SERVE).box is ServeBox.AD


def test_non_finite_rejected():
    with pytest.raises(ValidationError):
        classify_zone(CourtPoint(math.nan, 0.0), Phase.RALLY)


def test_zone_keys_are_unique():
    keys = [z.key() for z in all_zones(Phase.SERVE) + all_zones(Phase.RALLY)]
    assert len(keys) == len(set(keys))
    assert len(all_zones(Phase.SERVE)) == 6
    assert len(all_zones(Phase.RALLY)) == 18


# ------------------------------------------------------------
# Partition property: analytic areas versus Monte Carlo
# ------------------------------------------------------------


def _serve_area(zone: ZoneId) -> float:
    # every direction band is a (4.115/3) x 6.40 rectangle; two per box side
    assert zone.phase is Phase.SERVE
    return 2.0 * (4.115 / 3.0) * 6.40


def _rally_area(zone: ZoneId) -> float:
    b = 4.115 / 3.0
    widths = {
        LateralBand.LEFT: 4.115 - b,
        LateralBand.CENTER: 2.0 * b,
        LateralBand.RIGHT: 4.115 - b,
    }
    depths = {
        DepthBand.SHORT: 6.40,
        DepthBand.MID: 9.1425 - 6.40,
        DepthBand.DEEP: 11.885 - 9.1425,
    }
    return widths[zone.lateral] * depths[zone.depth]


def _sample_in_bounds(rng, phase):
    if phase is Phase.SERVE:
        x = rng.uniform(-4.115, 4.115)
        y = rng.uniform(-6.40, 6.40)
        while y == 0.0:
            y = rng.uniform(-6.40, 6.40)
    else:
        x = rng.uniform(-4.115, 4.115)
        y = rng.uniform(-11.885, 11.885)
    return CourtPoint(x, y)


@pytest.mark.parametrize("phase", [Phase.SERVE, Phase.RALLY])
def test_partition_and_monte_carlo_areas(phase):
    rng = np.random.default_rng(2024)
    n = 10_000
    counts = {}
    for _ in range(n):
        zone = classify_zone(_sample_in_bounds(rng, phase), phase)
        assert not zone.is_out_of_bounds
        counts[zone] = counts.get(zone, 0) + 1

    if phase is Phase.SERVE:
        total = 2.0 * 2.0 * 4.115 * 6.40
        areas = {z: _serve_area(z) for z in all_zones(phase)}
    else:
        total = 2.0 * 4.115 * 23.77
        areas = {z: _rally_area(z) for z in all_zones(phase)}
    assert sum(areas.values()) == pytest.approx(total)

    for zone, area in areas.items():
        estimated = counts.get(zone, 0) / n
        # tolerance is two percent of the total in-bounds area
        assert abs(estimated - area / total) <= 0.02


# ------------------------------------------------------------
# Array classification against the scalar classifier it replaced
# ------------------------------------------------------------


def _band_index(distance, edges):
    for i, edge in enumerate(edges):
        if distance <= edge:
            return i
    return len(edges)


def _scalar_classify_zone(point, phase):
    """The one-point classifier ``zone_codes`` replaced, kept as its reference."""
    x, y = point.x, point.y
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValidationError("zone classification needs finite coordinates")
    ax, ay = abs(x), abs(y)
    if phase is Phase.SERVE:
        if ax > COURT.singles_half_width or ay > COURT.service_line_y or y == 0.0:
            return ZoneId.out_of_bounds()
        deuce = x >= 0.0 if y < 0.0 else x <= 0.0
        box = ServeBox.DEUCE if deuce else ServeBox.AD
        w = COURT.serve_band_width
        band = [ServeBand.T, ServeBand.BODY, ServeBand.WIDE][
            _band_index(ax, [w, 2.0 * w, COURT.singles_half_width])]
        return ZoneId.serve(box, band)
    if ax > COURT.singles_half_width or ay > COURT.baseline_y:
        return ZoneId.out_of_bounds()
    if ax <= COURT.serve_band_width:
        lateral = LateralBand.CENTER
    else:
        lateral = LateralBand.LEFT if x < 0 else LateralBand.RIGHT
    depth = [DepthBand.SHORT, DepthBand.MID, DepthBand.DEEP][
        _band_index(ay, [COURT.service_line_y, COURT.mid_depth_y, COURT.baseline_y])]
    side = CourtSide.FAR if y > 0 else CourtSide.NEAR
    return ZoneId.rally(lateral, depth, side)


def _edge_points():
    """Both centre lines, every band edge and the next float past it, on all four quadrants."""
    w = COURT.serve_band_width
    xs = [0.0, -0.0, 1.0]
    for edge in (w, 2.0 * w, COURT.singles_half_width):
        xs += [edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf)]
    ys = [0.0, -0.0, 3.0]
    for edge in (COURT.service_line_y, COURT.mid_depth_y, COURT.baseline_y):
        ys += [edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf)]
    return [(sx * x, sy * y) for x in xs for y in ys for sx in (1.0, -1.0) for sy in (1.0, -1.0)]


def _assert_codes_match(xs, ys):
    for phase in Phase:
        codes = zone_codes(xs, ys, np.full(len(xs), phase is Phase.SERVE))
        want = [_scalar_classify_zone(CourtPoint(x, y), phase) for x, y in zip(xs, ys)]
        assert [ZONES[code] for code in codes] == want
        assert [classify_zone(CourtPoint(x, y), phase) for x, y in zip(xs, ys)] == want


def test_zone_codes_equal_the_scalar_classifier_on_every_edge():
    xs, ys = zip(*_edge_points())
    _assert_codes_match(list(xs), list(ys))
    assert classify_zone(CourtPoint(0.0, 3.0), Phase.SERVE).box is ServeBox.DEUCE
    assert classify_zone(CourtPoint(0.0, -3.0), Phase.SERVE).box is ServeBox.DEUCE


def test_zone_codes_equal_the_scalar_classifier_on_every_event():
    positions = []
    for seed, degraded in ((0, False), (1, True), (2, True)):
        noise = dict(pixel_noise_sigma_px=1.0, quantize_pixels=True, dropout_rate=0.1)
        clip = clip_from_dict(simulate_clip(
            SimConfig(seed=seed, points=6, **(noise if degraded else {})))[0])
        tracks = refine_tracks(to_court_space(clip), clip, DEFAULT_CONFIG)
        for records in log_zone_events(solve_point_trajectories(clip, tracks), clip.points):
            positions += [(r.position.x, r.position.y) for r in records]
    assert len(positions) > 100
    xs, ys = zip(*positions)
    _assert_codes_match(list(xs), list(ys))


def test_zone_codes_reject_what_the_scalar_classifier_rejects():
    for bad in (math.nan, math.inf, -math.inf):
        for x, y in ((bad, 0.0), (0.0, bad)):
            for phase in Phase:
                with pytest.raises(ValidationError, match="^zone classification needs finite "
                                                          "coordinates$"):
                    classify_zone(CourtPoint(x, y), phase)
                with pytest.raises(ValidationError, match="needs finite coordinates"):
                    _scalar_classify_zone(CourtPoint(x, y), phase)
            # one bad row among good ones
            with pytest.raises(ValidationError, match="needs finite coordinates"):
                zone_codes([1.0, x, 2.0], [1.0, y, 2.0], [True, False, False])
    with pytest.raises(ValidationError, match="unknown phase: 'Serve'"):
        classify_zone(CourtPoint(1.0, 1.0), "Serve")


def test_each_zone_and_its_key_are_built_once():
    zones = [classify_zone(CourtPoint(x, y), phase)
             for x, y in _edge_points() for phase in Phase]
    assert all(any(zone is prebuilt for prebuilt in ZONES) for zone in zones)
    assert len(set(ZONES)) == len(ZONES) == 1 + 6 + 18
    assert set(ZONES[1:]) == set(all_zones(Phase.SERVE) + all_zones(Phase.RALLY))
    for zone in ZONES:
        assert zone.key() is zone.key()
