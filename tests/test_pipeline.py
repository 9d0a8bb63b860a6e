"""End-to-end reconstruction tests against the simulator's ground truth."""

import math

import numpy as np
import pytest

from rallyforge.config import DEFAULT_CONFIG, load_config
from rallyforge.errors import ValidationError
from rallyforge.ingest import EventKind, clip_from_dict, to_court_space
from rallyforge.kinematics import BallTrajectory3D
from rallyforge.pipeline import (
    reconstruct_scene,
    refine_tracks,
    sample_entity_tracks,
    solve_point_trajectories,
)
from rallyforge.scene import SampledTrack, serialize_scene
from rallyforge.scene_metrics import MetricsWindow
from rallyforge.simulate import (
    GroundTruthRally,
    SimConfig,
    round_trip_report,
    simulate_clip,
    simulate_rally,
)

# ------------------------------------------------------------
# noiseless identity
# ------------------------------------------------------------


def _reconstruct(cfg: SimConfig):
    clip_doc, truth_doc = simulate_clip(cfg)
    clip = clip_from_dict(clip_doc)
    truth = GroundTruthRally.from_dict(truth_doc)
    return clip, truth, reconstruct_scene(clip)


def test_noiseless_reconstruction_recovers_the_truth():
    for seed in (0, 7):
        clip, truth, scene = _reconstruct(SimConfig(seed=seed, points=3))
        report = round_trip_report(truth, scene)
        assert report["ball_rmse_m"] <= 1e-9
        assert report["ball_max_m"] <= 1e-9
        assert report["player_rmse_m"] <= 1e-9
        assert report["player_max_m"] <= 1e-9
        assert report["ball_samples"] > 0 and report["player_samples"] > 0


def test_refinement_is_identity_on_clean_tracks():
    cfg = SimConfig(seed=19, points=3)
    clip_doc, _ = simulate_clip(cfg)
    clip = clip_from_dict(clip_doc)
    truth = simulate_rally(cfg)
    refined = refine_tracks(to_court_space(clip), clip, DEFAULT_CONFIG)
    for pid in truth.player_ids():
        err = np.abs(refined.players[pid] - truth.player_track(pid))
        assert np.nanmax(err) <= 1e-9
    for point in truth.points:
        for k in point.keyframes:
            err = np.abs(refined.ball[k.frame] - (k.x, k.y))
            assert err.max() <= 1e-9


def test_noisy_reconstruction_stays_inside_budget():
    cfg = SimConfig(seed=4, points=3, pixel_noise_sigma_px=1.0, quantize_pixels=True)
    clip, truth, scene = _reconstruct(cfg)
    report = round_trip_report(truth, scene)
    assert report["ball_rmse_m"] <= 0.05
    assert report["player_rmse_m"] <= 0.05


# ------------------------------------------------------------
# scene assembly
# ------------------------------------------------------------


def test_scene_structure_matches_the_clip():
    clip, truth, scene = _reconstruct(SimConfig(seed=11, points=4))
    assert set(scene.tracks) == {"ball"} | set(clip.foot_px)
    assert scene.fps == clip.header.fps
    assert scene.span == (0.0, pytest.approx(clip.duration))
    assert len(scene.points) == 4
    assert len(scene.score_timeline) == 5
    for i, point in enumerate(scene.points):
        assert point.index == i
        a, b = point.trajectory_span
        assert point.t_start - 1e-9 <= a < b <= point.t_end + 1e-9
        assert set(point.metrics) == {MetricsWindow.MATCH_START, MetricsWindow.CURRENT_GAME}
        for zm in point.metrics.values():
            for per_zone in zm.percentages.values():
                assert abs(sum(per_zone.values()) - 100.0) <= 0.1
    # camera spans the whole scene and the score chain matches the header
    assert scene.camera.t_start == 0.0
    assert scene.camera.t_end == pytest.approx(clip.duration)
    assert scene.score_timeline[0].to_dict() == clip.header.score_before.to_dict()


def test_reconstruction_is_deterministic():
    clip_doc, _ = simulate_clip(SimConfig(seed=23, points=2))
    a = serialize_scene(reconstruct_scene(clip_from_dict(clip_doc)))
    b = serialize_scene(reconstruct_scene(clip_from_dict(clip_doc)))
    assert a == b


def test_stats_reports_every_stage():
    clip_doc, _ = simulate_clip(SimConfig(seed=2, points=2))
    stats = {}
    reconstruct_scene(clip_from_dict(clip_doc), stats=stats)
    for key in ("lift_s", "refine_s", "kinematics_s", "sampling_s",
                "camera_s", "annotate_s", "total_s"):
        assert stats[key] >= 0.0
    assert stats["event_records"] > 0
    assert stats["camera_keyframes"] > 0
    assert stats["cues"] > 0


@pytest.mark.parametrize("cfg", [
    SimConfig(seed=2, points=2),
    SimConfig(seed=0, points=2, pixel_noise_sigma_px=1.0, quantize_pixels=True,
              dropout_rate=0.1),
])
def test_stats_count_contact_substitutions_and_ball_outliers(cfg):
    clip = clip_from_dict(simulate_clip(cfg)[0])
    stats = {}
    reconstruct_scene(clip, stats=stats)
    contacts = sum(e.kind is EventKind.CONTACT for e in clip.events)
    assert contacts > 0
    assert stats["contact_substitutions"] == contacts
    assert isinstance(stats["ball_outliers"], int) and stats["ball_outliers"] >= 0


# ------------------------------------------------------------
# failure modes
# ------------------------------------------------------------


def test_missing_contact_annotation_is_an_error():
    clip_doc, _ = simulate_clip(SimConfig(seed=3, points=2))
    contact = next(e for e in clip_doc["events"] if e["kind"] == "Contact")
    clip_doc["keyframe_annotations"] = [
        a for a in clip_doc["keyframe_annotations"] if a["frame"] != contact["frame"]]
    with pytest.raises(ValidationError, match="needs a keyframe annotation"):
        clip_from_dict(clip_doc)


def test_round_trip_rejects_mismatched_spans():
    _, truth, _ = _reconstruct(SimConfig(seed=1, points=2))
    _, _, other_scene = _reconstruct(SimConfig(seed=1, points=3))
    with pytest.raises(ValidationError):
        round_trip_report(truth, other_scene)


def test_sampled_tracks_share_the_export_grid():
    clip_doc, _ = simulate_clip(SimConfig(seed=10, points=2))
    clip = clip_from_dict(clip_doc)
    tracks = refine_tracks(to_court_space(clip), clip, DEFAULT_CONFIG)
    trajectories = solve_point_trajectories(clip, tracks)
    sampled = sample_entity_tracks(clip, tracks, trajectories, 50.0)
    n = {len(tr.samples) for tr in sampled.values()}
    assert len(n) == 1
    rate_cfg, warnings = load_config({"export": {"sample_rate_hz": 100.0}})
    assert not warnings
    dense = sample_entity_tracks(clip, tracks, trajectories,
                                 rate_cfg.export.sample_rate_hz)
    assert len(dense["ball"].samples) > len(sampled["ball"].samples)


# ------------------------------------------------------------
# round-trip report
# ------------------------------------------------------------


def _scalar_round_trip(truth, scene, sample_rate_hz=50.0):
    """The round trip as a per-sample loop of scalar lookups: the reference."""
    t0, t1 = scene.span
    step = 1.0 / sample_rate_hz
    ball_sq, ball_axis_sq, ball_max = [], {"x": [], "y": [], "z": []}, 0.0
    for point in truth.points:
        k0 = point.keyframes[0].frame / truth.fps
        k1 = point.keyframes[-1].frame / truth.fps
        traj = truth.trajectory(point)
        k0 = math.ceil(k0 * sample_rate_hz - 1e-9) / sample_rate_hz
        n = int(math.floor((k1 - k0) * sample_rate_hz + 1e-9)) + 1
        for i in range(n):
            t = min(k0 + i * step, k1)
            want = traj.evaluate(t)
            got = scene.entity_position("ball", t)
            dx, dy, dz = got.x - want.x, got.y - want.y, got.z - want.z
            err = math.sqrt(dx * dx + dy * dy + dz * dz)
            ball_max = max(ball_max, err)
            ball_sq.append(err * err)
            ball_axis_sq["x"].append(dx * dx)
            ball_axis_sq["y"].append(dy * dy)
            ball_axis_sq["z"].append(dz * dz)

    player_sq, player_axis_sq, player_max = [], {"x": [], "y": []}, 0.0
    n = int(math.floor((t1 - t0) * sample_rate_hz + 1e-9)) + 1
    for pid in truth.player_ids():
        knots = truth.knots[pid]
        frames = [k[0] for k in knots]
        for i in range(n):
            t = min(t0 + i * step, t1)
            wx = float(np.interp(t * truth.fps, frames, [k[1] for k in knots]))
            wy = float(np.interp(t * truth.fps, frames, [k[2] for k in knots]))
            got = scene.entity_position(pid, t)
            dx, dy = got.x - wx, got.y - wy
            err = math.hypot(dx, dy)
            player_max = max(player_max, err)
            player_sq.append(err * err)
            player_axis_sq["x"].append(dx * dx)
            player_axis_sq["y"].append(dy * dy)

    def rms(values):
        return math.sqrt(sum(values) / len(values)) if values else 0.0

    return {
        "ball_rmse_m": rms(ball_sq),
        "ball_max_m": ball_max,
        "player_rmse_m": rms(player_sq),
        "player_max_m": player_max,
        "per_axis": {
            "ball": {axis: rms(v) for axis, v in ball_axis_sq.items()},
            "players": {axis: rms(v) for axis, v in player_axis_sq.items()},
        },
        "ball_samples": len(ball_sq),
        "player_samples": len(player_sq),
    }


def _degraded(seed=42, points=3):
    # by default the README's dropout example: 1 px noise, integer pixels, 10% dropout
    return _reconstruct(SimConfig(seed=seed, points=points, pixel_noise_sigma_px=1.0,
                                  quantize_pixels=True, dropout_rate=0.1))


@pytest.mark.parametrize("seed, points", [(42, 3), (4, 8)])
def test_round_trip_report_equals_the_scalar_reference(seed, points):
    _, truth, scene = _degraded(seed, points)
    report = round_trip_report(truth, scene)
    assert report["ball_rmse_m"] > 0.01  # noise and dropout leave a real error to measure
    assert report == _scalar_round_trip(truth, scene)


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def test_round_trip_looks_up_whole_grids_not_samples(monkeypatch):
    # counts, not times: a per-sample scalar lookup would make the round trip
    # quadratic in clip length again
    _, truth, scene = _degraded()
    calls = {}
    _counting(monkeypatch, BallTrajectory3D, "evaluate", calls)
    _counting(monkeypatch, SampledTrack, "position_at", calls)
    _counting(monkeypatch, GroundTruthRally, "player_position", calls)
    report = round_trip_report(truth, scene)
    assert report["ball_samples"] > 100 and report["player_samples"] > 100
    assert calls.get("evaluate", 0) <= len(truth.points)
    assert calls.get("position_at", 0) <= len(truth.points)
    assert calls.get("player_position", 0) <= len(truth.player_ids())


def test_scene_sampling_evaluates_each_trajectory_in_bulk(monkeypatch):
    clip_doc, _ = simulate_clip(SimConfig(seed=10, points=3))
    clip = clip_from_dict(clip_doc)
    tracks = refine_tracks(to_court_space(clip), clip, DEFAULT_CONFIG)
    trajectories = solve_point_trajectories(clip, tracks)
    calls = {}
    _counting(monkeypatch, BallTrajectory3D, "evaluate", calls)
    ball = sample_entity_tracks(clip, tracks, trajectories, 50.0)["ball"]
    assert len(ball.samples) > 100
    # only the held positions between points: one per trajectory and the first
    assert calls.get("evaluate", 0) <= len(trajectories) + 1
