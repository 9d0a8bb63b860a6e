"""End-to-end reconstruction tests against the simulator's ground truth."""

import numpy as np
import pytest

from rallyforge.config import DEFAULT_CONFIG, load_config
from rallyforge.errors import ValidationError
from rallyforge.ingest import clip_from_dict, to_court_space
from rallyforge.pipeline import (
    reconstruct_scene,
    refine_tracks,
    sample_entity_tracks,
    solve_point_trajectories,
)
from rallyforge.scene import serialize_scene
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
    assert set(scene.tracks) == {"ball"} | set(clip.player_ids())
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
