"""Simulator tests: determinism, structure, projection, and model closure."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from rallyforge.court import COURT, reference_keypoints
from rallyforge.errors import ConfigError, ProjectionSingularity, ValidationError
from rallyforge.ingest import EventKind, clip_from_dict, to_court_space
from rallyforge.projection import Homography
from rallyforge.rng import SplitMix64
from rallyforge.scoring import ScoringRules
from rallyforge.simulate import (
    CameraModel,
    GroundTruthRally,
    SimConfig,
    _pixel_rows,
    project_clip,
    simulate_clip,
    simulate_rally,
)

from test_pipeline import _counting
from test_refine import _pixel_scale_at

# ------------------------------------------------------------
# configuration
# ------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="points must be >= 1"):
        SimConfig(seed=1, points=0)
    with pytest.raises(ConfigError):
        SimConfig(seed=1.5)
    with pytest.raises(ConfigError):
        SimConfig(seed=1, dropout_rate=1.0)
    with pytest.raises(ConfigError):
        SimConfig(seed=1, pixel_noise_sigma_px=-0.1)
    with pytest.raises(ConfigError):
        SimConfig(seed=1, fps=0.0)
    with pytest.raises(ConfigError, match="image dimensions must be positive"):
        SimConfig(seed=1, width=0)


def test_camera_model_validation_and_round_trip():
    cam = CameraModel(position=(2.0, -30.0, 12.0), focal_px=1500.0)
    again = CameraModel.from_dict(cam.to_dict())
    assert again == cam
    with pytest.raises(ConfigError):
        CameraModel(focal_px=0.0)
    with pytest.raises(ConfigError):
        CameraModel(position=(0.0, -30.0, -1.0))
    with pytest.raises(ConfigError):
        CameraModel(position=(0.0, 0.0, 10.0), look_at=(0.0, 0.0, 0.0))


# ------------------------------------------------------------
# determinism and serialization
# ------------------------------------------------------------


def test_same_seed_reproduces_rally_and_clip():
    cfg = SimConfig(seed=91, points=4, pixel_noise_sigma_px=0.7,
                    dropout_rate=0.1, quantize_pixels=True)
    a_clip, a_truth = simulate_clip(cfg)
    b_clip, b_truth = simulate_clip(cfg)
    assert a_clip == b_clip
    assert a_truth == b_truth


def test_different_seeds_differ():
    a = simulate_rally(SimConfig(seed=1, points=2))
    b = simulate_rally(SimConfig(seed=2, points=2))
    assert a.to_dict() != b.to_dict()


def test_ground_truth_document_round_trip():
    rally = simulate_rally(SimConfig(seed=5, points=3))
    doc = rally.to_dict()
    again = GroundTruthRally.from_dict(doc)
    assert again.to_dict() == doc
    with pytest.raises(ValidationError):
        GroundTruthRally.from_dict({"fps": 25.0})


# ------------------------------------------------------------
# rally structure
# ------------------------------------------------------------


def _all_points(seeds=(0, 3, 11, 27), points=5):
    for seed in seeds:
        rally = simulate_rally(SimConfig(seed=seed, points=points))
        for point in rally.points:
            yield rally, point


def test_keyframes_sorted_and_alternating():
    for rally, point in _all_points():
        frames = [k.frame for k in point.keyframes]
        assert frames == sorted(frames) and len(set(frames)) == len(frames)
        assert point.start_frame <= frames[0] and frames[-1] <= point.end_frame
        hitters = [k.player_id for k in point.keyframes if k.kind is EventKind.CONTACT]
        assert all(a != b for a, b in zip(hitters, hitters[1:]))
        assert 1 <= len(hitters) <= 15


def test_serve_struck_from_behind_the_baseline():
    for rally, point in _all_points():
        serve = point.keyframes[0]
        assert serve.kind is EventKind.CONTACT
        assert abs(serve.y) > COURT.baseline_y
        assert serve.player_id == point.score_before.server
        assert 2.55 <= serve.z <= 3.0


def test_bounces_are_flat_and_in_bounds_unless_faulted():
    for rally, point in _all_points(seeds=range(12), points=4):
        bounces = [k for k in point.keyframes if k.kind is EventKind.BOUNCE]
        assert bounces, "every point must land the ball at least once"
        for b in bounces:
            assert b.z == 0.0
        if point.outcome.how == "DoubleFault":
            fault = bounces[0]
            assert abs(fault.y) > COURT.service_line_y  # long serve
        else:
            for b in bounces:
                assert abs(b.x) <= COURT.singles_half_width
                assert abs(b.y) <= COURT.baseline_y


def test_net_cords_sit_on_the_planar_chord():
    found = 0
    for rally, point in _all_points(seeds=range(40), points=4):
        kfs = point.keyframes
        for i, k in enumerate(kfs):
            if k.kind is not EventKind.NET_CORD:
                continue
            found += 1
            assert k.z == COURT.net_cord_height
            prev, nxt = kfs[i - 1], kfs[i + 1]
            assert prev.kind is EventKind.CONTACT and nxt.kind is EventKind.BOUNCE
            u = (k.frame - prev.frame) / (nxt.frame - prev.frame)
            assert k.x == pytest.approx(prev.x + u * (nxt.x - prev.x), abs=1e-9)
            assert k.y == pytest.approx(prev.y + u * (nxt.y - prev.y), abs=1e-9)
            assert abs(k.y) < 0.8  # the cord lives at the net plane
    assert found > 0, "expected at least one net cord across 40 seeds"


def test_score_chain_is_consistent():
    rally = simulate_rally(SimConfig(seed=13, points=6))
    from rallyforge.scoring import advance_score
    state = rally.points[0].score_before
    for point in rally.points:
        assert point.score_before.to_dict() == state.to_dict()
        state = advance_score(state, point.outcome.winner)
    assert rally.final_score.to_dict() == state.to_dict()


def test_match_completion_stops_the_rally_early():
    rules = ScoringRules(best_of=3)
    rally = simulate_rally(SimConfig(seed=2, points=400), rules=rules)
    assert rally.final_score.winner is not None
    assert len(rally.points) < 400
    assert rally.n_frames == rally.points[-1].end_frame + 31


def _frame_by_frame_ball_track(rally):
    """The planar ball track frame by frame: the reference for ``ball_planar_track``.

    Inside a point's keyframe frames, its trajectory at that frame; before
    the first point, the first keyframe; between points, the last keyframe
    of the point before.
    """
    first = rally.points[0].keyframes[0]
    held = (first.x, first.y)
    rows = []
    for f in range(rally.n_frames):
        point = next((p for p in rally.points
                      if p.keyframes[0].frame <= f <= p.keyframes[-1].frame), None)
        if point is None:
            rows.append(held)
            continue
        rows.append(rally.trajectories[point.index].evaluate(f / rally.fps).as_xyz()[:2])
        last = point.keyframes[-1]
        if f == last.frame:
            held = (last.x, last.y)
    return np.array(rows)


def test_ball_track_holds_between_points():
    # bit for bit, inside the points and between them
    for seed, points in ((21, 3), (0, 1), (5, 4), (30, 6)):
        rally = simulate_rally(SimConfig(seed=seed, points=points))
        track = rally.ball_planar_track()
        assert track.shape == (rally.n_frames, 2)
        assert track.tobytes() == _frame_by_frame_ball_track(rally).tobytes()


# ------------------------------------------------------------
# model closure
# ------------------------------------------------------------


def test_trajectories_reproduce_every_keyframe():
    for rally, point in _all_points(seeds=(4, 17), points=4):
        traj = rally.trajectories[point.index]
        for k in point.keyframes:
            p = traj.evaluate(k.frame / rally.fps)
            assert abs(p.x - k.x) <= 1e-9
            assert abs(p.y - k.y) <= 1e-9
            assert abs(p.z - k.z) <= 1e-9


def test_player_legs_move_at_legal_speeds():
    """Nonzero steps clear the stabilization deadband with margin."""
    cfg = SimConfig(seed=33, points=6)
    rally = simulate_rally(cfg)
    h = cfg.camera.homography()
    for pid in rally.player_ids():
        track = rally.player_track(pid)
        steps = np.hypot(*np.diff(track, axis=0).T)
        moving = steps > 1e-12
        for i in np.flatnonzero(moving):
            threshold = _pixel_scale_at(h, track[i])
            assert steps[i] >= 1.05 * threshold, (
                f"{pid} step {steps[i]:.4f} at frame {i} inside deadband {threshold:.4f}")
        if moving.any():
            assert steps[moving].max() <= 2.3 / cfg.fps


# ------------------------------------------------------------
# projection
# ------------------------------------------------------------


def test_clip_document_parses_and_is_annotated():
    cfg = SimConfig(seed=8, points=3)
    clip_doc, truth_doc = simulate_clip(cfg)
    clip = clip_from_dict(clip_doc)
    assert clip.n_frames == truth_doc["n_frames"]
    assert len(clip.header.court_keypoints_px) == 14
    assert len(clip.points) == 3
    contact_frames = [e.frame for e in clip.events if e.kind is EventKind.CONTACT]
    assert contact_frames
    for f in contact_frames:
        ann = clip.annotation_at(f)
        assert ann is not None and ann.spin is not None
        hitter = next(e.player_id for e in clip.events
                      if e.frame == f and e.kind is EventKind.CONTACT)
        joints = clip.joints_px.get((f, hitter))
        assert joints and set(joints) == {"shoulder", "elbow", "wrist"}


def test_noiseless_projection_lifts_back_exactly():
    cfg = SimConfig(seed=12, points=3)
    rally = simulate_rally(cfg)
    clip_doc, _ = project_clip(rally, cfg)
    tracks = to_court_space(clip_from_dict(clip_doc))
    ball_truth = rally.ball_planar_track()
    assert np.nanmax(np.abs(tracks.ball - ball_truth)) <= 1e-9
    for pid in rally.player_ids():
        assert np.nanmax(np.abs(tracks.players[pid] - rally.player_track(pid))) <= 1e-9


def test_quantization_error_stays_inside_the_pixel_footprint():
    cfg = SimConfig(seed=9, points=2, quantize_pixels=True)
    rally = simulate_rally(cfg)
    clip_doc, _ = project_clip(rally, cfg)
    tracks = to_court_space(clip_from_dict(clip_doc))
    h = tracks.homography
    ball_truth = rally.ball_planar_track()
    err = np.hypot(*(tracks.ball - ball_truth).T)
    for i in np.flatnonzero(err > 0):
        # half a pixel in each axis, mapped through the local scale
        footprint = _pixel_scale_at(h, ball_truth[i]) * math.sqrt(0.5)
        assert err[i] <= footprint * 1.05


def test_dropout_rate_matches_binomial_statistics():
    cfg = SimConfig(seed=77, points=80, dropout_rate=0.2)
    clip_doc, _ = simulate_clip(cfg)
    samples = clip_doc["frames"]
    n = len(samples)
    assert n >= 10_000
    dropped = sum(1 for f in samples if f["ball_px"] is None)
    sigma = math.sqrt(n * 0.2 * 0.8)
    assert abs(dropped - 0.2 * n) <= 3.0 * sigma
    # players are never dropped: feet anchor the scene between points
    assert all(p["foot_px"] is not None for f in samples for p in f["players"])


def test_quantized_pixels_round_half_up_like_math_floor():
    small = np.array([[0.5, -0.5], [1.4999999999999998, -2.5000000000000004],
                      [-0.0, 0.49999999999999994], [2.0 ** 62 + 0.5, -1919.5]])
    huge = np.vstack([small, [[1e300, -3e18]]])
    for uv in (small, huge):
        want = [[int(math.floor(u + 0.5)), int(math.floor(v + 0.5))] for u, v in uv.tolist()]
        got = _pixel_rows(uv, True)
        assert got == want and all(type(c) is int for row in got for c in row)
    assert _pixel_rows(small, False) == small.tolist()
    with pytest.raises(ValueError):
        _pixel_rows(np.array([[1.0, math.nan]]), True)
    with pytest.raises(OverflowError):
        _pixel_rows(np.array([[math.inf, 1.0]]), True)


@pytest.mark.parametrize("points", [6, 12])
def test_project_clip_does_linear_work(monkeypatch, points):
    # counts, not times: only the court keypoints are projected one at a time,
    # each track goes through one batched call, and nothing is drawn per sample
    cfg = SimConfig(seed=1, points=points, pixel_noise_sigma_px=1.0, quantize_pixels=True,
                    dropout_rate=0.1)
    rally = simulate_rally(cfg)
    calls = {}
    for owner, name in ((Homography, "world_to_image"), (Homography, "world_to_image_many"),
                        (SplitMix64, "next_u64"), (SplitMix64, "uniform"),
                        (SplitMix64, "normal"), (SplitMix64, "uniform_many"),
                        (SplitMix64, "normal_many")):
        _counting(monkeypatch, owner, name, calls)
    clip_doc, _ = project_clip(rally, cfg)
    assert any("joints_px" in p for f in clip_doc["frames"] for p in f["players"])
    assert calls == {"world_to_image": len(reference_keypoints()),
                     "world_to_image_many": 1 + len(rally.player_ids()),
                     "uniform_many": 1, "normal_many": 1}


def test_pixel_noise_perturbs_but_preserves_annotations():
    base = SimConfig(seed=14, points=2)
    noisy = SimConfig(seed=14, points=2, pixel_noise_sigma_px=1.0)
    clean_doc, clean_truth = simulate_clip(base)
    noisy_doc, noisy_truth = simulate_clip(noisy)
    assert clean_truth == noisy_truth  # noise is a projection effect only
    assert clean_doc["events"] == noisy_doc["events"]
    assert clean_doc["keyframe_annotations"] == noisy_doc["keyframe_annotations"]
    assert clean_doc["header"]["court_keypoints_px"] == noisy_doc["header"]["court_keypoints_px"]
    assert clean_doc["frames"] != noisy_doc["frames"]


# ------------------------------------------------------------
# pinned clip bytes
# ------------------------------------------------------------

# sha256 of the clip and the truth document as the CLI writes them; a change
# to how the simulator draws or projects must leave every byte in place
PINNED_CLIPS = {
    "clean": (
        SimConfig(seed=42, points=3), None,
        "6d0688026c652f213d6d03494f08203e643230e6c3c4798c7f06414af5d4546a",
        "9e866c51921122123cc8f0da31d7f53038fd75df77de7b83939f520b8f7e7354"),
    "noise-1px": (
        SimConfig(seed=5, points=2, pixel_noise_sigma_px=1.0), None,
        "0e8e4e6c8161553b26c659ef3895a4ca1a5ccc5fa82b505ba93a660058237465",
        "21d6c98a19634d36beffd1f3d93e0fadf1b3db03078ffc4a5a06e225cf937baa"),
    "readme-degraded": (
        SimConfig(seed=42, points=3, pixel_noise_sigma_px=1.0, quantize_pixels=True,
                  dropout_rate=0.1), None,
        "99628ea8b60caf211e2af40611e0c02672cd339d11b343492a273f2e644b0773",
        "9e866c51921122123cc8f0da31d7f53038fd75df77de7b83939f520b8f7e7354"),
    "noise-2.5px-dropout-0.3": (
        SimConfig(seed=8, points=2, pixel_noise_sigma_px=2.5, dropout_rate=0.3), None,
        "50c94141e92cb163700253ef02667bdd2f4955b5e0a3f2ca4018997819352fbe",
        "27cb8203e06f8957000de0c27bd76f52164843a17ed1b5608a48821414475c31"),
    "one-point": (
        SimConfig(seed=1, points=1, pixel_noise_sigma_px=1.0), None,
        "0c16bab7b9746f49710f050b631e61b249569520126a7ae1ca639caeba9cdb21",
        "8d97a24854ff48beaf045fbfe22b3563f626ac51c9e6be2d77d1f9d3b9814694"),
    "match-ends-early": (
        SimConfig(seed=2, points=400, pixel_noise_sigma_px=0.5, dropout_rate=0.05),
        ScoringRules(best_of=3),
        "198b62968cf08ec7bb432fbc8c5657dc4939809e892374fb709ade64b501916d",
        "ac0385f1610a4192be675abe3b2bad780a7d54d4d389ba7d78035897b93aaa0a"),
    "camera": (
        SimConfig(seed=6, points=2, pixel_noise_sigma_px=1.0, quantize_pixels=True,
                  camera=CameraModel(position=(2.0, -30.0, 12.0), focal_px=1500.0)), None,
        "8cc6b88d4c36b5b020c9c8773f5815d7c22b75f4939d617a9e13ac399cc8f770",
        "30bdbd2defe3b689a850121bed61279f01238b5ac17dca7178d8890b400e98c7"),
    "binomial-80pt": (
        SimConfig(seed=77, points=80, dropout_rate=0.2), None,
        "255b3d9738ed735911e48a905c24ce294bec119dcab0cf4f9ce726cf639f1bb2",
        "d88986090782869ebbf850f60bcd0fae33512a0ea8040695d7d9f6bbf65e7e07"),
}


def _sha256(doc):
    return hashlib.sha256((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_CLIPS))
def test_clip_and_truth_bytes_are_pinned(name):
    cfg, rules, clip_sha, truth_sha = PINNED_CLIPS[name]
    rally = simulate_rally(cfg, rules=rules or ScoringRules())
    if rules is not None:
        assert len(rally.points) < cfg.points
    clip_doc, truth_doc = project_clip(rally, cfg)
    assert (_sha256(clip_doc), _sha256(truth_doc)) == (clip_sha, truth_sha)


def test_contact_by_a_player_without_knots_gets_no_joints():
    cfg = SimConfig(seed=3, points=2, pixel_noise_sigma_px=1.0)
    rally = simulate_rally(cfg)
    first = rally.points[0]
    i = next(j for j, k in enumerate(first.keyframes) if j and k.kind is EventKind.CONTACT)
    keyframes = list(first.keyframes)
    keyframes[i] = dataclasses.replace(keyframes[i], player_id="Umpire")
    first = dataclasses.replace(first, keyframes=tuple(keyframes))
    rally = dataclasses.replace(rally, points=(first, *rally.points[1:]))
    clip_doc, truth_doc = project_clip(rally, cfg)
    players = clip_doc["frames"][keyframes[i].frame]["players"]
    assert [p["id"] for p in players] == rally.player_ids()
    assert not any("joints_px" in p for p in players)
    # no joint noise is drawn for it either: the later samples keep their bytes
    assert (_sha256(clip_doc), _sha256(truth_doc)) == (
        "6e598d004eb281b29a636bbc60c4858371654a7988a9d615042441232d85f409",
        "57ba47d21614e27b803c9136f46205ba71898dd512e773903d072a9f0c974540")


def test_a_sample_at_infinity_raises(monkeypatch):
    cfg = SimConfig(seed=4, points=1)
    rally = simulate_rally(cfg)
    x0 = rally.points[0].keyframes[0].x
    # w = x - x0: the ball held at the serve before the point maps to infinity
    h = Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, -x0]]))
    monkeypatch.setattr(CameraModel, "homography", lambda self: h)
    with pytest.raises(ProjectionSingularity, match="maps to infinity"):
        project_clip(rally, cfg)
