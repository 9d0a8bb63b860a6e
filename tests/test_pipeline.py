"""End-to-end reconstruction tests against the simulator's ground truth."""

import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rallyforge import pipeline, simulate
from rallyforge.cinematography import CameraMotion
from rallyforge.config import DEFAULT_CONFIG, load_config
from rallyforge.court import ZoneId
from rallyforge.errors import ValidationError
from rallyforge.ingest import EventKind, clip_from_dict, to_court_space
from rallyforge.kinematics import BallTrajectories
from rallyforge.pipeline import (
    reconstruct_scene,
    refine_tracks,
    sample_entity_tracks,
    solve_point_trajectories,
)
from rallyforge.projection import Homography
from rallyforge.scene import SampledTrack, serialize_scene
from rallyforge.scene_metrics import MetricsWindow
from rallyforge.simulate import (
    GroundTruthRally,
    SimConfig,
    round_trip_report,
    simulate_clip,
    simulate_rally,
)

from kinematics_reference import keyframes_of, trajectories_of

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
    trajectories = solve_point_trajectories(clip, refined)
    assert len(trajectories) == len(truth.points)
    for point, keyframes in zip(truth.points, keyframes_of(trajectories)):
        assert [k.kind for k in keyframes] == [k.kind for k in point.keyframes]
        for k, solved in zip(point.keyframes, keyframes):
            err = np.abs(np.subtract(solved.position, (k.x, k.y)))
            assert err.max() <= 1e-9


def _refined(cfg: SimConfig, clip_doc=None):
    clip = clip_from_dict(clip_doc if clip_doc is not None else simulate_clip(cfg)[0])
    return clip, refine_tracks(to_court_space(clip), clip, DEFAULT_CONFIG)


@pytest.mark.parametrize("seed", [2, 5])
def test_keyframes_read_the_hitters_foot_and_the_ball(seed):
    # a Contact keyframe is the hitter's refined foot, a Bounce or NetCord
    # keyframe the refined ball sample of its frame, bit for bit
    clip, tracks = _refined(SimConfig(seed=seed, points=3, pixel_noise_sigma_px=1.0,
                                      quantize_pixels=True, dropout_rate=0.1))
    trajectories = solve_point_trajectories(clip, tracks)
    kinds = set()
    for point, keyframes in zip(clip.points, keyframes_of(trajectories)):
        assert len(keyframes) == len(point.events)
        for e, k in zip(point.events, keyframes):
            kinds.add(e.kind)
            want = (tracks.players[e.player_id] if e.kind is EventKind.CONTACT
                    else tracks.ball)[e.frame]
            assert k.kind is e.kind and k.t == e.frame / clip.header.fps
            assert np.array(k.position).tobytes() == want.tobytes()
    assert kinds == {EventKind.CONTACT, EventKind.BOUNCE, EventKind.NET_CORD}


def test_contact_records_carry_their_keyframe_position():
    clip, tracks = _refined(SimConfig(seed=2, points=3, pixel_noise_sigma_px=1.0,
                                      quantize_pixels=True, dropout_rate=0.1))
    trajectories = solve_point_trajectories(clip, tracks)
    point_records = pipeline.log_zone_events(trajectories, clip.points)
    contacts = 0
    for records, keyframes in zip(point_records, keyframes_of(trajectories)):
        assert [r.t for r in records] == [k.t for k in keyframes]
        for r, k in zip(records, keyframes):
            if r.kind is EventKind.CONTACT:
                contacts += 1
                assert r.position.as_xyz() == (*k.position, 0.0)
    assert contacts > 3


def test_a_bounce_on_another_points_contact_frame_keeps_the_ball_sample():
    # point 0's last bounce, its end and point 1's start all move onto the
    # frame of point 1's serve: the bounce is still point 0's keyframe, at the
    # ball's own sample, and the serve sits at the server's foot
    clip_doc, _ = simulate_clip(SimConfig(seed=1, points=2))
    events = clip_doc["events"]
    start = next(i for i, e in enumerate(events) if e["kind"] == "PointStart" and i > 0)
    assert [e["kind"] for e in events[start - 2:start + 2]] == [
        "Bounce", "PointEnd", "PointStart", "Contact"]
    serve = events[start + 1]
    for e in events[start - 2:start + 1]:
        e["frame"] = serve["frame"]
    clip, tracks = _refined(None, clip_doc)
    first, second = keyframes_of(solve_point_trajectories(clip, tracks))
    bounce, contact = first[-1], second[0]
    assert (bounce.kind, contact.kind) == (EventKind.BOUNCE, EventKind.CONTACT)
    assert bounce.t == contact.t == serve["frame"] / clip.header.fps
    assert bounce.position == tuple(tracks.ball[serve["frame"]])
    assert contact.position == tuple(tracks.players[serve["player_id"]][serve["frame"]])
    assert bounce.position != contact.position


@pytest.mark.parametrize("kind", [EventKind.CONTACT, EventKind.BOUNCE])
def test_solve_rejects_a_keyframe_without_a_refined_position(kind):
    clip, tracks = _refined(SimConfig(seed=3, points=2))
    e = next(e for e in clip.points[0].events if e.kind is kind)
    series = tracks.players[e.player_id] if kind is EventKind.CONTACT else tracks.ball
    series[e.frame] = np.nan
    i = clip.points[0].events.index(e)
    with pytest.raises(ValidationError) as raised:
        solve_point_trajectories(clip, tracks)
    assert str(raised.value) == (
        f"point 0: keyframe {i} ({kind.value}) has a non-finite position (nan, nan)")


def _solve_case(case):
    """Solve seed 3's 3-point clip after one edit to its points, annotations or tracks."""
    clip, tracks = _refined(SimConfig(seed=3, points=3))
    events = [point.events for point in clip.points]

    def nth(i, kind, n=0):
        return [e for e in events[i] if e.kind is kind][n]

    def annotated(e, **changes):
        annotations = dict(clip.keyframe_annotations)
        if changes:
            annotations[e.frame] = replace(annotations[e.frame], **changes)
        else:
            del annotations[e.frame]
        return annotations

    def with_events(i, edited):
        return tuple(replace(p, events=tuple(edited)) if j == i else p
                     for j, p in enumerate(clip.points))

    c, b = EventKind.CONTACT, EventKind.BOUNCE
    points, annotations, nan_frames = clip.points, clip.keyframe_annotations, []
    if case == "no-annotation-p1":
        annotations = annotated(nth(1, c, 1))
    elif case == "no-height-p1":
        annotations = annotated(nth(1, c, 1), height_m=None)
    elif case == "no-spin-p1-serve":
        annotations = annotated(nth(1, c), spin=None)
    elif case == "no-height-p0-last":
        annotations = annotated(nth(0, c, -1), height_m=None)
    elif case == "ball-nan-p2":
        nan_frames = [("ball", nth(2, b).frame)]
    elif case == "foot-nan-p1":
        nan_frames = [(nth(1, c, 1).player_id, nth(1, c, 1).frame)]
    elif case == "p1-one-event":
        points = with_events(1, events[1][:1])
    elif case == "p1-no-events":
        points = with_events(1, [])
    elif case == "p1-starts-at-bounce":
        points = with_events(1, [e for e in events[1] if e.frame >= nth(1, b).frame])
    elif case == "p1-reversed":
        points = with_events(1, events[1][::-1])
    elif case == "p1-no-spin-and-p2-nan":
        annotations, nan_frames = annotated(nth(1, c), spin=None), [("ball", nth(2, b).frame)]
    elif case == "p2-no-spin-and-p1-nan":
        annotations, nan_frames = annotated(nth(2, c), spin=None), [("ball", nth(1, b).frame)]
    elif case == "p1-nan-and-p1-no-spin":
        annotations, nan_frames = annotated(nth(1, c), spin=None), [("ball", nth(1, b).frame)]
    elif case == "p1-one-event-and-p2-no-annotation":
        points, annotations = with_events(1, events[1][:1]), annotated(nth(2, c))
    for entity, frame in nan_frames:
        (tracks.ball if entity == "ball" else tracks.players[entity])[frame] = np.nan
    return replace(clip, points=points, keyframe_annotations=annotations), tracks


# each message names the point the per-point solve raised from before the
# clip-wide solve; a missing annotation or refined position is worded by the
# assembler, as the keyframe it leaves without a height or a finite position
SOLVE_ERRORS = {
    "no-annotation-p1": "point 1: keyframe 2 (Contact) has no height annotation",
    "no-height-p1": "point 1: keyframe 2 (Contact) has no height annotation",
    "no-spin-p1-serve": "point 1: contact keyframe 0 has no spin annotation",
    "no-height-p0-last": "point 0: keyframe 4 (Contact) has no height annotation",
    "ball-nan-p2": "point 2: keyframe 1 (Bounce) has a non-finite position (nan, nan)",
    "foot-nan-p1": "point 1: keyframe 2 (Contact) has a non-finite position (nan, nan)",
    "p1-one-event": "point 1: a trajectory needs at least two keyframes",
    "p1-no-events": "point 1: cannot assemble a trajectory from no keyframes",
    "p1-starts-at-bounce": ("point 1: the first segment has no spin to inherit; "
                            "trajectories must start at a contact"),
    "p1-reversed": "point 1: keyframe times must be strictly increasing",
    "p1-no-spin-and-p2-nan": "point 1: contact keyframe 0 has no spin annotation",
    "p2-no-spin-and-p1-nan": "point 1: keyframe 1 (Bounce) has a non-finite position (nan, nan)",
    "p1-nan-and-p1-no-spin": "point 1: keyframe 1 (Bounce) has a non-finite position (nan, nan)",
    "p1-one-event-and-p2-no-annotation": "point 1: a trajectory needs at least two keyframes",
}


@pytest.mark.parametrize("case", sorted(SOLVE_ERRORS))
def test_solve_errors_keep_their_wording_and_point(case):
    clip, tracks = _solve_case(case)
    with pytest.raises(ValidationError) as raised:
        solve_point_trajectories(clip, tracks)
    assert str(raised.value) == SOLVE_ERRORS[case]


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


def test_camera_keyframes_hold_plain_floats():
    # numpy scalars would leak into the scene model (and into anything a
    # renderer builds from it); this clip has static, dolly, arc and tracking shots
    clip, _, scene = _reconstruct(SimConfig(seed=2, points=3))
    assert {s.spec.motion for s in scene.camera.shots} == set(CameraMotion)
    for k in scene.camera.keyframes:
        points = [k.position] + ([] if isinstance(k.look_at, str) else [k.look_at])
        for c in [k.t, k.fov_deg] + [c for p in points for c in p.as_xyz()]:
            assert type(c) is float, (k, c)


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


def test_stats_count_the_samples_gap_fill_filled():
    cfg = SimConfig(seed=4, points=2, pixel_noise_sigma_px=1.0, quantize_pixels=True,
                    dropout_rate=0.1)
    clip = clip_from_dict(simulate_clip(cfg)[0])
    stats = {}
    reconstruct_scene(clip, stats=stats)
    absent = [np.isnan(px).any(axis=1).sum() for px in [clip.ball_px, *clip.foot_px.values()]]
    assert absent[0] > 0
    assert stats["filled_samples"] == sum(absent)


@pytest.mark.parametrize("points", [6, 12])
def test_refine_and_annotate_do_linear_work(monkeypatch, points):
    # counts, not times: one zone key per event record, whatever the clip's
    # length, and no per-sample calibration lookups while refining
    cfg = SimConfig(seed=1, points=points, pixel_noise_sigma_px=1.0, quantize_pixels=True,
                    dropout_rate=0.1)
    clip = clip_from_dict(simulate_clip(cfg)[0])
    calls = {}
    _counting(monkeypatch, ZoneId, "key", calls)
    refine_calls = {}
    refine = pipeline.refine_tracks

    def counted_refine(*args, **kwargs):
        with monkeypatch.context() as inside:
            _counting(inside, Homography, "image_to_world", refine_calls)
            return refine(*args, **kwargs)
    monkeypatch.setattr(pipeline, "refine_tracks", counted_refine)
    stats = {}
    reconstruct_scene(clip, stats=stats)
    assert stats["event_records"] > 3 * points
    assert calls["key"] == stats["event_records"]
    assert refine_calls.get("image_to_world", 0) == 0


class _CountedEvents(tuple):
    """A tuple of events that appends each event it hands out to ``reads``."""

    def __new__(cls, events, reads):
        self = super().__new__(cls, events)
        self.reads = reads
        return self

    def __iter__(self):
        for e in tuple.__iter__(self):
            self.reads.append(e)
            yield e

    def __getitem__(self, i):
        item = tuple.__getitem__(self, i)
        self.reads.extend(item if isinstance(i, slice) else [item])
        return item


@pytest.mark.parametrize("points", [6, 12])
def test_per_point_stages_read_each_in_play_event_once(points):
    # counts, not times: a scan of the whole event list for every point would
    # read each event once per point
    cfg = SimConfig(seed=1, points=points, pixel_noise_sigma_px=1.0, quantize_pixels=True,
                    dropout_rate=0.1)
    clip = clip_from_dict(simulate_clip(cfg)[0])
    tracks = refine_tracks(to_court_space(clip), clip, DEFAULT_CONFIG)
    in_play = [e for p in clip.points for e in p.events]
    reads = []
    clip = replace(clip, events=_CountedEvents(clip.events, reads),
                   points=tuple(replace(p, events=_CountedEvents(p.events, reads))
                                for p in clip.points))
    trajectories = solve_point_trajectories(clip, tracks)
    assert reads == in_play
    reads.clear()
    pipeline.log_zone_events(trajectories, clip.points)
    assert reads == in_play


def test_an_event_on_a_shared_boundary_frame_belongs_to_the_next_point():
    # point 0 ends on the frame where point 1 starts and serves: the serve is
    # point 1's keyframe only, and point 0's ball stops at its own last bounce
    clip_doc, _ = simulate_clip(SimConfig(seed=1, points=2))
    events = clip_doc["events"]
    start = next(i for i, e in enumerate(events) if e["kind"] == "PointStart" and i > 0)
    serve = events[start + 1]["frame"]
    events[start - 1]["frame"] = events[start]["frame"] = serve
    clip = clip_from_dict(clip_doc)
    fps = clip.header.fps
    scene = reconstruct_scene(clip)
    first, second = scene.points
    assert first.t_end == serve / fps
    assert first.trajectory_span[1] == clip.points[0].events[-1].frame / fps < first.t_end
    assert second.trajectory_span[0] == serve / fps


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


def _with_point_spans(scene, spans):
    """``scene`` as round_trip_report reads it, with other point spans."""
    return SimpleNamespace(span=scene.span, tracks=scene.tracks, point_spans=lambda: spans)


def test_round_trip_rejects_a_point_count_or_span_the_scene_does_not_share():
    clip_doc, truth_doc = simulate_clip(SimConfig(seed=1, points=3))
    truth = GroundTruthRally.from_dict(truth_doc)
    scene = reconstruct_scene(clip_from_dict(clip_doc))
    spans = scene.point_spans()
    assert (round_trip_report(truth, _with_point_spans(scene, spans))
            == round_trip_report(truth, scene))
    with pytest.raises(ValidationError) as raised:
        round_trip_report(truth, _with_point_spans(scene, spans[:2]))
    assert str(raised.value) == "scene has 2 points, truth has 3"

    # point 1's scene span ends halfway through its keyframes
    k0, k1 = (truth.points[1].keyframes[i].frame / truth.fps for i in (0, -1))
    shrunk = [spans[0], (spans[1][0], (k0 + k1) / 2), spans[2]]
    with pytest.raises(ValidationError) as raised:
        round_trip_report(truth, _with_point_spans(scene, shrunk))
    assert str(raised.value) == (f"point 1 keyframe span [{k0}, {k1}] escapes scene span "
                                 f"[{spans[1][0]}, {(k0 + k1) / 2}]")

    # a truth point that cannot be assembled raises before any span escape,
    # whether it comes before the escaping point or after it
    for j in (0, 2):
        doc = json.loads(json.dumps(truth_doc))
        doc["points"][j]["keyframes"][0]["spin"] = None
        with pytest.raises(ValidationError) as raised:
            round_trip_report(GroundTruthRally.from_dict(doc), _with_point_spans(scene, shrunk))
        assert str(raised.value) == f"point {j}: contact keyframe 0 has no spin annotation"


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


def _loop_rms(values):
    """Root mean square with the squares added one by one, left to right."""
    total = 0.0
    for v in values:
        total += v
    return math.sqrt(total / len(values)) if values else 0.0


def test_rms_adds_left_to_right():
    # 1e-16 is below half an ulp of 1.0, so a left-to-right sum drops every
    # one of them; a pairwise (np.sum) or compensated (math.fsum, and sum()
    # from Python 3.12 on) sum keeps them
    squares = [1.0] + [1e-16] * 1000 + [0.25, 3.0] + [1e-17] * 37
    want = _loop_rms(squares)
    assert want == math.sqrt(4.25 / len(squares))
    assert want != math.sqrt(math.fsum(squares) / len(squares))
    assert want != math.sqrt(float(np.sum(squares)) / len(squares))
    assert simulate._rms(np.array(squares)) == want
    assert simulate._rms(np.array([])) == 0.0


def _scalar_round_trip(truth, scene, sample_rate_hz=50.0):
    """The round trip as a per-sample loop of scalar lookups: the reference."""
    t0, t1 = scene.span
    step = 1.0 / sample_rate_hz
    ball_sq, ball_axis_sq, ball_max = [], {"x": [], "y": [], "z": []}, 0.0
    trajectories = trajectories_of(truth.trajectories)
    for point in truth.points:
        k0 = point.keyframes[0].frame / truth.fps
        k1 = point.keyframes[-1].frame / truth.fps
        traj = trajectories[point.index]
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
        knots = truth.players[pid]
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

    return {
        "ball_rmse_m": _loop_rms(ball_sq),
        "ball_max_m": ball_max,
        "player_rmse_m": _loop_rms(player_sq),
        "player_max_m": player_max,
        "per_axis": {
            "ball": {axis: _loop_rms(v) for axis, v in ball_axis_sq.items()},
            "players": {axis: _loop_rms(v) for axis, v in player_axis_sq.items()},
        },
        "ball_samples": len(ball_sq),
        "player_samples": len(player_sq),
    }


def _degraded(seed=42, points=3):
    # by default the README's dropout example: 1 px noise, integer pixels, 10% dropout
    return _reconstruct(SimConfig(seed=seed, points=points, pixel_noise_sigma_px=1.0,
                                  quantize_pixels=True, dropout_rate=0.1))


# seed 16's second point starts at frame 490, where 490 / 25 * 50 rounds to
# just above 980: its first sample rests on the grid's 1e-9 guard
@pytest.mark.parametrize("seed, points", [(42, 3), (4, 8), (16, 3)])
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
    _counting(monkeypatch, BallTrajectories, "evaluate_segments", calls)
    _counting(monkeypatch, SampledTrack, "position_at", calls)
    _counting(monkeypatch, GroundTruthRally, "player_position", calls)
    report = round_trip_report(truth, scene)
    assert report["ball_samples"] > 100 and report["player_samples"] > 100
    assert calls["evaluate_segments"] == 1
    assert calls.get("position_at", 0) <= len(truth.points)
    assert calls.get("player_position", 0) <= len(truth.player_ids())


def test_each_clip_evaluates_its_ball_in_one_pass(monkeypatch):
    # counts, not times: export sampling, the round trip and the simulator's
    # ball track each make one evaluate_runs call per clip, not one per point
    cfg = SimConfig(seed=3, points=6, pixel_noise_sigma_px=1.0, quantize_pixels=True,
                    dropout_rate=0.1)
    rally = simulate_rally(cfg)
    clip_doc, truth_doc = simulate.project_clip(rally, cfg)
    clip, truth = clip_from_dict(clip_doc), GroundTruthRally.from_dict(truth_doc)
    tracks = refine_tracks(to_court_space(clip), clip, DEFAULT_CONFIG)
    trajectories = solve_point_trajectories(clip, tracks)
    scene = reconstruct_scene(clip)
    assert len(truth.points) == len(trajectories) == 6
    calls = {}
    for module in (pipeline, simulate):
        _counting(monkeypatch, module, "evaluate_runs", calls)
    for run in (lambda: sample_entity_tracks(clip, tracks, trajectories, 50.0),
                lambda: round_trip_report(truth, scene),
                rally.ball_planar_track):
        calls.clear()
        run()
        assert calls == {"evaluate_runs": 1}


def test_scene_sampling_evaluates_each_trajectory_in_bulk(monkeypatch):
    clip_doc, _ = simulate_clip(SimConfig(seed=10, points=3))
    clip = clip_from_dict(clip_doc)
    tracks = refine_tracks(to_court_space(clip), clip, DEFAULT_CONFIG)
    trajectories = solve_point_trajectories(clip, tracks)
    calls = {}
    _counting(monkeypatch, BallTrajectories, "evaluate_segments", calls)
    ball = sample_entity_tracks(clip, tracks, trajectories, 50.0)["ball"]
    assert len(ball.samples) > 100
    # the held positions between points are clamped times in the same bulk pass
    assert calls == {"evaluate_segments": 1}
