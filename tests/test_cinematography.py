"""Camera planning tests: classification, shot grammar, caps, and evaluation."""

import dataclasses
import math
import re

import numpy as np
import pytest

from rallyforge.cinematography import (
    CUT_EPS_S,
    MAX_DOLLY_M,
    SMOOTHSTEP_PEAK_FACTOR,
    CameraAnchor,
    CameraKeyframe,
    CameraKeyframes,
    CameraMotion,
    CameraTimeline,
    Easing,
    EventCategory,
    PointSummary,
    RigTable,
    ShotSize,
    ShotSpec,
    WarpWindow,
    classify_point_category,
    compile_camera_timeline,
    evaluate_camera_pose,
    plan_point_shots,
    plan_time_warp,
    summarize_point,
)
from rallyforge.config import load_config
from rallyforge.court import CourtPoint, Phase, classify_zone
from rallyforge.errors import ConfigError, PlanningError, RangeError, ValidationError
from rallyforge.ingest import EventKind, PointOutcome, clip_from_dict
from rallyforge.pipeline import reconstruct_scene
from rallyforge.scene import EntityTracks, SampledTrack
from rallyforge.scene_metrics import EventRecord
from rallyforge.scoring import advance_score, new_match
from rallyforge.simulate import SimConfig, simulate_clip

from test_ingest import make_clip_dict


# ------------------------------------------------------------
# helpers
# ------------------------------------------------------------


def make_summary(how="Winner", shot_count=3, net_approach=False, labels=(),
                 t_start=0.0, t_end=4.0, winner="p1", event_times=()):
    return PointSummary(
        point_index=0, t_start=t_start, t_end=t_end,
        outcome=PointOutcome(winner=winner, how=how),
        shot_count=shot_count, net_approach=net_approach,
        labels_before=frozenset(labels), event_times=tuple(event_times),
    )


class StubScene:
    """A stub's ``entity_positions``: its ``entity_position`` at each time."""

    def entity_positions(self, name, ts):
        return np.array([self.entity_position(name, t).as_xyz() for t in ts.tolist()])


class LinearScene(StubScene):
    """Entities moving at constant velocity; enough to drive tracking shots."""

    def __init__(self, velocities):
        self.velocities = velocities

    def entity_position(self, name, t):
        vx, vy, y0 = self.velocities[name]
        return CourtPoint(vx * t, y0 + vy * t, 0.0)


def shot_speed_samples(timeline, shot, scene=None, rate_hz=120.0):
    """Finite-difference speeds strictly inside one compiled shot."""
    t0, t1 = shot.t_start, shot.t_end - CUT_EPS_S
    n = max(2, int((t1 - t0) * rate_hz))
    ts = np.linspace(t0, t1, n)
    poses = [evaluate_camera_pose(timeline, float(t), scene) for t in ts]
    speeds, angular = [], []
    for a, b, ta, tb in zip(poses, poses[1:], ts, ts[1:]):
        dt = float(tb - ta)
        pa, pb = np.array(a.position.as_xyz()), np.array(b.position.as_xyz())
        speeds.append(float(np.linalg.norm(pb - pa)) / dt)
        da = np.array(a.look_at.as_xyz()) - pa
        db = np.array(b.look_at.as_xyz()) - pb
        da /= np.linalg.norm(da)
        db /= np.linalg.norm(db)
        cos = float(np.clip(np.dot(da, db), -1.0, 1.0))
        angular.append(math.degrees(math.acos(cos)) / dt)
    return speeds, angular


# ------------------------------------------------------------
# rig table
# ------------------------------------------------------------


def test_default_rig_table_lists_fixed_anchors():
    rig = RigTable()
    assert rig.anchor_pose(CameraAnchor.BASELINE).position == CourtPoint(0.0, -18.0, 6.0)
    assert rig.fov_deg[ShotSize.WIDE] == 75.0
    with pytest.raises(ConfigError):
        rig.anchor_pose(CameraAnchor.FOLLOW_CAM)


def test_rig_table_from_dict_overrides_anchor():
    config, _ = load_config({"cinematography": {
        "anchors": {"Corner": {"position": [13.0, 1.0, 5.0], "look_at": [0.0, 0.0, 1.0]}},
        "fov_deg": {"Wide": 80.0},
        "linear_speed_cap": 3.0,
    }})
    rig = config.rig
    assert rig.anchor_pose(CameraAnchor.CORNER).position.x == 13.0
    assert rig.fov_deg[ShotSize.WIDE] == 80.0
    assert rig.linear_speed_cap == 3.0
    # untouched anchors keep their defaults
    assert rig.anchor_pose(CameraAnchor.BASELINE).position.z == 6.0


@pytest.mark.parametrize("bad", [
    {"anchors": {"Blimp": {"position": [0, 0, 30], "look_at": [0, 0, 0]}}},
    {"anchors": {"FollowCam": {"position": [0, 0, 2], "look_at": [0, 0, 0]}}},
    {"fov_deg": {"Wide": 150.0}},
    {"fov_deg": {"CloseUp": 10.0}},
    {"warp_factor": 0.0},
    {"linear_speed_cap": -1.0},
])
def test_rig_table_rejects_bad_config(bad):
    with pytest.raises(ConfigError):
        load_config({"cinematography": bad})


def test_every_anchor_the_rig_accepts_stays_above_the_ground_over_any_planned_dolly():
    accepted = rejected = 0
    for z in (0.3, 0.6, 1.0, 2.0):
        for look_z in (-4.0, -2.0, -1.0, 0.0, 1.0):
            pose = {"position": [0.0, -18.0, z], "look_at": [0.0, -16.0, look_z]}
            try:
                config, _ = load_config({"cinematography": {"anchors": {"Baseline": pose}}})
            except ConfigError as e:
                assert str(e) == ("cinematography is invalid: anchor Baseline must stay above "
                                  "the ground over a 2 m dolly")
                rejected += 1
                continue
            accepted += 1
            for dist in np.linspace(0.0, MAX_DOLLY_M, 9):
                shot = ShotSpec(t_start=0.0, duration=4.0, size=ShotSize.WIDE,
                                anchor=CameraAnchor.BASELINE, motion=CameraMotion.DOLLY,
                                purpose="cue", point_index=0,
                                motion_params={"distance_m": float(dist)})
                compile_camera_timeline([shot], None, (0.0, 5.0), config.rig)
    assert accepted and rejected


def test_shot_spec_validation():
    with pytest.raises(ValidationError):
        ShotSpec(t_start=0.0, duration=0.0, size=ShotSize.WIDE,
                 anchor=CameraAnchor.BASELINE, motion=CameraMotion.STATIC,
                 purpose="live", point_index=0)
    with pytest.raises(ValidationError):
        ShotSpec(t_start=0.0, duration=1.0, size=ShotSize.CLOSE_UP,
                 anchor=CameraAnchor.FOLLOW_CAM, motion=CameraMotion.TRACKING,
                 purpose="replay", point_index=0)  # tracking without a target
    with pytest.raises(ValidationError, match="Arc shots need a CourtPoint target"):
        ShotSpec(t_start=0.0, duration=2.0, size=ShotSize.WIDE,
                 anchor=CameraAnchor.BIRDS_EYE, motion=CameraMotion.ARC,
                 purpose="replay", point_index=0, target="p1")


# ------------------------------------------------------------
# classification
# ------------------------------------------------------------


def test_ace_on_game_point_is_action_then_emotion():
    summary = make_summary(how="Ace", shot_count=1, labels={"GamePoint"})
    assert classify_point_category(summary) == [EventCategory.ACTION, EventCategory.EMOTION]


def test_long_forced_error_rally_is_tactic_then_emotion():
    summary = make_summary(how="ForcedError", shot_count=12)
    assert classify_point_category(summary) == [EventCategory.TACTIC, EventCategory.EMOTION]


def test_short_unforced_error_is_emotion_only():
    summary = make_summary(how="UnforcedError", shot_count=3)
    assert classify_point_category(summary) == [EventCategory.EMOTION]


def test_net_approach_promotes_action():
    summary = make_summary(how="UnforcedError", shot_count=3, net_approach=True)
    assert classify_point_category(summary)[0] is EventCategory.ACTION


def test_nine_shot_rally_reaches_tactic():
    assert EventCategory.TACTIC in classify_point_category(make_summary(shot_count=9))
    cats = classify_point_category(make_summary(how="Winner", shot_count=9))
    assert cats == [EventCategory.ACTION, EventCategory.TACTIC, EventCategory.EMOTION]


# ------------------------------------------------------------
# point summaries from a clip
# ------------------------------------------------------------


def test_summarize_point_collects_rally_facts():
    doc, _, _ = make_clip_dict()
    clip = clip_from_dict(doc)
    records = [
        EventRecord(t=0.04, kind=EventKind.CONTACT,
                    zone=classify_zone(CourtPoint(1.0, -2.0), Phase.RALLY),
                    player_id="p1", point_index=0, position=CourtPoint(1.0, -2.0)),
        EventRecord(t=0.20, kind=EventKind.BOUNCE,
                    zone=classify_zone(CourtPoint(0.5, 8.0), Phase.RALLY),
                    player_id=None, point_index=0, position=CourtPoint(0.5, 8.0)),
    ]
    state = new_match()
    summary = summarize_point(clip, records, state, 0)
    assert summary.t_start == pytest.approx(0.0)
    assert summary.t_end == pytest.approx(9 / 25)
    assert summary.shot_count == 1
    assert summary.net_approach  # the contact sits in the short rally band
    assert summary.labels_before == frozenset()
    assert summary.outcome == PointOutcome(winner="p1", how="Winner")
    assert summary.event_times == (0.04, 0.20)


def test_summarize_point_sees_game_point():
    doc, _, _ = make_clip_dict()
    clip = clip_from_dict(doc)
    state = new_match()
    for _ in range(3):
        state = advance_score(state, "p1")  # 40-0, p1 serving
    summary = summarize_point(clip, [], state, 0)
    assert "GamePoint" in summary.labels_before
    assert not summary.net_approach

    with pytest.raises(ValidationError):
        summarize_point(clip, [], state, 3)


# ------------------------------------------------------------
# shot planning
# ------------------------------------------------------------


def test_action_plan_uses_corner_replay_with_slow_motion():
    summary = make_summary(how="Winner", t_start=1.0, t_end=5.0, event_times=(2.0, 4.5))
    shots = plan_point_shots(summary, [EventCategory.ACTION, EventCategory.EMOTION], 9.0)
    live, replay = shots
    assert (live.size, live.anchor, live.motion) == (
        ShotSize.MEDIUM, CameraAnchor.BASELINE, CameraMotion.STATIC)
    assert live.purpose == "live" and live.t_start == 1.0
    assert (replay.size, replay.anchor, replay.motion) == (
        ShotSize.MEDIUM, CameraAnchor.CORNER, CameraMotion.STATIC)
    assert replay.slow_motion and replay.purpose == "replay"
    assert replay.source_span == (1.0, 5.0)
    assert replay.motion_params["event_times_src"] == [2.0, 4.5]


def test_action_plan_prefers_net_cam_for_net_approaches():
    summary = make_summary(how="Winner", net_approach=True, t_start=0.0, t_end=4.0)
    shots = plan_point_shots(summary, [EventCategory.ACTION, EventCategory.EMOTION], 8.0)
    assert shots[1].anchor is CameraAnchor.NET_CAM


def test_tactic_plan_orbits_birds_eye():
    summary = make_summary(how="ForcedError", shot_count=10, t_start=0.0, t_end=6.0)
    shots = plan_point_shots(summary, [EventCategory.TACTIC, EventCategory.EMOTION], 11.0)
    arc = shots[1]
    assert arc.anchor is CameraAnchor.BIRDS_EYE and arc.motion is CameraMotion.ARC
    assert arc.target == CourtPoint(0.0, 0.0, 0.0)
    assert 0.0 < arc.motion_params["arc_deg"] <= 30.0
    # the sweep is budgeted so no stretching is needed at compile time
    rig = RigTable()
    min_dur = max(1.5 * arc.motion_params["arc_deg"] / rig.angular_rate_cap_deg,
                  1.5 * arc.motion_params["radius_m"]
                  * math.radians(arc.motion_params["arc_deg"]) / rig.linear_speed_cap)
    assert min_dur <= arc.duration + 1e-9
    cue = shots[2]
    assert cue.anchor is CameraAnchor.BIRDS_EYE and cue.motion is CameraMotion.STATIC


def test_emotion_plan_tracks_scoring_player_then_dollies():
    summary = make_summary(how="UnforcedError", winner="p2", t_start=0.0, t_end=5.0)
    shots = plan_point_shots(summary, [EventCategory.EMOTION], 11.0)
    track, dolly = shots[1], shots[2]
    assert track.motion is CameraMotion.TRACKING and track.target == "p2"
    assert track.size is ShotSize.CLOSE_UP and track.anchor is CameraAnchor.FOLLOW_CAM
    assert dolly.motion is CameraMotion.DOLLY and dolly.anchor is CameraAnchor.BASELINE
    moving = [s for s in shots if s.motion is not CameraMotion.STATIC]
    assert len(moving) == 2


def test_tight_window_plans_live_only():
    summary = make_summary(t_start=0.0, t_end=4.0)
    shots = plan_point_shots(summary, [EventCategory.ACTION], 4.3)
    assert len(shots) == 1 and shots[0].purpose == "live"


def test_window_cannot_end_before_the_point():
    summary = make_summary(t_start=0.0, t_end=4.0)
    with pytest.raises(ValidationError):
        plan_point_shots(summary, [EventCategory.EMOTION], 3.0)


def test_planning_needs_a_category():
    with pytest.raises(ValidationError, match="needs at least one category"):
        plan_point_shots(make_summary(t_start=0.0, t_end=4.0), [], 9.0)


# ------------------------------------------------------------
# time warps
# ------------------------------------------------------------


def test_warp_windows_clip_and_merge():
    ws = plan_time_warp([2.7, 3.3], (0.0, 10.0))
    assert [(w.t_start, w.t_end) for w in ws] == [pytest.approx((2.4, 3.6))]
    assert ws[0].factor == 0.5
    # events 0.5 s apart overlap and merge into one window
    ws = plan_time_warp([2.7, 3.2], (0.0, 10.0))
    assert [(w.t_start, w.t_end) for w in ws] == [pytest.approx((2.4, 3.5))]
    # events 1.0 s apart stay separate
    ws = plan_time_warp([2.7, 3.7], (0.0, 10.0))
    assert [(w.t_start, w.t_end) for w in ws] == [
        pytest.approx((2.4, 3.0)), pytest.approx((3.4, 4.0))]
    ws = plan_time_warp([0.1, 9.95], (0.0, 10.0))
    assert [(w.t_start, w.t_end) for w in ws] == [
        pytest.approx((0.0, 0.4)), pytest.approx((9.65, 10.0))]
    assert plan_time_warp([12.0], (0.0, 10.0)) == []
    with pytest.raises(ValidationError):
        plan_time_warp([1.0], (5.0, 5.0))
    with pytest.raises(ValidationError):
        plan_time_warp([1.0], (0.0, 10.0), factor=0.0)


# ------------------------------------------------------------
# compilation
# ------------------------------------------------------------


def static_shot(t0, dur, anchor=CameraAnchor.BASELINE, purpose="live", point_index=0):
    return ShotSpec(t_start=t0, duration=dur, size=ShotSize.MEDIUM, anchor=anchor,
                    motion=CameraMotion.STATIC, purpose=purpose, point_index=point_index)


def test_dolly_under_cap_is_stretched():
    # 3 m in 2 s averages 1.5 m/s, but the SmoothStep peak would hit 2.25 m/s;
    # the compiler stretches the shot to 2.25 s so the peak meets the 2 m/s cap.
    shot = ShotSpec(t_start=0.0, duration=2.0, size=ShotSize.WIDE,
                    anchor=CameraAnchor.BASELINE, motion=CameraMotion.DOLLY,
                    purpose="cue", point_index=0, motion_params={"distance_m": 3.0})
    timeline = compile_camera_timeline([shot], None, (0.0, 5.0))
    # one cut epsilon is added so the realized travel window is exactly 2.25 s
    assert timeline.shots[0].t_end == pytest.approx(2.25, abs=2e-4)
    assert timeline.shots[0].t_end >= 2.25
    speeds, _ = shot_speed_samples(timeline, timeline.shots[0])
    assert max(speeds) <= 2.0 + 1e-6


def test_arc_is_stretched_and_look_at_stays_pinned():
    shot = ShotSpec(t_start=0.0, duration=2.0, size=ShotSize.WIDE,
                    anchor=CameraAnchor.BIRDS_EYE, motion=CameraMotion.ARC,
                    purpose="replay", point_index=0, target=CourtPoint(0.0, 0.0, 0.0),
                    motion_params={"arc_deg": 30.0, "radius_m": 6.0})
    timeline = compile_camera_timeline([shot], None, (0.0, 6.0))
    arc = timeline.shots[0]
    # 30 deg at a 15 deg/s cap with a 1.5x SmoothStep peak needs 3 s
    assert arc.t_end - arc.t_start == pytest.approx(3.0, abs=2e-4)
    assert arc.t_end - arc.t_start >= 3.0
    center = np.zeros(3)
    for t in np.linspace(arc.t_start, arc.t_end - CUT_EPS_S, 101):
        pose = evaluate_camera_pose(timeline, float(t))
        assert pose.look_at.as_xyz() == (0.0, 0.0, 0.0)
        radius = math.hypot(pose.position.x - center[0], pose.position.y - center[1])
        # dense keyframes interpolate along chords; the sagitta bounds the dip
        assert radius == pytest.approx(6.0, abs=1e-5)
        assert pose.position.z == pytest.approx(25.0, abs=1e-12)
    first = evaluate_camera_pose(timeline, arc.t_start).position
    last = evaluate_camera_pose(timeline, arc.t_end - CUT_EPS_S).position
    swept = math.degrees(math.atan2(last.y, last.x) - math.atan2(first.y, first.x))
    assert swept == pytest.approx(30.0, abs=0.01)


def test_compile_fills_gaps_and_pose_is_total():
    timeline = compile_camera_timeline([static_shot(1.0, 1.0)], None, (0.0, 6.0))
    assert timeline.keyframes[0].t == 0.0
    for t in np.arange(0.0, 6.0 + 1e-9, 0.001):
        pose = evaluate_camera_pose(timeline, float(min(t, 6.0)))
        assert 20.0 <= pose.fov_deg <= 110.0
        assert np.isfinite(pose.position.as_xyz()).all()
    with pytest.raises(RangeError):
        evaluate_camera_pose(timeline, 6.001)
    with pytest.raises(RangeError):
        evaluate_camera_pose(timeline, -0.001)


def test_live_pose_is_bitwise_anchor_pose():
    rig = RigTable()
    timeline = compile_camera_timeline([static_shot(0.5, 2.0)], None, (0.0, 4.0), rig)
    anchor = rig.anchor_pose(CameraAnchor.BASELINE)
    for t in (0.5, 0.9, 1.7, 2.4999):
        pose = evaluate_camera_pose(timeline, t)
        assert pose.position.as_xyz() == anchor.position.as_xyz()
        assert pose.look_at.as_xyz() == anchor.look_at.as_xyz()


def test_cuts_are_instantaneous():
    rig = RigTable()
    shots = [static_shot(0.0, 2.0),
             static_shot(2.0, 2.0, anchor=CameraAnchor.CORNER, purpose="replay")]
    timeline = compile_camera_timeline(shots, None, (0.0, 4.0), rig)
    before = evaluate_camera_pose(timeline, 2.0 - CUT_EPS_S)
    after = evaluate_camera_pose(timeline, 2.0)
    assert before.position.as_xyz() == rig.anchor_pose(CameraAnchor.BASELINE).position.as_xyz()
    assert after.position.as_xyz() == rig.anchor_pose(CameraAnchor.CORNER).position.as_xyz()


def test_tracking_follows_a_slow_entity_exactly():
    scene = LinearScene({"p1": (0.4, 0.0, -8.0)})
    shot = ShotSpec(t_start=0.0, duration=3.0, size=ShotSize.CLOSE_UP,
                    anchor=CameraAnchor.FOLLOW_CAM, motion=CameraMotion.TRACKING,
                    purpose="replay", point_index=0, target="p1")
    timeline = compile_camera_timeline([shot], scene, (0.0, 3.0))
    for t in (0.0, 0.77, 1.5, 2.3):
        pose = evaluate_camera_pose(timeline, t, scene)
        want = scene.entity_position("p1", t)
        assert pose.position.x == pytest.approx(want.x, abs=1e-9)
        assert pose.position.y == pytest.approx(want.y - 2.5, abs=1e-9)
        assert pose.position.z == pytest.approx(1.8, abs=1e-12)
        assert pose.look_at.x == pytest.approx(want.x, abs=1e-9)
        assert pose.look_at.y == pytest.approx(want.y, abs=1e-9)


def test_tracking_slew_respects_speed_cap_on_teleport():
    class JumpScene(StubScene):
        def entity_position(self, name, t):
            return CourtPoint(5.0 if t > 1.0 else 0.0, -8.0, 0.0)

    scene = JumpScene()
    shot = ShotSpec(t_start=0.0, duration=6.0, size=ShotSize.CLOSE_UP,
                    anchor=CameraAnchor.FOLLOW_CAM, motion=CameraMotion.TRACKING,
                    purpose="replay", point_index=0, target="p1")
    timeline = compile_camera_timeline([shot], scene, (0.0, 6.0))
    speeds, _ = shot_speed_samples(timeline, timeline.shots[0], scene)
    assert max(speeds) <= 2.0 + 1e-6
    # and the camera does eventually reach the new position
    end = evaluate_camera_pose(timeline, 6.0 - CUT_EPS_S, scene)
    assert end.position.x == pytest.approx(5.0, abs=1e-6)


def _loop_dense_times(t0, t1, rate_hz):
    """The dense keyframe times as the per-keyframe loops took them."""
    n = max(1, int(math.ceil((t1 - t0) * rate_hz)))
    return [t0 + k * (t1 - t0) / n for k in range(n)] + [t1 - CUT_EPS_S]


def _compiled_keyframes(shot, scene, span):
    """The one compiled shot of ``shot`` and its keyframes (those inside its span)."""
    timeline = compile_camera_timeline([shot], scene, span)
    compiled, = timeline.shots
    return compiled, [k for k in timeline.keyframes if compiled.t_start <= k.t < compiled.t_end]


def _loop_tracking_keyframes(t0, t1, shot, rig, scene, source_span):
    """The per-keyframe numpy loop _tracking_keyframes replaced, kept as its reference.

    Returns the keyframes and how many steps the slew clamped.
    """
    fov = rig.fov_deg[shot.size]
    src0 = source_span[0] if source_span else t0
    slew = rig.linear_speed_cap / SMOOTHSTEP_PEAK_FACTOR

    def desired(t):
        ts = src0 + (t - t0) if source_span else t
        p = scene.entity_position(shot.target, ts)
        behind = -rig.follow_behind_m if p.y < 0 else rig.follow_behind_m
        return np.array([p.x, p.y + behind, p.z + rig.follow_height_m])

    times = _loop_dense_times(t0, t1, rig.dense_keyframe_hz)
    kfs, clamped = [], 0
    prev_pos = desired(times[0])
    prev_t = times[0]
    for t in times:
        want = desired(t)
        step = want - prev_pos
        limit = slew * (t - prev_t)
        norm = float(np.linalg.norm(step))
        if norm > limit and norm > 0:
            step = step * (limit / norm)
            clamped += 1
        pos = prev_pos + step
        kfs.append(CameraKeyframe(t, CourtPoint(*pos), shot.target, fov, Easing.SMOOTH_STEP))
        prev_pos, prev_t = pos, t
    return kfs, clamped


def _loop_arc_keyframes(t0, t1, shot, rig):
    """The per-keyframe numpy arc _arc_keyframes replaced, kept as its reference."""
    pose = rig.anchor_pose(shot.anchor)
    center = np.array(shot.target.as_xyz())
    pos = np.array(pose.position.as_xyz())
    radial = pos[:2] - center[:2]
    radius = float(np.linalg.norm(radial))
    if radius < 1.0:
        radius = float(shot.motion_params.get("radius_m", rig.arc_default_radius_m))
        radial = np.array([radius, 0.0])
    theta0 = math.atan2(radial[1], radial[0])
    sweep = math.radians(float(shot.motion_params.get("arc_deg", 30.0)))
    look = CourtPoint(float(center[0]), float(center[1]), float(center[2]))
    fov = rig.fov_deg[shot.size]
    kfs = []
    for t in _loop_dense_times(t0, t1, rig.dense_keyframe_hz):
        theta = theta0 + sweep * ((t - t0) / (t1 - t0))
        p = CourtPoint(float(center[0] + radius * math.cos(theta)),
                       float(center[1] + radius * math.sin(theta)),
                       float(pos[2]))
        kfs.append(CameraKeyframe(t, p, look, fov, Easing.SMOOTH_STEP))
    return kfs


def _keyframe_text(kfs):
    """Every field of every keyframe, numbers as float reprs (so -0.0 differs from 0.0)."""
    def text(value):
        if isinstance(value, CourtPoint):
            return tuple(repr(float(c)) for c in value.as_xyz())
        return value
    return [(repr(float(k.t)), text(k.position), text(k.look_at), repr(float(k.fov_deg)),
             k.easing) for k in kfs]


def _tracking_targets():
    """Tracks at 50 Hz for 10 s that keep the slew engaged, never engage it, switch,
    or ride the limit.

    The fast one also crosses the net, which flips the follow offset.
    """
    rng = np.random.default_rng(21)
    n = 501
    t = np.arange(n) / 50.0
    slow = np.column_stack([-0.0 + 0.3 * t, -9.0 + 0.2 * np.sin(t), np.zeros(n)])
    slow[0, 0] = -0.0
    fast = np.column_stack([rng.uniform(-5.0, 5.0, n), rng.uniform(-11.0, 11.0, n),
                            rng.uniform(0.0, 2.0, n)])
    # still for a second, then a 0.6 m dash in 0.2 s that the camera needs
    # about half a second to catch up with, over and over
    phase = np.floor(t / 1.2)
    dash = np.clip((t - 1.2 * phase - 1.0) / 0.2, 0.0, 1.0)
    switch = np.column_stack([0.6 * (phase + dash), np.full(n, -8.0), np.zeros(n)])
    # exactly at the slew speed, so each step is within rounding of the limit
    cap = np.column_stack([RigTable().linear_speed_cap / SMOOTHSTEP_PEAK_FACTOR * t - 3.0,
                           np.full(n, 7.0), np.zeros(n)])
    tracks = {name: SampledTrack(name, 50.0, samples)
              for name, samples in (("slow", slow), ("fast", fast), ("switch", switch),
                                    ("cap", cap))}
    return EntityTracks(tracks)


@pytest.mark.parametrize("source_span", [None, (0.6911, 4.4911)])
@pytest.mark.parametrize("target", ["slow", "fast", "switch", "cap"])
def test_tracking_keyframes_are_bit_equal_to_the_loop(target, source_span):
    scene = _tracking_targets()
    rig = RigTable()
    shot = ShotSpec(t_start=2.0537, duration=3.8, size=ShotSize.CLOSE_UP,
                    anchor=CameraAnchor.FOLLOW_CAM, motion=CameraMotion.TRACKING,
                    purpose="replay", point_index=0, target=target)
    if source_span:
        shot = dataclasses.replace(shot, source_span=source_span)
    compiled, got = _compiled_keyframes(shot, scene, (0.0, 10.0))
    assert (compiled.t_start, compiled.t_end) == (2.0537, 2.0537 + 3.8)
    want, clamped = _loop_tracking_keyframes(compiled.t_start, compiled.t_end, shot, rig, scene,
                                             compiled.source_span)
    assert _keyframe_text(got) == _keyframe_text(want)
    assert all(type(c) is float for k in got for c in k.position.as_xyz())
    steps = len(want) - 1
    if target == "slow":
        assert clamped == 0
    elif target == "fast":
        assert clamped == steps
    elif target == "cap":
        assert 0 < clamped < steps
    else:
        assert 0.2 * steps < clamped < 0.8 * steps


@pytest.mark.parametrize("anchor, target, params", [
    (CameraAnchor.BIRDS_EYE, CourtPoint(0.0, 0.0, 0.0), {"arc_deg": 30.0, "radius_m": 6.0}),
    (CameraAnchor.CORNER, CourtPoint(1.0, -2.0, 0.5), {"arc_deg": -12.5}),
    (CameraAnchor.BASELINE, CourtPoint(3, 1, 0), {}),
])
def test_arc_keyframes_are_bit_equal_to_the_loop(anchor, target, params):
    rig = RigTable()
    shot = ShotSpec(t_start=1.0, duration=2.7, size=ShotSize.WIDE, anchor=anchor,
                    motion=CameraMotion.ARC, purpose="replay", point_index=0,
                    target=target, motion_params=params)
    compiled, got = _compiled_keyframes(shot, None, (0.0, 12.0))
    want = _loop_arc_keyframes(compiled.t_start, compiled.t_end, shot, rig)
    assert _keyframe_text(got) == _keyframe_text(want)
    assert all(type(c) is float for k in got for c in k.position.as_xyz() + k.look_at.as_xyz())


def test_speed_and_angular_caps_hold_within_all_shots():
    scene = LinearScene({"p1": (0.9, 0.0, -9.0)})
    shots = [
        ShotSpec(t_start=0.0, duration=2.0, size=ShotSize.WIDE,
                 anchor=CameraAnchor.BASELINE, motion=CameraMotion.DOLLY,
                 purpose="cue", point_index=0, motion_params={"distance_m": 3.0}),
        ShotSpec(t_start=3.0, duration=2.0, size=ShotSize.WIDE,
                 anchor=CameraAnchor.BIRDS_EYE, motion=CameraMotion.ARC,
                 purpose="replay", point_index=1, target=CourtPoint(0.0, 0.0, 0.0),
                 motion_params={"arc_deg": 30.0, "radius_m": 6.0}),
        ShotSpec(t_start=10.0, duration=3.0, size=ShotSize.CLOSE_UP,
                 anchor=CameraAnchor.FOLLOW_CAM, motion=CameraMotion.TRACKING,
                 purpose="replay", point_index=3, target="p1"),
    ]
    timeline = compile_camera_timeline(shots, scene, (0.0, 14.0))
    rig = RigTable()
    for compiled in timeline.shots:
        speeds, angular = shot_speed_samples(timeline, compiled, scene)
        assert max(speeds) <= rig.linear_speed_cap + 1e-6
        assert max(angular) <= rig.angular_rate_cap_deg + 0.05


def test_arc_caps_hold_with_a_birds_eye_anchor_off_the_orbit_centre():
    # the arc flies the anchor's 14 m radial distance, so the planner must
    # budget the sweep with it, not with the 6 m default radius
    config, _ = load_config({"cinematography": {"anchors": {
        "BirdsEye": {"position": [0.0, 14.0, 20.0], "look_at": [0.0, 0.0, 0.0]}}}})
    rig = config.rig
    arcs = 0
    for seed in range(12):
        clip = clip_from_dict(simulate_clip(SimConfig(seed=seed, points=3))[0])
        scene = reconstruct_scene(clip, config)
        for shot in scene.camera.shots:
            if shot.spec.motion is not CameraMotion.ARC:
                continue
            arcs += 1
            assert shot.spec.motion_params["radius_m"] == 14.0
            speeds, angular = shot_speed_samples(scene.camera, shot, scene)
            assert max(speeds) <= rig.linear_speed_cap + 1e-6
            assert max(angular) <= rig.angular_rate_cap_deg + 1e-6
    assert arcs > 0


def test_moving_shot_cannot_overrun_the_span():
    shot = ShotSpec(t_start=0.0, duration=2.0, size=ShotSize.WIDE,
                    anchor=CameraAnchor.BIRDS_EYE, motion=CameraMotion.ARC,
                    purpose="replay", point_index=0, target=CourtPoint(0.0, 0.0, 0.0),
                    motion_params={"arc_deg": 30.0})
    with pytest.raises(PlanningError):
        compile_camera_timeline([shot], None, (0.0, 2.5))


def test_a_stretched_shot_trims_the_final_static_hold_to_the_span():
    # the dolly is stretched from 2 s to 2.25 s, which pushes the hold planned
    # for [2, 5] past the span's end at 4 s: the hold is cut there
    dolly = ShotSpec(t_start=0.0, duration=2.0, size=ShotSize.WIDE,
                     anchor=CameraAnchor.BASELINE, motion=CameraMotion.DOLLY,
                     purpose="cue", point_index=0, motion_params={"distance_m": 3.0})
    hold = static_shot(2.0, 3.0, anchor=CameraAnchor.CORNER, purpose="replay")
    timeline = compile_camera_timeline([dolly, hold], None, (0.0, 4.0))
    moved, held = timeline.shots
    assert moved.t_end > 2.25 and held.spec is hold
    assert (held.t_start, held.t_end) == (moved.t_end, 4.0)
    assert timeline.keyframes.t[-1] <= 4.0
    corner = RigTable().anchor_pose(CameraAnchor.CORNER).position
    assert evaluate_camera_pose(timeline, 3.9).position == corner

    # with at most one cut epsilon left the hold is dropped, and a baseline
    # filler covers the rest of the span
    t_hi = moved.t_end + CUT_EPS_S / 2
    timeline = compile_camera_timeline([dolly, hold], None, (0.0, t_hi))
    assert [shot.spec for shot in timeline.shots] == [dolly]
    assert timeline.t_end == t_hi and timeline.keyframes.t[-1] <= t_hi
    assert evaluate_camera_pose(timeline, t_hi).position != corner


def _dolly_1s(distance_m):
    return ShotSpec(t_start=0.0, duration=1.0, size=ShotSize.WIDE,
                    anchor=CameraAnchor.BASELINE, motion=CameraMotion.DOLLY,
                    purpose="cue", point_index=0, motion_params={"distance_m": distance_m})


@pytest.mark.parametrize("shots, t_hi", [
    ([_dolly_1s(4.0), static_shot(2.0, 3.0, purpose="live", point_index=1)], 6.0),
    # the dolly is stretched to end at 1.5001 s, the hold after it is trimmed
    # to half a cut epsilon and dropped, and the live shot still has its check
    ([_dolly_1s(2.0), static_shot(1.2501, 1.0, purpose="replay"),
      static_shot(1.3501, 0.1, purpose="live", point_index=1)], 1.5001 + CUT_EPS_S / 2),
], ids=["dolly-then-live", "dolly-trimmed-hold-then-live"])
def test_stretching_into_a_live_span_raises(shots, t_hi):
    with pytest.raises(PlanningError, match="an earlier shot stretched into a live span"):
        compile_camera_timeline(shots, None, (0.0, t_hi))


def test_motion_budget_is_two_per_point():
    shots = [
        ShotSpec(t_start=float(i), duration=0.8, size=ShotSize.WIDE,
                 anchor=CameraAnchor.BASELINE, motion=CameraMotion.DOLLY,
                 purpose="cue", point_index=0, motion_params={"distance_m": 0.5})
        for i in range(3)
    ]
    with pytest.raises(PlanningError):
        compile_camera_timeline(shots, None, (0.0, 5.0))
    # two moving shots are fine
    timeline = compile_camera_timeline(shots[:2], None, (0.0, 5.0))
    assert len([s for s in timeline.shots
                if s.spec.motion is not CameraMotion.STATIC]) == 2


@pytest.mark.parametrize("shots, scene, span, error, message", [
    # a 30 m pull-back from the 6 m high Baseline anchor, slow enough for the speed cap
    ([ShotSpec(t_start=0.0, duration=39.0, size=ShotSize.WIDE, anchor=CameraAnchor.BASELINE,
               motion=CameraMotion.DOLLY, purpose="cue", point_index=0,
               motion_params={"distance_m": 30.0})],
     None, (0.0, 40.0), PlanningError, "camera motion would dip below the ground"),
    ([ShotSpec(t_start=0.0, duration=2.0, size=ShotSize.CLOSE_UP, anchor=CameraAnchor.FOLLOW_CAM,
               motion=CameraMotion.TRACKING, purpose="replay", point_index=0,
               target=CourtPoint(0.0, 0.0, 0.0))],
     LinearScene({"p1": (0.4, 0.0, -8.0)}), (0.0, 3.0), ValidationError,
     "tracking shots target an entity by name"),
    ([], None, (1.0, 1.0), ValidationError, "clip span must have positive length"),
    ([static_shot(9.0, 1.0)], None, (0.0, 5.0), ValidationError,
     "shot at t=9.0 lies outside the clip span"),
], ids=["dolly-below-ground", "tracking-a-court-point", "empty-span", "shot-past-the-span"])
def test_compile_rejects_shots_it_cannot_place(shots, scene, span, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        compile_camera_timeline(shots, scene, span)


def test_tracking_without_scene_is_a_config_error():
    shot = ShotSpec(t_start=0.0, duration=2.0, size=ShotSize.CLOSE_UP,
                    anchor=CameraAnchor.FOLLOW_CAM, motion=CameraMotion.TRACKING,
                    purpose="replay", point_index=0, target="p1")
    with pytest.raises(ConfigError):
        compile_camera_timeline([shot], None, (0.0, 3.0))


def test_replay_source_mapping_and_warps():
    summary = make_summary(how="Winner", t_start=0.0, t_end=4.0, event_times=(1.0, 3.5))
    shots = plan_point_shots(summary, [EventCategory.ACTION, EventCategory.EMOTION], 9.0)
    timeline = compile_camera_timeline(shots, None, (0.0, 9.0))
    replay = timeline.shots[1]
    assert replay.t_start == pytest.approx(4.0) and replay.t_end == pytest.approx(8.0)
    assert replay.source_span == (0.0, 4.0)
    # presentation 5.5 is one and a half seconds into the replay of [0, 4]
    assert timeline.source_time(5.5) == pytest.approx(1.5, abs=1e-12)
    assert timeline.source_time(2.0) == pytest.approx(2.0)  # live is identity
    # warps sit around the presented event times 5.0 and 7.5
    assert [(w.t_start, w.t_end) for w in timeline.time_warp] == [
        pytest.approx((4.7, 5.3)), pytest.approx((7.2, 7.8))]
    assert all(w.factor == 0.5 for w in timeline.time_warp)
    assert timeline.playback_factor(5.0) == 0.5
    assert timeline.playback_factor(6.0) == 1.0


def test_timeline_validation_rules():
    kf = CameraKeyframe(0.0, CourtPoint(0.0, -18.0, 6.0), CourtPoint(0.0, 0.0, 1.0),
                        55.0, Easing.HOLD)
    with pytest.raises(ValidationError):
        CameraTimeline(keyframes=(), time_warp=(), t_start=0.0, t_end=1.0)
    with pytest.raises(ValidationError):
        CameraTimeline(keyframes=(kf, kf), time_warp=(), t_start=0.0, t_end=1.0)
    kf2 = CameraKeyframe(1.0, CourtPoint(0.0, -18.0, 6.0), CourtPoint(0.0, 0.0, 1.0),
                         55.0, Easing.HOLD)
    with pytest.raises(ValidationError):
        CameraTimeline(keyframes=(kf, kf2),
                       time_warp=(WarpWindow(0.0, 0.6, 0.5), WarpWindow(0.5, 0.9, 0.5)),
                       t_start=0.0, t_end=1.0)
    with pytest.raises(ValidationError):
        CameraKeyframe(0.0, CourtPoint(0.0, 0.0, -1.0), CourtPoint(0.0, 0.0, 1.0),
                       55.0, Easing.HOLD)
    with pytest.raises(ValidationError):
        CameraKeyframe(0.0, CourtPoint(0.0, 0.0, 5.0), CourtPoint(0.0, 0.0, 1.0),
                       119.0, Easing.HOLD)


def _keyframe(**edit):
    fields = dict(t=0.0, position=CourtPoint(0.0, -18.0, 6.0), look_at=CourtPoint(0.0, 0.0, 1.0),
                  fov_deg=55.0, easing=Easing.HOLD)
    return CameraKeyframe(**{**fields, **edit})


@pytest.mark.parametrize("edit", [
    {"position": CourtPoint(0.0, -18.0, float("nan"))},
    {"position": CourtPoint(float("inf"), -18.0, 6.0)},
    {"t": True},
    {"t": float("nan")},
    {"fov_deg": float("nan")},
    {"look_at": CourtPoint(0.0, float("-inf"), 1.0)},
    {"look_at": CourtPoint(False, 0.0, 1.0)},
    {"t": 10 ** 400},
    {"position": CourtPoint(0.0, -18.0, "6")},
    {"look_at": None},
    {"look_at": ["p1"]},
    {"easing": "Hold"},
], ids=["nan-height", "inf-x", "bool-t", "nan-t", "nan-fov", "minus-inf-look-at",
        "bool-look-at", "huge-int-t", "string-height", "null-look-at", "list-look-at",
        "string-easing"])
def test_a_keyframe_holds_finite_numbers_and_places_only(edit):
    # a NaN height passed the old "z <= 0" test, and evaluation then posed the camera at NaN
    with pytest.raises(ValidationError, match=r"^camera keyframe at t="):
        _keyframe(**edit)


def test_keyframe_columns_name_the_first_row_that_breaks_a_rule():
    columns = CameraKeyframes.of([_keyframe(t=0.0), _keyframe(t=1.0), _keyframe(t=2.0)])
    for name, row, value in (("position", 1, -1.0), ("fov_deg", 2, 19.0), ("t", 1, np.inf),
                             ("look_at_point", 2, np.nan)):
        column = getattr(columns, name).copy()
        column.reshape(3, -1)[row, -1] = value
        with pytest.raises(ValidationError, match=f"^camera keyframe {row} must hold finite"):
            dataclasses.replace(columns, **{name: column})


def test_keyframe_columns_are_a_sequence_of_keyframes():
    keyframes = [_keyframe(t=0.0), _keyframe(t=0.5, look_at="p1", easing=Easing.SMOOTH_STEP),
                 _keyframe(t=1.0, position=CourtPoint(1, 2, 3), fov_deg=20)]
    columns = CameraKeyframes.of(keyframes)
    assert len(columns) == 3 and columns.names == ("p1",)
    assert list(columns) == keyframes and columns[-1] == keyframes[-1]
    assert type(columns[2].position.x) is float and type(columns[2].fov_deg) is float
    timeline = CameraTimeline(keyframes=tuple(keyframes), time_warp=(), t_start=0.0, t_end=1.0)
    assert type(timeline.keyframes) is CameraKeyframes and list(timeline.keyframes) == keyframes
    with pytest.raises(IndexError):
        columns[3]


def test_entity_look_at_requires_scene_at_evaluation():
    scene = LinearScene({"p1": (0.5, 0.0, -8.0)})
    shot = ShotSpec(t_start=0.0, duration=2.0, size=ShotSize.CLOSE_UP,
                    anchor=CameraAnchor.FOLLOW_CAM, motion=CameraMotion.TRACKING,
                    purpose="replay", point_index=0, target="p1")
    timeline = compile_camera_timeline([shot], scene, (0.0, 2.0))
    with pytest.raises(ConfigError):
        evaluate_camera_pose(timeline, 1.0, scene=None)


def test_smooth_step_midpoint_is_half_the_travel():
    shot = ShotSpec(t_start=0.0, duration=3.0, size=ShotSize.WIDE,
                    anchor=CameraAnchor.BASELINE, motion=CameraMotion.DOLLY,
                    purpose="cue", point_index=0, motion_params={"distance_m": 3.0})
    timeline = compile_camera_timeline([shot], None, (0.0, 4.0))
    k0, k1 = timeline.keyframes[0], timeline.keyframes[1]
    mid = evaluate_camera_pose(timeline, (k0.t + k1.t) / 2.0)
    start = np.array(k0.position.as_xyz())
    end = np.array(k1.position.as_xyz())
    assert np.allclose(np.array(mid.position.as_xyz()), (start + end) / 2.0, atol=1e-12)
    # quarter point sits at s(0.25) = 5/32 of the travel
    quarter = evaluate_camera_pose(timeline, k0.t + (k1.t - k0.t) * 0.25)
    frac = np.linalg.norm(np.array(quarter.position.as_xyz()) - start) / 3.0
    assert frac == pytest.approx(5 / 32, abs=1e-9)


def test_full_point_coverage_end_to_end():
    doc, _, _ = make_clip_dict(n_frames=100)
    clip = clip_from_dict(doc)
    records = [
        EventRecord(t=clip.time_of(1), kind=EventKind.CONTACT,
                    zone=classify_zone(CourtPoint(1.0, -12.0), Phase.RALLY),
                    player_id="p1", point_index=0, position=CourtPoint(1.0, -12.0)),
        EventRecord(t=clip.time_of(5), kind=EventKind.BOUNCE,
                    zone=classify_zone(CourtPoint(0.5, -1.0), Phase.RALLY),
                    player_id=None, point_index=0, position=CourtPoint(0.5, -1.0)),
    ]
    summary = summarize_point(clip, records, new_match(), 0)
    categories = classify_point_category(summary)
    assert categories[0] is EventCategory.ACTION  # outcome is a winner
    shots = plan_point_shots(summary, categories, clip.duration)
    timeline = compile_camera_timeline(shots, None, (0.0, clip.duration))

    rig = RigTable()
    anchor = rig.anchor_pose(CameraAnchor.BASELINE)
    for t in np.arange(summary.t_start, summary.t_end, 0.01):
        pose = evaluate_camera_pose(timeline, float(t))
        assert pose.position.as_xyz() == anchor.position.as_xyz()
    for t in np.arange(0.0, clip.duration + 1e-9, 0.001):
        evaluate_camera_pose(timeline, float(min(t, clip.duration)))
    moving = {}
    for s in timeline.shots:
        if s.spec.motion is not CameraMotion.STATIC:
            moving[s.spec.point_index] = moving.get(s.spec.point_index, 0) + 1
    assert all(v <= 2 for v in moving.values())
