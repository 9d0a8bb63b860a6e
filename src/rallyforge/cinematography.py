"""Camera planning: point categories, a shot grammar, and a comfort-capped timeline.

Planning happens in three stages. Each completed point is classified into
narrative categories (Action, Tactic, Emotion). The top-priority category
picks a shot sequence: a static medium baseline view covers the live rally,
and the out-of-play window gets the category's replay treatment. Compilation
then realizes shots as camera keyframes while enforcing the comfort caps
(linear speed, angular rate); motions that would exceed a cap are stretched
in duration rather than sped up.

Timeline time is presentation time. Replay shots carry a source span and play
it 1:1; slow-motion windows are annotations for the renderer, so they never
change the presentation-to-source mapping here. Cuts are hard: a shot ends
one epsilon before the next begins and nothing interpolates across the cut.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .court import CourtPoint, DepthBand
from .errors import ConfigError, PlanningError, RangeError, ValidationError
from .ingest import Clip, EventKind, PointOutcome
from .scene_metrics import EventRecord
from .scoring import ScoreState, point_context_labels

# Cut spacing on the presentation clock: a shot's final keyframe sits this far
# before the next shot's first keyframe so cuts stay instantaneous.
CUT_EPS_S = 1e-4

# SmoothStep s(u) = 3u^2 - 2u^3 peaks at 1.5x the average rate, so any motion
# budgeted against a cap must plan for cap / 1.5 average speed.
SMOOTHSTEP_PEAK_FACTOR = 1.5

MIN_OUT_OF_PLAY_S = 0.5
MAX_REPLAY_S = 8.0

# Arc and tracking shots sample the camera this often at most; a finer grid
# only costs time and memory, and near 1 MHz it runs into float resolution.
MAX_DENSE_KEYFRAME_HZ = 1000.0


class ShotSize(Enum):
    WIDE = "Wide"
    MEDIUM = "Medium"
    CLOSE_UP = "CloseUp"


class CameraAnchor(Enum):
    BASELINE = "Baseline"
    CORNER = "Corner"
    BIRDS_EYE = "BirdsEye"
    NET_CAM = "NetCam"
    FOLLOW_CAM = "FollowCam"


class CameraMotion(Enum):
    STATIC = "Static"
    DOLLY = "Dolly"
    TRACKING = "Tracking"
    ARC = "Arc"


class Easing(Enum):
    HOLD = "Hold"
    SMOOTH_STEP = "SmoothStep"


class EventCategory(Enum):
    ACTION = "Action"
    TACTIC = "Tactic"
    EMOTION = "Emotion"


# ============================================================
# Rig table
# ============================================================


@dataclass(frozen=True)
class RigPose:
    position: CourtPoint
    look_at: CourtPoint


def _default_anchors() -> Dict[CameraAnchor, RigPose]:
    return {
        CameraAnchor.BASELINE: RigPose(CourtPoint(0.0, -18.0, 6.0), CourtPoint(0.0, 3.0, 1.0)),
        CameraAnchor.CORNER: RigPose(CourtPoint(9.0, -14.0, 5.0), CourtPoint(0.0, 0.0, 1.0)),
        CameraAnchor.BIRDS_EYE: RigPose(CourtPoint(0.0, 0.0, 25.0), CourtPoint(0.0, 0.0, 0.0)),
        CameraAnchor.NET_CAM: RigPose(CourtPoint(2.5, 0.6, 1.1), CourtPoint(0.0, 0.0, 1.0)),
    }


@dataclass(frozen=True)
class RigTable:
    """Named camera anchors, framing FOVs, and the comfort caps.

    FollowCam has no fixed pose: it derives one from the tracked player and
    the follow offsets below.
    """

    anchors: Dict[CameraAnchor, RigPose] = field(default_factory=_default_anchors)
    fov_deg: Dict[ShotSize, float] = field(default_factory=lambda: {
        ShotSize.WIDE: 75.0, ShotSize.MEDIUM: 55.0, ShotSize.CLOSE_UP: 35.0})
    follow_behind_m: float = 2.5
    follow_height_m: float = 1.8
    linear_speed_cap: float = 2.0
    angular_rate_cap_deg: float = 15.0
    warp_extent_s: float = 0.3
    warp_factor: float = 0.5
    arc_default_radius_m: float = 6.0
    dense_keyframe_hz: float = 100.0

    def __post_init__(self):
        for size in ShotSize:
            fov = self.fov_deg.get(size)
            if fov is None or not (20.0 <= fov <= 110.0):
                raise ConfigError(f"fov for {size.value} must lie in [20, 110], got {fov!r}")
        if CameraAnchor.FOLLOW_CAM in self.anchors:
            raise ConfigError("FollowCam pose is derived, not configured")
        for anchor, pose in self.anchors.items():
            if pose.position.z <= 0:
                raise ConfigError(f"anchor {anchor.value} must sit above the ground")
        for name in ("linear_speed_cap", "angular_rate_cap_deg", "warp_extent_s",
                     "dense_keyframe_hz", "arc_default_radius_m"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if not (0.0 < self.warp_factor <= 1.0):
            raise ConfigError("warp_factor must lie in (0, 1]")
        if not self.dense_keyframe_hz <= MAX_DENSE_KEYFRAME_HZ:
            raise ConfigError(f"cinematography.dense_keyframe_hz must be at most "
                              f"{MAX_DENSE_KEYFRAME_HZ:g} Hz, got {self.dense_keyframe_hz!r}")

    def anchor_pose(self, anchor: CameraAnchor) -> RigPose:
        pose = self.anchors.get(anchor)
        if pose is None:
            raise ConfigError(f"no rig pose configured for anchor {anchor.value!r}")
        return pose


# ============================================================
# Shot and timeline types
# ============================================================


@dataclass(frozen=True)
class ShotSpec:
    """One planned shot: where the camera sits, how it moves, for how long."""

    t_start: float
    duration: float
    size: ShotSize
    anchor: CameraAnchor
    motion: CameraMotion
    purpose: str                      # "live" | "replay" | "cue" | "filler"
    point_index: int
    target: Union[None, str, CourtPoint] = None
    source_span: Optional[Tuple[float, float]] = None
    slow_motion: bool = False
    motion_params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValidationError(f"shot duration must be positive, got {self.duration!r}")
        if self.motion is CameraMotion.TRACKING and self.target is None:
            raise ValidationError("Tracking shots need a target")
        if self.motion is CameraMotion.ARC and not isinstance(self.target, CourtPoint):
            raise ValidationError("Arc shots need a CourtPoint target")


@dataclass(frozen=True)
class CameraKeyframe:
    t: float
    position: CourtPoint
    look_at: Union[CourtPoint, str]
    fov_deg: float
    easing: Easing

    def __post_init__(self):
        if not (20.0 <= self.fov_deg <= 110.0):
            raise ValidationError(f"fov_deg must lie in [20, 110], got {self.fov_deg!r}")
        if self.position.z <= 0:
            raise ValidationError("camera position must stay above the ground")


@dataclass(frozen=True)
class WarpWindow:
    t_start: float
    t_end: float
    factor: float


@dataclass(frozen=True)
class CompiledShot:
    spec: ShotSpec
    t_start: float
    t_end: float
    source_span: Optional[Tuple[float, float]] = None


@dataclass(frozen=True)
class CameraPose:
    position: CourtPoint
    look_at: CourtPoint
    fov_deg: float


@dataclass(frozen=True)
class CameraTimeline:
    keyframes: Tuple[CameraKeyframe, ...]
    time_warp: Tuple[WarpWindow, ...]
    t_start: float
    t_end: float
    shots: Tuple[CompiledShot, ...] = ()
    _times: Tuple[float, ...] = field(init=False, repr=False)
    _shot_starts: Tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.keyframes:
            raise ValidationError("a camera timeline needs at least one keyframe")
        times = tuple(k.t for k in self.keyframes)
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValidationError("keyframe times must be strictly increasing")
        prev_end = None
        for w in self.time_warp:
            if not (0.0 < w.factor <= 1.0):
                raise ValidationError("warp factors must lie in (0, 1]")
            if not (self.t_start <= w.t_start < w.t_end <= self.t_end):
                raise ValidationError("warp windows must lie inside the timeline span")
            if prev_end is not None and w.t_start < prev_end:
                raise ValidationError("warp windows must not overlap")
            prev_end = w.t_end
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_shot_starts", tuple(s.t_start for s in self.shots))

    def shot_at(self, t: float) -> Optional[CompiledShot]:
        if not self.shots:
            return None
        i = bisect.bisect_right(self._shot_starts, t) - 1
        if i < 0:
            return None
        shot = self.shots[i]
        return shot if t <= shot.t_end + 1e-12 else None

    def source_time(self, t: float) -> float:
        """Map presentation time to the scene's source clock (1:1 in replays)."""
        shot = self.shot_at(t)
        if shot is None or shot.source_span is None:
            return t
        s0, s1 = shot.source_span
        return min(s0 + (t - shot.t_start), s1)

    def playback_factor(self, t: float) -> float:
        for w in self.time_warp:
            if w.t_start <= t <= w.t_end:
                return w.factor
        return 1.0


# ============================================================
# Point classification
# ============================================================


@dataclass(frozen=True)
class PointSummary:
    """Everything the planner needs to know about one completed point."""

    point_index: int
    t_start: float
    t_end: float
    outcome: PointOutcome
    shot_count: int
    net_approach: bool
    labels_before: frozenset
    event_times: Tuple[float, ...]    # Contact/Bounce times on the source clock


def summarize_point(clip: Clip, records: Sequence[EventRecord],
                    score_before: ScoreState, point_index: int) -> PointSummary:
    """Summarize point ``point_index`` of ``clip`` from its own event records."""
    if not (0 <= point_index < len(clip.points)):
        raise ValidationError(f"clip has no point {point_index}")
    point = clip.points[point_index]
    return PointSummary(
        point_index=point_index,
        t_start=clip.time_of(point.start_frame),
        t_end=clip.time_of(point.end_frame),
        outcome=point.outcome,
        shot_count=sum(1 for r in records if r.kind is EventKind.CONTACT),
        net_approach=any(r.kind is EventKind.CONTACT and r.zone.depth is DepthBand.SHORT
                        for r in records),
        labels_before=frozenset(point_context_labels(score_before)),
        event_times=tuple(r.t for r in records
                          if r.kind in (EventKind.CONTACT, EventKind.BOUNCE)),
    )


def classify_point_category(summary: PointSummary) -> List[EventCategory]:
    """Ordered categories for one point; Emotion always closes the list.

    Priority order is Action > Tactic > Emotion; the player-reaction beat is
    planned for every point, so Emotion is always present.
    """
    categories: List[EventCategory] = []
    if summary.outcome.how in ("Winner", "Ace") or summary.net_approach:
        categories.append(EventCategory.ACTION)
    if summary.shot_count >= 9 or summary.outcome.how == "ForcedError":
        categories.append(EventCategory.TACTIC)
    categories.append(EventCategory.EMOTION)
    return categories


# ============================================================
# Shot planning
# ============================================================


def plan_point_shots(summary: PointSummary, categories: Sequence[EventCategory],
                     window_end: float, rig: Optional[RigTable] = None) -> List[ShotSpec]:
    """Plan the live shot plus the out-of-play coverage for one point.

    ``window_end`` is where this point's coverage must stop (the next point's
    start, or the clip end). The live rally is always a static medium baseline
    view; the window after the point gets the top-priority category treatment.
    Gaps left here are filled with static holds at compile time.
    """
    if not categories:
        raise ValidationError("plan_point_shots needs at least one category")
    rig = rig or RigTable()
    s0, s1 = summary.t_start, summary.t_end
    if window_end < s1 - 1e-9:
        raise ValidationError("window_end precedes the end of the point")

    shots = [ShotSpec(t_start=s0, duration=max(s1 - s0, CUT_EPS_S * 4), size=ShotSize.MEDIUM,
                      anchor=CameraAnchor.BASELINE, motion=CameraMotion.STATIC,
                      purpose="live", point_index=summary.point_index)]
    window = window_end - s1
    if window < MIN_OUT_OF_PLAY_S:
        return shots

    top = categories[0]
    # replay at least half a second of lead-in, but never footage before t=0
    rally_len = min(max(s1 - s0, MIN_OUT_OF_PLAY_S), s1)
    if top is EventCategory.ACTION:
        dur = min(window, rally_len, MAX_REPLAY_S)
        src = (s1 - dur, s1)
        shots.append(ShotSpec(
            t_start=s1, duration=dur, size=ShotSize.MEDIUM,
            anchor=CameraAnchor.NET_CAM if summary.net_approach else CameraAnchor.CORNER,
            motion=CameraMotion.STATIC, purpose="replay", point_index=summary.point_index,
            source_span=src, slow_motion=True,
            motion_params={"event_times_src": [t for t in summary.event_times
                                                  if src[0] <= t <= src[1]]}))
    elif top is EventCategory.TACTIC:
        dur = min(0.6 * window, rally_len, MAX_REPLAY_S)
        radius = rig.arc_default_radius_m
        # budget the sweep so SmoothStep peaks stay inside both caps; the
        # two-epsilon slack keeps compile from stretching a saturated plan
        budget = max(dur - 2.0 * CUT_EPS_S, CUT_EPS_S)
        max_by_angle = (rig.angular_rate_cap_deg / SMOOTHSTEP_PEAK_FACTOR) * budget
        max_by_speed = math.degrees(
            (rig.linear_speed_cap / SMOOTHSTEP_PEAK_FACTOR) / radius) * budget
        arc_deg = min(30.0, max_by_angle, max_by_speed)
        shots.append(ShotSpec(
            t_start=s1, duration=dur, size=ShotSize.WIDE, anchor=CameraAnchor.BIRDS_EYE,
            motion=CameraMotion.ARC, purpose="replay", point_index=summary.point_index,
            target=CourtPoint(0.0, 0.0, 0.0), source_span=(s1 - dur, s1),
            motion_params={"arc_deg": arc_deg, "radius_m": radius}))
        cue = window - dur
        if cue > MIN_OUT_OF_PLAY_S / 2:
            shots.append(ShotSpec(
                t_start=s1 + dur, duration=cue, size=ShotSize.WIDE,
                anchor=CameraAnchor.BIRDS_EYE, motion=CameraMotion.STATIC,
                purpose="cue", point_index=summary.point_index))
    else:
        track_dur = min(0.45 * window, 4.0)
        dolly_dur = min(0.45 * window, 4.0)
        shots.append(ShotSpec(
            t_start=s1, duration=track_dur, size=ShotSize.CLOSE_UP,
            anchor=CameraAnchor.FOLLOW_CAM, motion=CameraMotion.TRACKING,
            purpose="replay", point_index=summary.point_index,
            target=summary.outcome.winner,
            source_span=(max(s0, s1 - track_dur), s1)))
        dolly_dist = min(2.0, (rig.linear_speed_cap / SMOOTHSTEP_PEAK_FACTOR) * dolly_dur * 0.9)
        shots.append(ShotSpec(
            t_start=s1 + track_dur, duration=dolly_dur, size=ShotSize.WIDE,
            anchor=CameraAnchor.BASELINE, motion=CameraMotion.DOLLY,
            purpose="cue", point_index=summary.point_index,
            motion_params={"distance_m": dolly_dist}))
    return shots


# ============================================================
# Time warp
# ============================================================


def plan_time_warp(event_times: Sequence[float], span: Tuple[float, float],
                   extent_s: float = 0.3, factor: float = 0.5) -> List[WarpWindow]:
    """Half-speed windows of ±extent around each event, merged when they touch."""
    t0, t1 = span
    if not (t1 > t0):
        raise ValidationError("replay span must have positive length")
    if not (0.0 < factor <= 1.0):
        raise ValidationError("warp factor must lie in (0, 1]")
    intervals = sorted(
        (max(t0, e - extent_s), min(t1, e + extent_s))
        for e in event_times if t0 <= e <= t1
    )
    merged: List[List[float]] = []
    for a, b in intervals:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [WarpWindow(a, b, factor) for a, b in merged if b > a]


# ============================================================
# Compilation
# ============================================================


def _forward_axis(pose: RigPose) -> np.ndarray:
    forward = np.array(pose.look_at.as_xyz()) - np.array(pose.position.as_xyz())
    norm = np.linalg.norm(forward)
    if norm <= 1e-9:
        raise ConfigError("anchor looks at its own position; the dolly axis is undefined")
    return forward / norm


def _min_duration(shot: ShotSpec, rig: RigTable) -> float:
    """Shortest duration that keeps the shot's SmoothStep peak inside the caps."""
    if shot.motion is CameraMotion.DOLLY:
        dist = float(shot.motion_params.get("distance_m", 2.0))
        return SMOOTHSTEP_PEAK_FACTOR * abs(dist) / rig.linear_speed_cap
    if shot.motion is CameraMotion.ARC:
        deg = abs(float(shot.motion_params.get("arc_deg", 30.0)))
        radius = float(shot.motion_params.get("radius_m", rig.arc_default_radius_m))
        by_angle = SMOOTHSTEP_PEAK_FACTOR * deg / rig.angular_rate_cap_deg
        by_speed = SMOOTHSTEP_PEAK_FACTOR * radius * math.radians(deg) / rig.linear_speed_cap
        return max(by_angle, by_speed)
    return 0.0


def _static_keyframes(t0: float, t1: float, pose: RigPose, fov: float) -> List[CameraKeyframe]:
    kfs = [CameraKeyframe(t0, pose.position, pose.look_at, fov, Easing.HOLD)]
    if t1 - CUT_EPS_S > t0:
        kfs.append(CameraKeyframe(t1 - CUT_EPS_S, pose.position, pose.look_at, fov, Easing.HOLD))
    return kfs


def _dolly_keyframes(t0: float, t1: float, shot: ShotSpec,
                     rig: RigTable) -> List[CameraKeyframe]:
    pose = rig.anchor_pose(shot.anchor)
    dist = float(shot.motion_params.get("distance_m", 2.0))
    end = np.array(pose.position.as_xyz()) + _forward_axis(pose) * dist
    if end[2] <= 0:
        raise PlanningError("camera motion would dip below the ground")
    fov = rig.fov_deg[shot.size]
    return [
        CameraKeyframe(t0, pose.position, pose.look_at, fov, Easing.SMOOTH_STEP),
        CameraKeyframe(t1 - CUT_EPS_S, CourtPoint(*end), pose.look_at, fov, Easing.HOLD),
    ]


def _dense_times(t0: float, t1: float, rate_hz: float) -> List[float]:
    n = max(1, int(math.ceil((t1 - t0) * rate_hz)))
    times = [t0 + k * (t1 - t0) / n for k in range(n)]
    times.append(t1 - CUT_EPS_S)
    return times


def _arc_keyframes(t0: float, t1: float, shot: ShotSpec, rig: RigTable) -> List[CameraKeyframe]:
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
    times = _dense_times(t0, t1, rig.dense_keyframe_hz)
    for t in times:
        frac = (t - t0) / (t1 - t0)
        theta = theta0 + sweep * frac
        p = CourtPoint(float(center[0] + radius * math.cos(theta)),
                       float(center[1] + radius * math.sin(theta)),
                       float(pos[2]))
        kfs.append(CameraKeyframe(t, p, look, fov, Easing.SMOOTH_STEP))
    return kfs


def _tracking_keyframes(t0: float, t1: float, shot: ShotSpec, rig: RigTable,
                        scene, source_span: Optional[Tuple[float, float]]) -> List[CameraKeyframe]:
    if scene is None:
        raise ConfigError("tracking shots need a scene to resolve the target entity")
    if not isinstance(shot.target, str):
        raise ValidationError("tracking shots target an entity by name")
    fov = rig.fov_deg[shot.size]
    src0 = source_span[0] if source_span else t0
    slew = rig.linear_speed_cap / SMOOTHSTEP_PEAK_FACTOR

    def desired(t: float) -> np.ndarray:
        ts = src0 + (t - t0) if source_span else t
        p = scene.entity_position(shot.target, ts)
        behind = -rig.follow_behind_m if p.y < 0 else rig.follow_behind_m
        return np.array([p.x, p.y + behind, p.z + rig.follow_height_m])

    times = _dense_times(t0, t1, rig.dense_keyframe_hz)
    kfs = []
    prev_pos = desired(times[0])
    prev_t = times[0]
    for t in times:
        want = desired(t)
        dt = t - prev_t
        step = want - prev_pos
        limit = slew * dt
        norm = float(np.linalg.norm(step))
        if norm > limit and norm > 0:
            step = step * (limit / norm)
        pos = prev_pos + step
        kfs.append(CameraKeyframe(t, CourtPoint(*pos), shot.target, fov, Easing.SMOOTH_STEP))
        prev_pos, prev_t = pos, t
    return kfs


def compile_camera_timeline(shots: Sequence[ShotSpec], scene, span: Tuple[float, float],
                            rig: Optional[RigTable] = None) -> CameraTimeline:
    """Realize planned shots as a keyframe timeline covering the whole span.

    Shots are laid out in order; gaps become static baseline holds so the pose
    is total over the span. Motion shots whose parameters would exceed a
    comfort cap are stretched to the minimum legal duration, which may shift
    later shots; shifting a live shot off its in-play span is a planner bug
    and raises PlanningError, as does exceeding two moving shots in one point
    or overrunning the span with a motion shot.
    """
    t_lo, t_hi = span
    if not (t_hi > t_lo):
        raise ValidationError("clip span must have positive length")
    rig = rig or RigTable()
    ordered = sorted(shots, key=lambda s: s.t_start)

    moving: Dict[int, int] = {}
    for s in ordered:
        if s.motion is not CameraMotion.STATIC:
            moving[s.point_index] = moving.get(s.point_index, 0) + 1
    for point_index, count in sorted(moving.items()):
        if count > 2:
            raise PlanningError(
                f"point {point_index} plans {count} moving shots; the budget is 2")

    baseline = rig.anchor_pose(CameraAnchor.BASELINE)
    filler_fov = rig.fov_deg[ShotSize.MEDIUM]
    keyframes: List[CameraKeyframe] = []
    compiled: List[CompiledShot] = []
    warps: List[WarpWindow] = []
    cursor = t_lo

    def emit_filler(a: float, b: float):
        keyframes.extend(_static_keyframes(a, b, baseline, filler_fov))

    for shot in ordered:
        if shot.t_start < t_lo - 1e-9 or shot.t_start > t_hi - 1e-9:
            raise ValidationError(f"shot at t={shot.t_start} lies outside the clip span")
        if shot.t_start > cursor + 1e-9:
            emit_filler(cursor, shot.t_start)
            cursor = shot.t_start
        start = max(cursor, shot.t_start)
        if shot.purpose == "live" and start > shot.t_start + 1e-9:
            raise PlanningError("an earlier shot stretched into a live span")
        min_dur = _min_duration(shot, rig)
        if min_dur > 0:
            # the final keyframe sits one cut epsilon early, so pad the
            # stretched duration to keep the true travel time at the minimum
            min_dur += CUT_EPS_S
        duration = max(shot.duration, min_dur)
        end = start + duration
        if end > t_hi + 1e-9:
            if shot.motion is CameraMotion.STATIC:
                end = t_hi  # static holds may be trimmed to fit
                if end - start <= CUT_EPS_S:
                    break
            else:
                raise PlanningError("a moving shot overruns the clip span")

        source_span = shot.source_span
        if source_span is not None:
            s0, s1 = source_span
            source_span = (max(0.0, s1 - (end - start)), s1)

        if shot.motion is CameraMotion.STATIC:
            pose = rig.anchor_pose(shot.anchor)
            keyframes.extend(_static_keyframes(start, end, pose, rig.fov_deg[shot.size]))
        elif shot.motion is CameraMotion.DOLLY:
            keyframes.extend(_dolly_keyframes(start, end, shot, rig))
        elif shot.motion is CameraMotion.ARC:
            keyframes.extend(_arc_keyframes(start, end, shot, rig))
        else:
            keyframes.extend(_tracking_keyframes(start, end, shot, rig, scene, source_span))

        if shot.slow_motion and source_span is not None:
            events = shot.motion_params.get("event_times_src", ())
            presented = [start + (float(e) - source_span[0]) for e in events
                        if source_span[0] <= float(e) <= source_span[1]]
            warps.extend(plan_time_warp(presented, (start, end),
                                        extent_s=rig.warp_extent_s, factor=rig.warp_factor))

        compiled.append(CompiledShot(spec=shot, t_start=start, t_end=end,
                                     source_span=source_span))
        cursor = end

    if cursor < t_hi - 1e-9:
        emit_filler(cursor, t_hi)

    return CameraTimeline(keyframes=tuple(keyframes), time_warp=tuple(warps),
                          t_start=t_lo, t_end=t_hi, shots=tuple(compiled))


# ============================================================
# Evaluation
# ============================================================


def _resolve_look_at(look_at: Union[CourtPoint, str], t: float,
                     timeline: CameraTimeline, scene) -> CourtPoint:
    if isinstance(look_at, CourtPoint):
        return look_at
    if scene is None:
        raise ConfigError("timeline binds look_at to an entity; evaluation needs a scene")
    return scene.entity_position(look_at, timeline.source_time(t))


def _lerp_points(a: CourtPoint, b: CourtPoint, s: float) -> CourtPoint:
    return CourtPoint(a.x + (b.x - a.x) * s, a.y + (b.y - a.y) * s, a.z + (b.z - a.z) * s)


def evaluate_camera_pose(timeline: CameraTimeline, t: float, scene=None) -> CameraPose:
    """Pose at presentation time t: piecewise keyframe interpolation.

    The leading keyframe's easing governs its segment: Hold freezes the pose
    until the next keyframe, SmoothStep eases position, look-at, and fov.
    """
    if not (timeline.t_start <= t <= timeline.t_end):
        raise RangeError(f"t={t} outside timeline span [{timeline.t_start}, {timeline.t_end}]")
    times = timeline._times
    i = bisect.bisect_right(times, t) - 1
    if i < 0:
        i = 0
    k0 = timeline.keyframes[i]
    k1 = timeline.keyframes[i + 1] if i + 1 < len(timeline.keyframes) else None
    if k1 is None or k0.easing is Easing.HOLD or t <= k0.t:
        return CameraPose(position=k0.position,
                          look_at=_resolve_look_at(k0.look_at, t, timeline, scene),
                          fov_deg=k0.fov_deg)
    u = (t - k0.t) / (k1.t - k0.t)
    s = u * u * (3.0 - 2.0 * u)
    if isinstance(k0.look_at, str) and k0.look_at == k1.look_at:
        look = _resolve_look_at(k0.look_at, t, timeline, scene)
    else:
        look = _lerp_points(_resolve_look_at(k0.look_at, t, timeline, scene),
                            _resolve_look_at(k1.look_at, t, timeline, scene), s)
    return CameraPose(
        position=_lerp_points(k0.position, k1.position, s),
        look_at=look,
        fov_deg=k0.fov_deg + (k1.fov_deg - k0.fov_deg) * s,
    )
