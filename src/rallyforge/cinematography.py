"""Camera planning: point categories, a shot grammar, and a comfort-capped timeline.

Planning happens in three stages. Each completed point is classified into
narrative categories (Action, Tactic, Emotion). The top-priority category
picks a shot sequence: a static medium baseline view covers the live rally,
and the out-of-play window gets the category's replay treatment. Compilation
then realizes shots as camera keyframes while enforcing the comfort caps
(linear speed, angular rate); motions that would exceed a cap are stretched
in duration rather than sped up. A timeline keeps its keyframes as columns
(``CameraKeyframes``), one array per field, and builds a ``CameraKeyframe``
object only when one is asked for.

Timeline time is presentation time. Replay shots carry a source span and play
it 1:1; slow-motion windows are annotations for the renderer, so they never
change the presentation-to-source mapping here. Cuts are hard: a shot ends
one epsilon before the next begins and nothing interpolates across the cut.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .court import CourtPoint, DepthBand
from .errors import ConfigError, PlanningError, RangeError, ValidationError
from .fields import is_finite_number
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

# The longest dolly the planner moves an anchor toward its look-at point; the
# rig table checks that every anchor stays above the ground over it.
MAX_DOLLY_M = 2.0

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


# a keyframe column holds each easing as its index here
EASINGS = tuple(Easing)
_HOLD, _SMOOTH_STEP = map(EASINGS.index, (Easing.HOLD, Easing.SMOOTH_STEP))


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
            forward = np.subtract(pose.look_at.as_xyz(), pose.position.as_xyz())
            if not np.linalg.norm(forward) > 1e-9:
                raise ConfigError(f"anchor {anchor.value} must not look at its own position")
            if not _dolly_end(pose, MAX_DOLLY_M)[2] > 0:
                raise ConfigError(f"anchor {anchor.value} must stay above the ground over a "
                                  f"{MAX_DOLLY_M:g} m dolly")
        for name in ("follow_height_m", "linear_speed_cap", "angular_rate_cap_deg",
                     "warp_extent_s", "dense_keyframe_hz", "arc_default_radius_m"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if not (0.0 < self.warp_factor <= 1.0):
            raise ConfigError("warp_factor must lie in (0, 1]")
        if not self.dense_keyframe_hz <= MAX_DENSE_KEYFRAME_HZ:
            raise ConfigError("dense_keyframe_hz must be at most "
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
    """One keyframe, as ``CameraKeyframes`` builds it for one row.

    Every number is a finite int or float (a bool is not a number here), as
    in a track's samples.
    """

    t: float
    position: CourtPoint
    look_at: Union[CourtPoint, str]
    fov_deg: float
    easing: Easing

    def __post_init__(self):
        look = self.look_at
        if not (type(self.position) is CourtPoint and type(self.easing) is Easing
                and (type(look) is str or type(look) is CourtPoint)):
            raise ValidationError(f"camera keyframe at t={self.t!r} needs a court point position, "
                                  "an entity name or court point look_at and an easing")
        numbers = (self.t, self.fov_deg, *self.position.as_xyz(),
                   *(() if type(look) is str else look.as_xyz()))
        for value in numbers:
            if not is_finite_number(value):
                raise ValidationError(f"camera keyframe at t={self.t!r} holds {value!r}, "
                                      "which is not a finite number")
        if not (20.0 <= self.fov_deg <= 110.0):
            raise ValidationError(f"fov_deg must lie in [20, 110], got {self.fov_deg!r}")
        if self.position.z <= 0:
            raise ValidationError("camera position must stay above the ground")


class _KeyframeLists(NamedTuple):
    """``CameraKeyframes`` columns as Python sequences, to read one row at a
    time: ``t`` is a tuple, for ``bisect``, and ``look_at`` holds each row's
    entity name or court point."""

    t: Tuple[float, ...]
    position: List[CourtPoint]
    fov_deg: List[float]
    easing: List[int]
    look_at: List[Union[CourtPoint, str]]


@dataclass(frozen=True, eq=False)
class CameraKeyframes(SequenceABC):
    """A camera's keyframes as columns: row ``i`` is keyframe ``i``.

    ``t``, ``fov_deg`` and ``easing`` (an index into ``EASINGS``) are
    ``(n,)`` arrays and ``position`` an ``(n, 3)`` array. A keyframe looks at
    the entity ``names[look_at[i]]``, or at the court point
    ``look_at_point[i]`` where ``look_at[i]`` is -1 (rows that look at an
    entity hold zeros there); ``names`` lists the entities in the order the
    rows first look at them. As a sequence, ``len`` is the row count and
    item ``i`` a ``CameraKeyframe`` built on access; ``position_of`` and
    ``look_at_of`` build one field of it, from the columns as Python
    sequences made on first use. ``of`` builds the columns of a list of
    ``CameraKeyframe`` objects.
    """

    t: np.ndarray
    position: np.ndarray
    fov_deg: np.ndarray
    easing: np.ndarray
    look_at: np.ndarray
    look_at_point: np.ndarray
    names: Tuple[str, ...] = ()

    def __post_init__(self):
        fov, z = self.fov_deg, self.position[:, 2]
        ok = (np.isfinite(self.t) & np.isfinite(fov) & np.isfinite(self.position).all(axis=1)
              & np.isfinite(self.look_at_point).all(axis=1) & (20.0 <= fov) & (fov <= 110.0)
              & (z > 0))
        if not ok.all():
            raise ValidationError(f"camera keyframe {int(ok.argmin())} must hold finite numbers, "
                                  "a fov_deg in [20, 110] and a position above the ground")

    @classmethod
    def of(cls, keyframes: Iterable[CameraKeyframe]) -> "CameraKeyframes":
        """The columns of ``keyframes`` (at least one), each one row."""
        return _join([_Block([float(k.t)], [tuple(map(float, k.position.as_xyz()))], k.look_at,
                             k.fov_deg, [EASINGS.index(k.easing)]) for k in keyframes])

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> CameraKeyframe:
        return CameraKeyframe(float(self.t[i]), self.position_of(i), self.look_at_of(i),
                              float(self.fov_deg[i]), EASINGS[self.easing[i]])

    @cached_property
    def _lists(self) -> _KeyframeLists:
        look_at = [self.names[code] if code >= 0 else CourtPoint(*point)
                   for code, point in zip(self.look_at.tolist(), self.look_at_point.tolist())]
        return _KeyframeLists(tuple(self.t.tolist()),
                              [CourtPoint(*row) for row in self.position.tolist()],
                              self.fov_deg.tolist(), self.easing.tolist(), look_at)

    def position_of(self, i: int) -> CourtPoint:
        return self._lists.position[i]

    def look_at_of(self, i: int) -> Union[CourtPoint, str]:
        return self._lists.look_at[i]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


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
    """Keyframes at strictly increasing times, the slow-motion windows, and the shots.

    ``keyframes`` are columns; a sequence of ``CameraKeyframe`` objects given
    here goes through ``CameraKeyframes.of``.
    """

    keyframes: CameraKeyframes
    time_warp: Tuple[WarpWindow, ...]
    t_start: float
    t_end: float
    shots: Tuple[CompiledShot, ...] = ()
    _shot_starts: Tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not len(self.keyframes):
            raise ValidationError("a camera timeline needs at least one keyframe")
        if type(self.keyframes) is not CameraKeyframes:
            object.__setattr__(self, "keyframes", CameraKeyframes.of(self.keyframes))
        times = self.keyframes.t
        if not (times[1:] > times[:-1]).all():
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
        object.__setattr__(self, "_shot_starts", tuple(s.t_start for s in self.shots))

    def replay_shots(self, point_index: int) -> Tuple[CompiledShot, ...]:
        """The replay shots of one point, in timeline order."""
        return self._replays.get(point_index, ())

    @cached_property
    def _replays(self) -> Dict[int, Tuple[CompiledShot, ...]]:
        replays: Dict[int, List[CompiledShot]] = {}
        for shot in self.shots:
            if shot.spec.purpose == "replay":
                replays.setdefault(shot.spec.point_index, []).append(shot)
        return {point: tuple(shots) for point, shots in replays.items()}

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
        center = CourtPoint(0.0, 0.0, 0.0)
        radius, _ = _arc_orbit(rig, CameraAnchor.BIRDS_EYE, center, {})
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
            target=center, source_span=(s1 - dur, s1),
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
        dolly_dist = min(MAX_DOLLY_M,
                         (rig.linear_speed_cap / SMOOTHSTEP_PEAK_FACTOR) * dolly_dur * 0.9)
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


def _dolly_end(pose: RigPose, dist: float) -> np.ndarray:
    """Where a dolly of ``dist`` metres from ``pose`` toward its look-at point ends."""
    position = np.array(pose.position.as_xyz())
    forward = np.array(pose.look_at.as_xyz()) - position
    return position + forward / np.linalg.norm(forward) * dist


def _min_duration(shot: ShotSpec, rig: RigTable) -> float:
    """Shortest duration that keeps the shot's SmoothStep peak inside the caps."""
    if shot.motion is CameraMotion.DOLLY:
        dist = float(shot.motion_params.get("distance_m", MAX_DOLLY_M))
        return SMOOTHSTEP_PEAK_FACTOR * abs(dist) / rig.linear_speed_cap
    if shot.motion is CameraMotion.ARC:
        deg = abs(float(shot.motion_params.get("arc_deg", 30.0)))
        radius, _ = _arc_orbit(rig, shot.anchor, shot.target, shot.motion_params)
        by_angle = SMOOTHSTEP_PEAK_FACTOR * deg / rig.angular_rate_cap_deg
        by_speed = SMOOTHSTEP_PEAK_FACTOR * radius * math.radians(deg) / rig.linear_speed_cap
        return max(by_angle, by_speed)
    return 0.0


class _Block(NamedTuple):
    """The keyframes of one shot: their times, (x, y, z) positions and easing
    indices, and the look_at and fov_deg they share."""

    t: Sequence[float]
    position: Sequence
    look_at: Union[CourtPoint, str]
    fov_deg: float
    easing: Sequence[int]


def _join(blocks: Sequence[_Block]) -> CameraKeyframes:
    """The columns of ``blocks``, one after the other."""
    names: Dict[str, int] = {}
    codes = [names.setdefault(b.look_at, len(names)) if type(b.look_at) is str else -1
             for b in blocks]
    points = [(0.0, 0.0, 0.0) if code >= 0 else b.look_at.as_xyz()
              for b, code in zip(blocks, codes)]
    counts = [len(b.t) for b in blocks]
    return CameraKeyframes(
        t=np.concatenate([b.t for b in blocks], dtype=float),
        position=np.concatenate([b.position for b in blocks], dtype=float),
        fov_deg=np.repeat(np.array([b.fov_deg for b in blocks], float), counts),
        easing=np.concatenate([b.easing for b in blocks], dtype=np.intp),
        look_at=np.repeat(np.array(codes, np.intp), counts),
        look_at_point=np.repeat(np.array(points, float), counts, axis=0),
        names=tuple(names))


def _static_keyframes(t0: float, t1: float, pose: RigPose, fov: float) -> _Block:
    ts = [t0, t1 - CUT_EPS_S] if t1 - CUT_EPS_S > t0 else [t0]
    return _Block(ts, [pose.position.as_xyz()] * len(ts), pose.look_at, fov, [_HOLD] * len(ts))


def _dolly_keyframes(t0: float, t1: float, shot: ShotSpec, rig: RigTable) -> _Block:
    pose = rig.anchor_pose(shot.anchor)
    end = _dolly_end(pose, float(shot.motion_params.get("distance_m", MAX_DOLLY_M)))
    if end[2] <= 0:
        raise PlanningError("camera motion would dip below the ground")
    return _Block([t0, t1 - CUT_EPS_S], [pose.position.as_xyz(), end], pose.look_at,
                  rig.fov_deg[shot.size], [_SMOOTH_STEP, _HOLD])


def _dense_times(t0: float, t1: float, rate_hz: float) -> np.ndarray:
    """``n`` even steps ``t0 + k * (t1 - t0) / n``, then one cut epsilon before ``t1``."""
    n = max(1, int(math.ceil((t1 - t0) * rate_hz)))
    return np.append(t0 + np.arange(n) * (t1 - t0) / n, t1 - CUT_EPS_S)


def _arc_orbit(rig: RigTable, anchor: CameraAnchor, center: CourtPoint,
               motion_params: Mapping[str, object]) -> Tuple[float, float]:
    """(radius, start angle) of an arc about ``center`` that starts at ``anchor``.

    The camera keeps the anchor's planar distance from the centre. An anchor
    within 1 m of it (the default bird's-eye sits right above the centre)
    orbits at the shot's ``radius_m`` (the rig's default radius when unset)
    from angle 0 instead.
    """
    position = rig.anchor_pose(anchor).position
    radial = (position.x - center.x, position.y - center.y)
    radius = float(np.linalg.norm(radial))
    if radius < 1.0:
        return float(motion_params.get("radius_m", rig.arc_default_radius_m)), 0.0
    return radius, math.atan2(radial[1], radial[0])


def _arc_keyframes(t0: float, t1: float, shot: ShotSpec, rig: RigTable) -> _Block:
    """Dense keyframes on the orbit, each angle ``theta0 + sweep * ((t - t0) / (t1 - t0))``.

    The cosines and sines come from ``math`` one angle at a time, as a scalar
    loop would take them: numpy's are not promised to round like libm's.
    """
    cx, cy, cz = map(float, shot.target.as_xyz())
    pz = float(rig.anchor_pose(shot.anchor).position.z)
    radius, theta0 = _arc_orbit(rig, shot.anchor, shot.target, shot.motion_params)
    sweep = math.radians(float(shot.motion_params.get("arc_deg", 30.0)))
    times = _dense_times(t0, t1, rig.dense_keyframe_hz)
    theta = (theta0 + sweep * ((times - t0) / (t1 - t0))).tolist()
    n = len(theta)
    position = np.full((n, 3), pz)
    position[:, 0] = cx + radius * np.fromiter(map(math.cos, theta), float, n)
    position[:, 1] = cy + radius * np.fromiter(map(math.sin, theta), float, n)
    return _Block(times, position, CourtPoint(cx, cy, cz), rig.fov_deg[shot.size],
                  [_SMOOTH_STEP] * n)


def _tracking_keyframes(t0: float, t1: float, shot: ShotSpec, rig: RigTable,
                        scene, source_span: Optional[Tuple[float, float]]) -> _Block:
    """Follow-cam keyframes: behind and above the target, slewed at a capped speed.

    The target's desired camera positions come from one lookup over all dense
    times; the slew then runs sample by sample, since each position depends
    on the one before. A step whose squared length is clearly below
    ``limit**2`` cannot be clamped; the others are measured with
    ``np.linalg.norm`` as the clamp is defined, because its dot product may
    round differently from ``math.sqrt(x*x + y*y + z*z)``.
    """
    if scene is None:
        raise ConfigError("tracking shots need a scene to resolve the target entity")
    if not isinstance(shot.target, str):
        raise ValidationError("tracking shots target an entity by name")
    slew = rig.linear_speed_cap / SMOOTHSTEP_PEAK_FACTOR

    times = _dense_times(t0, t1, rig.dense_keyframe_hz)
    ts = source_span[0] + (times - t0) if source_span else times
    target = scene.entity_positions(shot.target, ts)
    behind = np.where(target[:, 1] < 0, -rig.follow_behind_m, rig.follow_behind_m)
    wxs = target[:, 0].tolist()
    wys = (target[:, 1] + behind).tolist()
    wzs = (target[:, 2] + rig.follow_height_m).tolist()

    norm = np.linalg.norm
    normal = sys.float_info.min
    times = times.tolist()
    position = []
    # the camera starts at the first desired position and takes a zero step there
    prev_t, px, py, pz = times[0], wxs[0], wys[0], wzs[0]
    for t, wx, wy, wz in zip(times, wxs, wys, wzs):
        sx, sy, sz = wx - px, wy - py, wz - pz
        limit = slew * (t - prev_t)
        lim2 = limit * limit
        if not (sx * sx + sy * sy + sz * sz < lim2 * (1.0 - 1e-9)
                and normal <= lim2 < math.inf):
            length = float(norm((sx, sy, sz)))
            if length > limit and length > 0:
                scale = limit / length
                sx, sy, sz = sx * scale, sy * scale, sz * scale
        px, py, pz = px + sx, py + sy, pz + sz
        position.append((px, py, pz))
        prev_t = t
    return _Block(times, position, shot.target, rig.fov_deg[shot.size],
                  [_SMOOTH_STEP] * len(times))


def compile_camera_timeline(shots: Sequence[ShotSpec], scene, span: Tuple[float, float],
                            rig: Optional[RigTable] = None) -> CameraTimeline:
    """Realize planned shots as a keyframe timeline covering the whole span.

    Shots are laid out in order; gaps become static baseline holds so the pose
    is total over the span. Motion shots whose parameters would exceed a
    comfort cap are stretched to the minimum legal duration, which may shift
    later shots; shifting a live shot off its in-play span is a planner bug
    and raises PlanningError, as does exceeding two moving shots in one point
    or overrunning the span with a motion shot.

    Each shot's keyframes are built as arrays (static, dolly and arc shots in
    array expressions, the tracking slew sample by sample, appending floats)
    and all are joined once into the timeline's columns; no
    ``CameraKeyframe`` object is made.
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
    blocks: List[_Block] = []
    compiled: List[CompiledShot] = []
    warps: List[WarpWindow] = []
    cursor = t_lo

    def emit_filler(a: float, b: float):
        blocks.append(_static_keyframes(a, b, baseline, filler_fov))

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
                    continue
            else:
                raise PlanningError("a moving shot overruns the clip span")

        source_span = shot.source_span
        if source_span is not None:
            s0, s1 = source_span
            source_span = (max(0.0, s1 - (end - start)), s1)

        if shot.motion is CameraMotion.STATIC:
            pose = rig.anchor_pose(shot.anchor)
            blocks.append(_static_keyframes(start, end, pose, rig.fov_deg[shot.size]))
        elif shot.motion is CameraMotion.DOLLY:
            blocks.append(_dolly_keyframes(start, end, shot, rig))
        elif shot.motion is CameraMotion.ARC:
            blocks.append(_arc_keyframes(start, end, shot, rig))
        else:
            blocks.append(_tracking_keyframes(start, end, shot, rig, scene, source_span))

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

    return CameraTimeline(keyframes=_join(blocks), time_warp=tuple(warps),
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
    until the next keyframe, SmoothStep eases position, look-at, and fov. The
    two keyframes are read from the columns as Python sequences, made once
    per timeline.
    """
    if not (timeline.t_start <= t <= timeline.t_end):
        raise RangeError(f"t={t} outside timeline span [{timeline.t_start}, {timeline.t_end}]")
    rows = timeline.keyframes._lists
    i = max(bisect.bisect_right(rows.t, t) - 1, 0)
    if i + 1 == len(rows.t) or rows.easing[i] == _HOLD or t <= rows.t[i]:
        return CameraPose(position=rows.position[i],
                          look_at=_resolve_look_at(rows.look_at[i], t, timeline, scene),
                          fov_deg=rows.fov_deg[i])
    (t0, t1), (p0, p1), (fov0, fov1) = (rows.t[i:i + 2], rows.position[i:i + 2],
                                        rows.fov_deg[i:i + 2])
    u = (t - t0) / (t1 - t0)
    s = u * u * (3.0 - 2.0 * u)
    look0, look1 = rows.look_at[i:i + 2]
    if isinstance(look0, str) and look0 == look1:
        look = _resolve_look_at(look0, t, timeline, scene)
    else:
        look = _lerp_points(_resolve_look_at(look0, t, timeline, scene),
                            _resolve_look_at(look1, t, timeline, scene), s)
    return CameraPose(
        position=_lerp_points(p0, p1, s),
        look_at=look,
        fov_deg=fov0 + (fov1 - fov0) * s,
    )
