"""Clip document parsing, validation, and court-space lifting.

A clip is the JSON interchange document produced by upstream detectors (or by
the built-in simulator): per-frame 2D tracking samples, event annotations, and
keyframe annotations for one point or a sequence of points.

Top-level keys: ``header``, ``frames``, ``events``, ``keyframe_annotations``.
Pixel points are ``[u, v]`` arrays, absent samples are ``null``, frame indices
are 0-based and consecutive, and timestamps are always derived as
``index / fps`` rather than stored. Unknown fields are ignored so the format
can grow without breaking old readers.

In memory a parsed ``Clip`` keeps the tracks by column, not by frame: the
ball is one ``(n_frames, 2)`` pixel array, each player's feet another (keyed
by player id in order of first appearance), and a row of NaN marks a frame
without that sample, whether the frame listed it as ``null`` or left it out.
Pose joints are sparse, keyed by ``(frame, player_id)``. Lifting to court
space keeps the same ``(n_frames, 2)`` shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .court import CourtModel, COURT, reference_keypoints
from .errors import CalibrationError, ParseError, RallyForgeError, ValidationError
from .projection import Correspondence, Homography, estimate_homography, reprojection_error
from .scoring import ScoreState

CALIBRATION_GATE_MEDIAN_PX = 5.0

OUTCOME_KINDS = ("Winner", "Ace", "ForcedError", "UnforcedError", "DoubleFault")


class EventKind(Enum):
    POINT_START = "PointStart"
    POINT_END = "PointEnd"
    CONTACT = "Contact"
    BOUNCE = "Bounce"
    NET_CORD = "NetCord"


# Keyframe kinds are the in-play subset of events.
KEYFRAME_KINDS = (EventKind.CONTACT, EventKind.BOUNCE, EventKind.NET_CORD)


class SpinType(Enum):
    TOPSPIN = "Topspin"
    BACKSPIN = "Backspin"


Pixel = Tuple[float, float]


@dataclass(frozen=True)
class PointOutcome:
    winner: str
    how: str

    def __post_init__(self):
        if self.how not in OUTCOME_KINDS:
            raise ValidationError(f"point_outcome.how must be one of {OUTCOME_KINDS}, got {self.how!r}")

    def to_dict(self) -> dict:
        return {"winner": self.winner, "how": self.how}

    @staticmethod
    def from_dict(obj) -> "PointOutcome":
        if not isinstance(obj, dict) or "winner" not in obj or "how" not in obj:
            raise ValidationError("point_outcome needs winner and how fields")
        return PointOutcome(winner=obj["winner"], how=obj["how"])


@dataclass(frozen=True)
class EventAnnotation:
    frame: int
    kind: EventKind
    player_id: Optional[str] = None


@dataclass(frozen=True)
class KeyframeAnnotation:
    frame: int
    height_m: Optional[float] = None
    spin: Optional[SpinType] = None


@dataclass(frozen=True)
class ClipHeader:
    clip_id: str
    fps: float
    width: int
    height: int
    court_keypoints_px: Tuple[Optional[Pixel], ...]
    score_before: ScoreState
    point_outcomes: Tuple[PointOutcome, ...]


@dataclass(frozen=True)
class Clip:
    header: ClipHeader
    ball_px: np.ndarray  # (n_frames, 2), NaN rows where absent
    foot_px: Mapping[str, np.ndarray]  # player id -> (n_frames, 2), first-appearance order
    joints_px: Mapping[Tuple[int, str], Mapping[str, Pixel]]  # (frame, player id) -> joints
    events: Tuple[EventAnnotation, ...]
    keyframe_annotations: Mapping[int, KeyframeAnnotation]  # by frame
    spans: Tuple[Tuple[int, int], ...]  # (start_frame, end_frame) per point

    @property
    def n_frames(self) -> int:
        return len(self.ball_px)

    def time_of(self, frame: int) -> float:
        return frame / self.header.fps

    @property
    def duration(self) -> float:
        return (self.n_frames - 1) / self.header.fps if self.n_frames else 0.0

    def annotation_at(self, frame: int) -> Optional[KeyframeAnnotation]:
        return self.keyframe_annotations.get(frame)

    def point_spans(self) -> List[Tuple[int, int]]:
        """(start_frame, end_frame) per point, in clip order."""
        return list(self.spans)


# ============================================================
# Parsing and validation
# ============================================================


def _expect(cond: bool, message: str):
    if not cond:
        raise ValidationError(message)


def is_finite_number(value) -> bool:
    """A JSON number, not a bool, that converts to a finite float (a huge integer does not)."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def _parse_pixel(value, where: str) -> Optional[Pixel]:
    if value is None:
        return None
    _expect(isinstance(value, (list, tuple)) and len(value) == 2, f"{where} must be [u, v] or null")
    u, v = value
    _expect(is_finite_number(u) and is_finite_number(v),
            f"{where} coordinates must be finite numbers")
    return (float(u), float(v))


def _track(n: int, rows: Mapping[int, Pixel]) -> np.ndarray:
    """(n, 2) array of the given frame -> pixel rows, NaN elsewhere."""
    out = np.full((n, 2), np.nan)
    if rows:
        out[list(rows)] = list(rows.values())
    return out


def clip_from_dict(obj: dict) -> Clip:
    """Build and validate a Clip from a parsed JSON object."""
    _expect(isinstance(obj, dict), "clip document must be a JSON object")
    for key in ("header", "frames", "events", "keyframe_annotations"):
        _expect(key in obj, f"clip document is missing the {key!r} field")

    head = obj["header"]
    _expect(isinstance(head, dict), "header must be an object")
    for key in ("clip_id", "fps", "width", "height", "court_keypoints_px", "score_before"):
        _expect(key in head, f"header is missing the {key!r} field")

    fps = head["fps"]
    _expect(is_finite_number(fps) and fps > 0,
            "header.fps must be a positive number")
    width, height = head["width"], head["height"]
    for name, v in (("width", width), ("height", height)):
        _expect(isinstance(v, int) and not isinstance(v, bool) and v > 0,
                f"header.{name} must be a positive integer")

    raw_kp = head["court_keypoints_px"]
    _expect(isinstance(raw_kp, list) and len(raw_kp) == 14,
            f"header.court_keypoints_px must list exactly 14 entries, got {len(raw_kp) if isinstance(raw_kp, list) else type(raw_kp).__name__}")
    keypoints = tuple(_parse_pixel(p, f"court_keypoints_px[{i}]") for i, p in enumerate(raw_kp))

    score = ScoreState.from_dict(head["score_before"])

    outcomes: List[PointOutcome] = []
    if "point_outcomes" in head and head["point_outcomes"] is not None:
        _expect(isinstance(head["point_outcomes"], list) and head["point_outcomes"],
                "header.point_outcomes must be a non-empty list when present")
        outcomes = [PointOutcome.from_dict(o) for o in head["point_outcomes"]]
    elif "point_outcome" in head and head["point_outcome"] is not None:
        outcomes = [PointOutcome.from_dict(head["point_outcome"])]
    _expect(bool(outcomes), "header needs point_outcome or point_outcomes")
    for o in outcomes:
        _expect(o.winner in score.players, f"outcome winner {o.winner!r} is not a match player")

    frames_raw = obj["frames"]
    _expect(isinstance(frames_raw, list) and frames_raw, "frames must be a non-empty list")
    n = len(frames_raw)
    ball: Dict[int, Pixel] = {}
    feet: Dict[str, Dict[int, Pixel]] = {}
    joints: Dict[Tuple[int, str], Dict[str, Pixel]] = {}
    for i, fr in enumerate(frames_raw):
        _expect(isinstance(fr, dict), f"frames[{i}] must be an object")
        _expect(fr.get("index") == i, f"frames[{i}].index must be {i} (0-based, consecutive)")
        ball_px = _parse_pixel(fr.get("ball_px"), f"frames[{i}].ball_px")
        if ball_px is not None:
            ball[i] = ball_px
        players_raw = fr.get("players", [])
        _expect(isinstance(players_raw, list), f"frames[{i}].players must be a list")
        seen_ids = set()
        for j, pl in enumerate(players_raw):
            _expect(isinstance(pl, dict) and isinstance(pl.get("id"), str) and pl["id"],
                    f"frames[{i}].players[{j}].id must be a non-empty string")
            pid = pl["id"]
            _expect(pid not in seen_ids, f"frames[{i}] lists player {pid!r} twice")
            seen_ids.add(pid)
            foot = _parse_pixel(pl.get("foot_px"), f"frames[{i}].players[{j}].foot_px")
            rows = feet.setdefault(pid, {})
            if foot is not None:
                rows[i] = foot
            if pl.get("joints_px") is not None:
                raw_joints = pl["joints_px"]
                _expect(isinstance(raw_joints, dict), f"frames[{i}].players[{j}].joints_px must be an object")
                joints[i, pid] = {
                    name: _parse_pixel(px, f"frames[{i}].players[{j}].joints_px[{name!r}]")
                    for name, px in raw_joints.items()
                }

    events_raw = obj["events"]
    _expect(isinstance(events_raw, list), "events must be a list")
    events: List[EventAnnotation] = []
    kinds = {k.value: k for k in EventKind}
    for i, ev in enumerate(events_raw):
        _expect(isinstance(ev, dict), f"events[{i}] must be an object")
        frame = ev.get("frame")
        _expect(isinstance(frame, int) and 0 <= frame < n,
                f"events[{i}].frame must be an integer in [0, {n})")
        kind = ev.get("kind")
        _expect(isinstance(kind, str) and kind in kinds,
                f"events[{i}].kind must be one of {sorted(kinds)}")
        kind = kinds[kind]
        pid = ev.get("player_id")
        if kind is EventKind.CONTACT:
            _expect(isinstance(pid, str) and pid in feet,
                    f"events[{i}]: Contact events need a player_id present in the clip")
        elif pid is not None:
            _expect(isinstance(pid, str) and pid in feet,
                    f"events[{i}].player_id {pid!r} never appears in frames")
        events.append(EventAnnotation(frame=frame, kind=kind, player_id=pid))
    _expect(all(events[i].frame <= events[i + 1].frame for i in range(len(events) - 1)),
            "events must be ordered by frame")

    # point spans must alternate Start/End and cover all in-play events
    spans: List[Tuple[int, int]] = []
    open_start = None
    for e in events:
        if e.kind is EventKind.POINT_START:
            _expect(open_start is None, "PointStart before the previous point ended")
            open_start = e.frame
        elif e.kind is EventKind.POINT_END:
            _expect(open_start is not None and open_start <= e.frame,
                    "PointEnd without a preceding PointStart")
            spans.append((open_start, e.frame))
            open_start = None
        else:
            _expect(open_start is not None, f"{e.kind.value} event at frame {e.frame} is outside any point span")
    _expect(open_start is None, "the final point never ended (missing PointEnd)")

    annos_raw = obj["keyframe_annotations"]
    _expect(isinstance(annos_raw, list), "keyframe_annotations must be a list")
    by_frame: Dict[int, KeyframeAnnotation] = {}
    spins = {s.value: s for s in SpinType}
    for i, an in enumerate(annos_raw):
        _expect(isinstance(an, dict), f"keyframe_annotations[{i}] must be an object")
        frame = an.get("frame")
        _expect(isinstance(frame, int) and 0 <= frame < n,
                f"keyframe_annotations[{i}].frame must be an integer in [0, {n})")
        _expect(frame not in by_frame, f"duplicate keyframe annotation for frame {frame}")
        height_m = an.get("height_m")
        if height_m is not None:
            _expect(is_finite_number(height_m) and height_m >= 0,
                    f"keyframe_annotations[{i}].height_m must be >= 0")
            height_m = float(height_m)
        spin = an.get("spin")
        if spin is not None:
            _expect(isinstance(spin, str) and spin in spins,
                    f"keyframe_annotations[{i}].spin must be one of {sorted(spins)}")
            spin = spins[spin]
        by_frame[frame] = KeyframeAnnotation(frame=frame, height_m=height_m, spin=spin)

    for e in events:
        if e.kind is EventKind.CONTACT:
            anno = by_frame.get(e.frame)
            _expect(anno is not None and anno.spin is not None,
                    f"Contact at frame {e.frame} needs a keyframe annotation with spin")

    header = ClipHeader(
        clip_id=str(head["clip_id"]),
        fps=float(fps),
        width=width,
        height=height,
        court_keypoints_px=keypoints,
        score_before=score,
        point_outcomes=tuple(outcomes),
    )
    return Clip(header=header, ball_px=_track(n, ball),
                foot_px={pid: _track(n, rows) for pid, rows in feet.items()},
                joints_px=joints, events=tuple(events),
                keyframe_annotations=by_frame, spans=tuple(spans))


def load_json(text: str, what: str = "JSON"):
    """Decode one JSON document, raising ParseError with the error's position."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid {what}: {e.msg}", line=e.lineno, column=e.colno) from None


def parse_clip(text: str) -> Clip:
    """Parse a clip JSON document. Raises ParseError (with position) or ValidationError."""
    return clip_from_dict(load_json(text))


# ============================================================
# Court-space lifting
# ============================================================


@dataclass
class CourtTracks:
    """Planar court-space tracks lifted from one clip.

    Arrays are (n_frames, 2) with NaN rows marking absent samples, so the
    presence pattern of the clip is preserved exactly.
    """

    homography: Homography
    calibration: dict
    fps: float
    ball: np.ndarray
    players: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_frames(self) -> int:
        return len(self.ball)


def _lift_series(minv: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    out = np.full(pixels.shape, np.nan)
    present = ~np.isnan(pixels).any(axis=1)
    uv1 = np.ones((np.count_nonzero(present), 3))
    uv1[:, :2] = pixels[present]
    world = uv1 @ minv.T
    w = world[:, 2]
    if np.any(np.abs(w) <= 1e-12):
        raise CalibrationError("a tracked sample unprojects to infinity under this calibration")
    out[present] = world[:, :2] / w[:, None]
    return out


def to_court_space(clip: Clip, court: CourtModel = COURT,
                   gate_median_px: float = CALIBRATION_GATE_MEDIAN_PX) -> CourtTracks:
    """Calibrate from the header keypoints and lift all pixel tracks to the court plane.

    Raises CalibrationError when fewer than four keypoints are present, when
    the keypoint layout is degenerate, or when the median reprojection error
    exceeds ``gate_median_px``.
    """
    refs = reference_keypoints(court)
    pairs = [
        Correspondence(world=refs[i], pixel=px)
        for i, px in enumerate(clip.header.court_keypoints_px)
        if px is not None
    ]
    if len(pairs) < 4:
        raise CalibrationError(
            f"calibration needs at least 4 visible court keypoints, got {len(pairs)}",
            report={"visible_keypoints": len(pairs)},
        )
    try:
        h = estimate_homography(pairs)
    except RallyForgeError as e:
        raise CalibrationError(f"calibration failed: {e}",
                               report={"visible_keypoints": len(pairs)}) from e
    report = reprojection_error(h, pairs)
    report["visible_keypoints"] = len(pairs)
    if report["median_px"] > gate_median_px:
        raise CalibrationError(
            f"median reprojection error {report['median_px']:.2f} px exceeds the "
            f"{gate_median_px:.2f} px calibration gate",
            report=report,
        )

    minv = np.linalg.inv(h.matrix)
    ball = _lift_series(minv, clip.ball_px)
    players = {pid: _lift_series(minv, foot) for pid, foot in clip.foot_px.items()}
    return CourtTracks(homography=h, calibration=report, fps=clip.header.fps,
                       ball=ball, players=players)
