"""Clip document parsing, validation, and court-space lifting.

A clip is the JSON interchange document produced by upstream detectors (or by
the built-in simulator): per-frame 2D tracking samples, event annotations, and
keyframe annotations for one point or a sequence of points.

Top-level keys: ``header``, ``frames``, ``events``, ``keyframe_annotations``.
Pixel points are ``[u, v]`` arrays and absent samples are ``null``; a ``null``
pose joint is absent too and is left out of its pose. Frame numbers (frame
indices, event and annotation frames) are JSON integers, never ``true`` or
``1.0``; frame indices are 0-based and consecutive, and timestamps are always
derived as ``index / fps`` rather than stored. Unknown fields are ignored so
the format can grow without breaking old readers.

The frame list is checked by column: each field is pulled out of every frame
at once and checked as a whole. The column checks only decide whether the
whole list is valid; when one fails, each frame's own checker runs in order,
and the first frame that fails raises the message a frame-by-frame reader
would raise first.

In memory a parsed ``Clip`` keeps the tracks by column, not by frame: the
ball is one ``(n_frames, 2)`` pixel array, each player's feet another (keyed
by player id in order of first appearance), and a row of NaN marks a frame
without that sample, whether the frame listed it as ``null`` or left it out.
Pose joints are sparse, keyed by ``(frame, player_id)``. Lifting to court
space keeps the same ``(n_frames, 2)`` shape.

The clip also keeps its events grouped by point: ``Clip.points`` holds one
``ClipPoint`` per PointStart/PointEnd pair, with that point's outcome and its
Contact, Bounce and NetCord events in listing order. The reader is the only
code that decides which point an event belongs to; every per-point stage
reads this grouping. The header must list one outcome per point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, repeat
from operator import is_not
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


class SpinType(Enum):
    TOPSPIN = "Topspin"
    BACKSPIN = "Backspin"


Pixel = Tuple[float, float]


@dataclass(frozen=True)
class PointOutcome:
    winner: str
    how: str

    def __post_init__(self):
        if not isinstance(self.winner, str):
            raise ValidationError(f"point_outcome.winner must be a player name, got {self.winner!r}")
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


@dataclass(frozen=True)
class ClipPoint:
    """One point of a clip: its frame span, outcome and in-play events."""

    start_frame: int
    end_frame: int
    outcome: PointOutcome
    events: Tuple[EventAnnotation, ...]  # Contact/Bounce/NetCord, in listing order


@dataclass(frozen=True)
class Clip:
    header: ClipHeader
    ball_px: np.ndarray  # (n_frames, 2), NaN rows where absent
    foot_px: Mapping[str, np.ndarray]  # player id -> (n_frames, 2), first-appearance order
    joints_px: Mapping[Tuple[int, str], Mapping[str, Pixel]]  # (frame, player id) -> joints
    events: Tuple[EventAnnotation, ...]
    keyframe_annotations: Mapping[int, KeyframeAnnotation]  # by frame
    points: Tuple[ClipPoint, ...]

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


# ============================================================
# Parsing and validation
# ============================================================


def _expect(cond: bool, message: str):
    if not cond:
        raise ValidationError(message)


def is_finite_number(value) -> bool:
    """A JSON number, not a bool, that converts to a finite float (a huge integer does not)."""
    if type(value) is float:  # most values: finite exactly when it minus itself is zero
        return value - value == 0.0
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class _Malformed(ValidationError):
    """A column check failed; ``_check_frame`` finds the frame and words the message."""


def _check(cond: bool) -> None:
    if not cond:
        raise _Malformed


def _all_are(values: list, t: type) -> bool:
    """Whether every value is a ``t`` and none a ``bool``; exact ``t`` values are checked as one set."""
    types = set(map(type, values))
    return types <= {t} or (bool not in types and all(isinstance(v, t) for v in values))


def _pixel_column(values: list) -> Tuple[np.ndarray, np.ndarray]:
    """The positions and ``(k, 2)`` float rows of the present pixels of a column.

    ``null`` is absent. Exact ``list``/``tuple`` pixels of exact
    ``int``/``float`` coordinates convert in one ``np.array`` call; anything
    else goes through ``_parse_pixel`` one pixel at a time. Raises
    ``ValidationError`` if any pixel is malformed.
    """
    present = np.fromiter(map(is_not, values, repeat(None)), bool, len(values))
    pts = list(compress(values, present))
    if (set(map(type, pts)) <= {list, tuple} and set(map(len, pts)) <= {2}
            and set(map(type, chain.from_iterable(pts))) <= {int, float}):
        try:
            rows = np.array(pts, float).reshape(-1, 2)
        except OverflowError:  # an integer too large for a float
            raise _Malformed from None
        _check(np.isfinite(rows).all())
    else:  # subclasses of the exact types, or a malformed pixel
        rows = np.array([_parse_pixel(p, "") for p in pts], float).reshape(-1, 2)
    return np.flatnonzero(present), rows


def _check_frame(i: int, fr) -> None:
    """Raise the message of the first check frame ``i`` fails, in reading order."""
    _expect(isinstance(fr, dict), f"frames[{i}] must be an object")
    index = fr.get("index")
    _expect(_is_int(index) and index == i, f"frames[{i}].index must be {i} (0-based, consecutive)")
    _parse_pixel(fr.get("ball_px"), f"frames[{i}].ball_px")
    players_raw = fr.get("players", [])
    _expect(isinstance(players_raw, list), f"frames[{i}].players must be a list")
    seen_ids = set()
    for j, pl in enumerate(players_raw):
        _expect(isinstance(pl, dict) and isinstance(pl.get("id"), str) and pl["id"],
                f"frames[{i}].players[{j}].id must be a non-empty string")
        pid = pl["id"]
        _expect(pid not in seen_ids, f"frames[{i}] lists player {pid!r} twice")
        seen_ids.add(pid)
        _parse_pixel(pl.get("foot_px"), f"frames[{i}].players[{j}].foot_px")
        raw_joints = pl.get("joints_px")
        if raw_joints is not None:
            _expect(isinstance(raw_joints, dict), f"frames[{i}].players[{j}].joints_px must be an object")
            for name, px in raw_joints.items():
                _parse_pixel(px, f"frames[{i}].players[{j}].joints_px[{name!r}]")


def _read_frames(frames: list) -> Tuple[np.ndarray, Dict[str, np.ndarray],
                                        Dict[Tuple[int, str], Dict[str, Pixel]]]:
    """Ball and foot tracks and pose joints of a frame list, checked by column.

    The column checks only decide whether the whole list is valid. When one
    fails, ``_check_frame`` runs over the frames in order and raises the
    message a frame-by-frame reader would raise first.
    """
    try:
        return _read_columns(frames)
    except ValidationError:
        for i, fr in enumerate(frames):
            _check_frame(i, fr)
        raise AssertionError("a column check failed but every frame passed its own checks")


def _read_columns(frames: list):
    """``_read_frames`` for a valid frame list; any malformed value raises ``ValidationError``.

    Each check runs over a whole column, and only once every check before it
    has passed on every frame.
    """
    n = len(frames)
    _check(_all_are(frames, dict))
    index = list(map(dict.get, frames, repeat("index")))
    _check(index == list(range(n)) and _all_are(index, int))
    ball_at, ball_rows = _pixel_column(list(map(dict.get, frames, repeat("ball_px"))))
    players = list(map(dict.get, frames, repeat("players"), repeat([])))
    _check(_all_are(players, list))

    # one entry per listed player, in reading order; entry e sits in frame_of[e]
    frame_of = np.repeat(np.arange(n), list(map(len, players)))
    entries = list(chain.from_iterable(players))
    _check(_all_are(entries, dict))
    ids = list(map(dict.get, entries, repeat("id")))
    _check(_all_are(ids, str) and all(ids))
    code = {pid: c for c, pid in enumerate(dict.fromkeys(ids))}  # first-appearance order
    codes = np.fromiter(map(code.__getitem__, ids), np.int64, len(ids))
    pairs = frame_of * len(code) + codes  # one number per (frame, id)
    # no pair twice; a plain np.unique hashes, which is slower here, and
    # imports numpy.ma on its first call (~15 ms of cold start)
    _check(np.diff(np.sort(pairs)).all())
    foot_at, foot_rows = _pixel_column(list(map(dict.get, entries, repeat("foot_px"))))

    joints: Dict[Tuple[int, str], Dict[str, Pixel]] = {}
    raw = list(map(dict.get, entries, repeat("joints_px")))
    for e in compress(range(len(raw)), map(is_not, raw, repeat(None))):
        _check(isinstance(raw[e], dict))
        joints[int(frame_of[e]), ids[e]] = {name: _parse_pixel(px, "")
                                            for name, px in raw[e].items() if px is not None}

    ball = np.full((n, 2), np.nan)
    ball[ball_at] = ball_rows
    feet = {}
    foot_codes = codes[foot_at]
    for pid, c in code.items():
        mine = foot_codes == c
        track = feet[pid] = np.full((n, 2), np.nan)
        track[frame_of[foot_at[mine]]] = foot_rows[mine]
    return ball, feet, joints


def clip_from_dict(obj: dict) -> Clip:
    """Build and validate a Clip from a parsed JSON object."""
    _expect(isinstance(obj, dict), "clip document must be a JSON object")
    for key in ("header", "frames", "events", "keyframe_annotations"):
        _expect(key in obj, f"clip document is missing the {key!r} field")

    head = obj["header"]
    _expect(isinstance(head, dict), "header must be an object")
    for key in ("clip_id", "fps", "width", "height", "court_keypoints_px", "score_before"):
        _expect(key in head, f"header is missing the {key!r} field")

    _expect(isinstance(head["clip_id"], str), "header.clip_id must be a string")
    fps = head["fps"]
    _expect(is_finite_number(fps) and fps > 0,
            "header.fps must be a positive number")
    width, height = head["width"], head["height"]
    for name, v in (("width", width), ("height", height)):
        _expect(_is_int(v) and v > 0, f"header.{name} must be a positive integer")

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
    ball, feet, joints = _read_frames(frames_raw)

    events_raw = obj["events"]
    _expect(isinstance(events_raw, list), "events must be a list")
    events: List[EventAnnotation] = []
    kinds = {k.value: k for k in EventKind}
    for i, ev in enumerate(events_raw):
        _expect(isinstance(ev, dict), f"events[{i}] must be an object")
        frame = ev.get("frame")
        _expect(_is_int(frame) and 0 <= frame < n,
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

    # point spans must alternate Start/End and cover all in-play events; each
    # in-play event belongs to the point whose PointStart it follows
    spans: List[Tuple[int, int, List[EventAnnotation]]] = []
    open_start = None
    in_play: List[EventAnnotation] = []
    for e in events:
        if e.kind is EventKind.POINT_START:
            _expect(open_start is None, "PointStart before the previous point ended")
            open_start = e.frame
            in_play = []
        elif e.kind is EventKind.POINT_END:
            _expect(open_start is not None and open_start <= e.frame,
                    "PointEnd without a preceding PointStart")
            spans.append((open_start, e.frame, in_play))
            open_start = None
        else:
            _expect(open_start is not None, f"{e.kind.value} event at frame {e.frame} is outside any point span")
            in_play.append(e)
    _expect(open_start is None, "the final point never ended (missing PointEnd)")
    _expect(len(outcomes) == len(spans),
            f"point outcomes: the header lists {len(outcomes)}, the clip has {len(spans)} points")
    points = tuple(ClipPoint(start_frame=start, end_frame=end, outcome=outcome, events=tuple(evs))
                   for (start, end, evs), outcome in zip(spans, outcomes))

    annos_raw = obj["keyframe_annotations"]
    _expect(isinstance(annos_raw, list), "keyframe_annotations must be a list")
    by_frame: Dict[int, KeyframeAnnotation] = {}
    spins = {s.value: s for s in SpinType}
    for i, an in enumerate(annos_raw):
        _expect(isinstance(an, dict), f"keyframe_annotations[{i}] must be an object")
        frame = an.get("frame")
        _expect(_is_int(frame) and 0 <= frame < n,
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
        clip_id=head["clip_id"],
        fps=float(fps),
        width=width,
        height=height,
        court_keypoints_px=keypoints,
        score_before=score,
    )
    return Clip(header=header, ball_px=ball, foot_px=feet, joints_px=joints, events=tuple(events),
                keyframe_annotations=by_frame, points=points)


def load_json(text: str, what: str = "JSON"):
    """Decode one JSON document, raising ParseError with the error's position."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid {what}: {e.msg}", line=e.lineno, column=e.colno) from None
    except ValueError as e:  # an integer literal of more digits than int() accepts
        raise ParseError(f"invalid {what}: {e}") from None


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
