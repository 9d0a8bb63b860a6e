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

Every other record of the clip (the header with its score state, rules and
point outcomes, each event and each keyframe annotation) is read through its
field list, built from the codecs in ``fields`` that the scene and the truth
document read with too. A bad value raises ``ValidationError`` naming its
path, as in ``header.score_before.rules.best_of must be an integer, got 3.0``
or ``events[2].player_id must be a string, got ['p1']``; a rule of one record
is checked by its constructor and named at the record's path. ``clip_from_dict``
checks only the rules that span records: event and annotation frames inside
the frame list, players that appear in it, event order, point spans, one
outcome per point and a spin annotation at every Contact.

The clip also keeps its events grouped by point: ``Clip.points`` holds one
``ClipPoint`` per PointStart/PointEnd pair, with that point's outcome and its
Contact, Bounce and NetCord events in listing order. The reader is the only
code that decides which point an event belongs to; every per-point stage
reads this grouping. The header must list one outcome per point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, repeat
from operator import is_not
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .court import reference_keypoints
from .errors import CalibrationError, ParseError, RallyForgeError, ValidationError
from .fields import (INTEGER, NUMBER, STRING, Codec, Malformed, bad, collector_paused,
                     defaulted, enum_of, field_list, floats, is_finite_number, list_of, located,
                     one_of, optional, read_fields, record)
from .projection import Correspondence, Homography, estimate_homography, reprojection_error
from .scoring import SCORE_STATE, ScoreState

CALIBRATION_GATE_MEDIAN_PX = 5.0

# The frame rates a clip, and the simulator, may have. Below one frame a
# second the export grid outgrows the clip (a 603-frame clip at 0.5 fps
# writes an 18 MB scene, 36 times its size at 25 fps, and near 1e-300
# np.arange overflows); at 1e6 fps the camera planner fails on its short
# points.
FPS_RANGE = (1.0, 1e5)

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
    how: str  # one of OUTCOME_KINDS


# a point's outcome in the clip header, the truth document and the scene
OUTCOME = record(PointOutcome, field_list(winner=STRING,
                                          how=one_of(dict(zip(OUTCOME_KINDS, OUTCOME_KINDS)))))


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

    def __post_init__(self):
        if self.height_m is not None and not self.height_m >= 0:
            raise ValidationError(f"height_m must be >= 0, got {self.height_m!r}")


def check_fps(fps: float, error: type) -> None:
    """Raise ``error`` unless ``fps`` lies in ``FPS_RANGE`` (NaN does not)."""
    low, high = FPS_RANGE
    if not low <= fps <= high:
        raise error(f"fps must lie in [{low:g}, {high:g}], got {fps!r}")


@dataclass(frozen=True)
class ClipHeader:
    clip_id: str
    fps: float
    width: int
    height: int
    court_keypoints_px: Tuple[Optional[Pixel], ...]
    score_before: ScoreState
    point_outcomes: Tuple[PointOutcome, ...]  # one per point, in order

    def __post_init__(self):
        check_fps(self.fps, ValidationError)
        for name in ("width", "height"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)!r}")
        if len(self.court_keypoints_px) != 14:
            raise ValidationError(f"court_keypoints_px must list exactly 14 entries, "
                                  f"got {len(self.court_keypoints_px)}")
        for o in self.point_outcomes:
            if o.winner not in self.score_before.players:
                raise ValidationError(f"outcome winner {o.winner!r} is not a match player")


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


class _BadColumn(ValidationError):
    """A column check failed; ``_check_frame`` finds the frame and words the message."""


def _check(cond: bool) -> None:
    if not cond:
        raise _BadColumn


def _all_are(values: list, t: type) -> bool:
    """Whether every value is a ``t`` and none a ``bool``; exact ``t`` values are checked as one set."""
    types = set(map(type, values))
    return types <= {t} or (bool not in types and all(isinstance(v, t) for v in values))


def _pixel_column(values: list) -> Tuple[np.ndarray, np.ndarray]:
    """The positions and ``(k, 2)`` float rows of the present pixels of a column.

    ``null`` is absent. Exact ``list``/``tuple`` pixels of exact
    ``int``/``float`` coordinates convert in one ``np.fromiter`` pass; anything
    else goes through ``_parse_pixel`` one pixel at a time. Raises
    ``ValidationError`` if any pixel is malformed.
    """
    present = np.fromiter(map(is_not, values, repeat(None)), bool, len(values))
    pts = list(compress(values, present))
    if (set(map(type, pts)) <= {list, tuple} and set(map(len, pts)) <= {2}
            and set(map(type, chain.from_iterable(pts))) <= {int, float}):
        try:
            rows = np.fromiter(chain.from_iterable(pts), float, 2 * len(pts)).reshape(-1, 2)
        except OverflowError:  # an integer too large for a float
            raise _BadColumn from None
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


def _header(point_outcome: Optional[PointOutcome] = None,
            point_outcomes: Optional[Tuple[PointOutcome, ...]] = None, **fields) -> ClipHeader:
    """A ClipHeader whose outcomes are ``point_outcomes``, or else the one ``point_outcome``."""
    if point_outcomes is None:
        point_outcomes = () if point_outcome is None else (point_outcome,)
    if not point_outcomes:
        raise Malformed("needs point_outcome or point_outcomes")
    return ClipHeader(point_outcomes=point_outcomes, **fields)


def _frame_list(frames):
    """``_read_frames`` of a non-empty list; its own errors name the frame."""
    if type(frames) is not list or not frames:
        raise bad("a non-empty list", frames)
    return _read_frames(frames)


_HEADER = record(_header, field_list(
    clip_id=STRING, fps=NUMBER, width=INTEGER, height=INTEGER,
    court_keypoints_px=list_of(optional(floats(2, "[u, v] of finite numbers"))),
    score_before=SCORE_STATE, point_outcome=defaulted(optional(OUTCOME)),
    point_outcomes=defaulted(optional(list_of(OUTCOME)))))
_EVENT = record(EventAnnotation, field_list(
    frame=INTEGER, kind=enum_of(EventKind), player_id=defaulted(optional(STRING))))
_ANNOTATION = record(KeyframeAnnotation, field_list(
    frame=INTEGER, height_m=defaulted(optional(NUMBER)),
    spin=defaulted(optional(enum_of(SpinType)))))
# read only: the simulator writes clips, and nothing writes the frames back
_CLIP = field_list(header=_HEADER, frames=Codec(None, _frame_list), events=list_of(_EVENT),
                   keyframe_annotations=list_of(_ANNOTATION))


def clip_from_dict(obj) -> Clip:
    """Build and validate a Clip from a parsed JSON object.

    Each record is read through its field list, the frames through
    ``_read_frames``; what is checked here are the rules that span records.
    """
    try:
        doc = read_fields(_CLIP, obj)
    except Malformed as e:
        raise ValidationError(located(e, "clip document")) from None
    header = doc["header"]
    ball, feet, joints = doc["frames"]
    n = len(ball)

    events = doc["events"]
    for i, e in enumerate(events):
        if not 0 <= e.frame < n:
            raise ValidationError(f"events[{i}].frame must be an integer in [0, {n})")
        if e.kind is EventKind.CONTACT and e.player_id not in feet:
            raise ValidationError(
                f"events[{i}]: Contact events need a player_id present in the clip")
        if e.player_id is not None and e.player_id not in feet:
            raise ValidationError(f"events[{i}].player_id {e.player_id!r} never appears in frames")
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
    outcomes = header.point_outcomes
    _expect(len(outcomes) == len(spans),
            f"point outcomes: the header lists {len(outcomes)}, the clip has {len(spans)} points")
    points = tuple(ClipPoint(start_frame=start, end_frame=end, outcome=outcome, events=tuple(evs))
                   for (start, end, evs), outcome in zip(spans, outcomes))

    by_frame: Dict[int, KeyframeAnnotation] = {}
    for i, an in enumerate(doc["keyframe_annotations"]):
        if not 0 <= an.frame < n:
            raise ValidationError(f"keyframe_annotations[{i}].frame must be an integer in [0, {n})")
        _expect(an.frame not in by_frame, f"duplicate keyframe annotation for frame {an.frame}")
        by_frame[an.frame] = an

    for e in events:
        if e.kind is EventKind.CONTACT:
            anno = by_frame.get(e.frame)
            _expect(anno is not None and anno.spin is not None,
                    f"Contact at frame {e.frame} needs a keyframe annotation with spin")

    return Clip(header=header, ball_px=ball, foot_px=feet, joints_px=joints, events=events,
                keyframe_annotations=by_frame, points=points)


def load_json(text: str, what: str = "JSON"):
    """Decode one JSON document, raising ParseError with the error's position."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid {what}: {e.msg}", line=e.lineno, column=e.colno) from None
    # an integer literal of more digits than int() accepts, or nesting deeper
    # than the decoder's recursion limit
    except (ValueError, RecursionError) as e:
        raise ParseError(f"invalid {what}: {e}") from None


@collector_paused
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
    present = ~(np.isnan(pixels[:, 0]) | np.isnan(pixels[:, 1]))
    uv1 = np.ones((np.count_nonzero(present), 3))
    uv1[:, :2] = pixels[present]
    world = uv1 @ minv.T
    w = world[:, 2]
    if np.any(np.abs(w) <= 1e-12):
        raise CalibrationError("a tracked sample unprojects to infinity under this calibration")
    out[present] = world[:, :2] / w[:, None]
    return out


def to_court_space(clip: Clip) -> CourtTracks:
    """Calibrate from the header keypoints and lift all pixel tracks to the court plane.

    Raises CalibrationError when fewer than four keypoints are present, when
    the keypoint layout is degenerate, or when the median reprojection error
    exceeds ``CALIBRATION_GATE_MEDIAN_PX``.
    """
    refs = reference_keypoints()
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
    if report["median_px"] > CALIBRATION_GATE_MEDIAN_PX:
        raise CalibrationError(
            f"median reprojection error {report['median_px']:.2f} px exceeds the "
            f"{CALIBRATION_GATE_MEDIAN_PX:.2f} px calibration gate",
            report=report,
        )

    # the ball's rows, then each player's, lifted in one pass
    n = clip.n_frames
    lifted = _lift_series(np.linalg.inv(h.matrix),
                          np.vstack([clip.ball_px, *clip.foot_px.values()]))
    players = {pid: lifted[n * (i + 1):n * (i + 2)] for i, pid in enumerate(clip.foot_px)}
    return CourtTracks(homography=h, calibration=report, fps=clip.header.fps,
                       ball=lifted[:n], players=players)
