"""Scene timeline document: the renderer hand-off boundary.

A SceneTimeline bundles everything a playback client needs: densely sampled
3D entity tracks on one shared clock, the compiled camera timeline with its
slow-motion windows, the overlay cue track, per-point zone metrics snapshots,
and the score timeline. The document serializes to JSON and parses back
losslessly, so reconstruction outputs can be diffed byte for byte: the
scene bytes equal ``json.dumps(scene.to_dict(), indent=2, sort_keys=True)``
plus a trailing newline.

Each record lists its fields once (JSON key, attribute, codec) at the end of
this module, from the codecs in ``fields``; ``to_dict``, ``serialize_scene``
and ``parse_scene`` all walk those lists. Zone metrics are the record
``scene_metrics.ZONE_METRICS``; score states and point outcomes read through
the clip header's codecs, ``scoring.SCORE_STATE`` and ``ingest.OUTCOME``. The
reader checks every JSON type: numbers are finite and never bools or strings,
indices are integers, flags are booleans, enums hold one of their names, spans
are ``[start, end]``, court points ``[x, y, z]``. A camera
``look_at``, shot ``target`` or cue ``anchor`` is an entity name or a court
point; a cue ``payload`` or shot ``motion_params`` is an object, kept as read.
A track's samples are one array: its rows are lists of one length and their
values ints or floats (never bools), each checked by type all at once. A
camera's keyframes are read the same way, a column at a time, and every
check runs over a whole column at once; when one fails, the per-keyframe
codec words the error of the first bad keyframe. An entity that a keyframe
``look_at``, a shot ``target`` or a cue ``anchor`` names must have a track. A
track's ``entity_id`` or a snapshot's ``window`` equals its key. Track
``t_start``, court ``net_y_m``/``ground_z_m``, camera ``shots``, shot
``target``/``source_span``/``slow_motion``/``motion_params`` and cue
``anchor``/``payload`` may be left out. Every track's ``rate_hz`` equals
``sample_rate_hz``, ``points[i].index`` is ``i``, and each point has
``t_start <= trajectory_span[0] <= trajectory_span[1] <= t_end``; each score
state is one that ``scoring.advance_score`` can reach. A bad value raises
``ValidationError`` naming its path, as in ``malformed scene document:
camera.keyframes[12].t must be a finite number, got '0'``; so does a rule the
document breaks as a whole, such as a camera that does not cover the scene
span.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Dict, List, Tuple

import numpy as np

from .cinematography import (
    EASINGS,
    CameraAnchor,
    CameraKeyframe,
    CameraKeyframes,
    CameraMotion,
    CameraTimeline,
    CompiledShot,
    Easing,
    ShotSize,
    ShotSpec,
    WarpWindow,
)
from .court import CourtModel, CourtPoint
from .errors import ValidationError
from .fields import (BOOL, INTEGER, NUMBER, OBJECT, PLACE, POINT, SPAN, STRING, Codec, bad,
                     collector_paused, defaulted, enum_of, field_list, keyed_by, list_of,
                     optional, read_document, record, write_fields)
from .ingest import OUTCOME, PointOutcome, load_json
from .scene_metrics import ZONE_METRICS, MetricsWindow, ZoneMetrics
from .scoring import SCORE_STATE, ScoreState
from .viz_cues import CueKind, VizCue

SCENE_FORMAT = "rallyforge-scene/1"


# ============================================================
# Sampled tracks
# ============================================================


def _lerp(a: np.ndarray, b: np.ndarray, u):
    """From sample rows ``a`` towards ``b`` by the fraction ``u``."""
    return a + (b - a) * u


@dataclass(frozen=True)
class SampledTrack:
    """One entity's 3D positions on a uniform clock starting at t_start."""

    entity_id: str
    rate_hz: float
    samples: np.ndarray  # (n, 3)
    t_start: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3 or len(arr) < 2:
            raise ValidationError(
                f"track {self.entity_id!r} needs at least two (x, y, z) samples")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"track {self.entity_id!r} contains non-finite samples")
        if not (math.isfinite(self.rate_hz) and self.rate_hz > 0):
            raise ValidationError("sample rate must be positive")
        object.__setattr__(self, "samples", arr)

    @property
    def t_end(self) -> float:
        return self.t_start + (len(self.samples) - 1) / self.rate_hz

    def position_at(self, t: float) -> CourtPoint:
        """Linear interpolation between samples; clamped at the track ends."""
        f = (t - self.t_start) * self.rate_hz
        last = len(self.samples) - 1
        if f <= 0.0:
            row = self.samples[0]
        elif f >= last:
            row = self.samples[last]
        else:
            i = int(f)
            row = _lerp(self.samples[i], self.samples[i + 1], f - i)
        return CourtPoint(*row.tolist())

    def positions_at(self, ts) -> np.ndarray:
        """(n, 3) positions at the times ``ts``; equal to ``position_at`` bit for bit."""
        f = (np.asarray(ts, dtype=float) - self.t_start) * self.rate_hz
        last = len(self.samples) - 1
        i = np.clip(f, 0, last - 1).astype(int)
        out = _lerp(self.samples[i], self.samples[i + 1], (f - i)[:, None])
        out[f <= 0.0] = self.samples[0]
        out[f >= last] = self.samples[last]
        return out


# ============================================================
# The document
# ============================================================


@dataclass(frozen=True)
class ScenePoint:
    """One played point: spans, outcome, and its zone-metrics snapshots."""

    index: int
    t_start: float
    t_end: float
    trajectory_span: Tuple[float, float]
    outcome: PointOutcome
    score_before: ScoreState
    metrics: Dict[MetricsWindow, ZoneMetrics]


class EntityTracks:
    """Entity positions by name and time over a set of sampled tracks.

    The pipeline compiles the camera against this before the scene exists;
    SceneTimeline inherits the same lookup.
    """

    def __init__(self, tracks: Dict[str, SampledTrack]):
        self.tracks = tracks

    def _track(self, name: str) -> SampledTrack:
        track = self.tracks.get(name)
        if track is None:
            raise ValidationError(f"scene has no entity {name!r}")
        return track

    def entity_position(self, name: str, t: float) -> CourtPoint:
        return self._track(name).position_at(t)

    def entity_positions(self, name: str, ts) -> np.ndarray:
        """(n, 3) positions at the times ``ts``; ``entity_position`` bit for bit."""
        return self._track(name).positions_at(ts)


@dataclass(frozen=True)
class SceneTimeline(EntityTracks):
    """Everything a renderer needs to play one reconstructed clip."""

    court: CourtModel
    fps: float
    sample_rate_hz: float
    tracks: Dict[str, SampledTrack]
    camera: CameraTimeline
    cues: Tuple[VizCue, ...]
    points: Tuple[ScenePoint, ...]
    score_timeline: Tuple[ScoreState, ...]

    def __post_init__(self):
        for name in ("fps", "sample_rate_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"scene {name} must be positive and finite, got {value!r}")
        if not self.tracks:
            raise ValidationError("a scene needs at least one entity track")
        ends = {round(tr.t_end, 9) for tr in self.tracks.values()}
        starts = {tr.t_start for tr in self.tracks.values()}
        rates = {tr.rate_hz for tr in self.tracks.values()}
        if len(ends) > 1 or len(starts) > 1 or len(rates) > 1:
            raise ValidationError("all entity tracks must share one time base")
        if rates != {self.sample_rate_hz}:
            raise ValidationError(f"the tracks' rate_hz {rates.pop()!r} differs from "
                                  f"sample_rate_hz {self.sample_rate_hz!r}")
        t0, t1 = self.span
        if not (t1 > t0):
            raise ValidationError("scene span must have positive length")
        if abs(self.camera.t_start - t0) > 1e-9 or abs(self.camera.t_end - t1) > 1e-9:
            raise ValidationError("camera timeline must cover exactly the scene span")
        # every entity a cue, keyframe or shot names, the first unknown one reported
        named = (("cue anchored to", [cue.anchor for cue in self.cues]),
                 ("camera keyframe targets", self.camera.keyframes.names),
                 ("camera shot targets", [shot.spec.target for shot in self.camera.shots]))
        for what, names in named:
            unknown = [name for name in names if type(name) is str and name not in self.tracks]
            if unknown:
                raise ValidationError(f"{what} unknown entity {unknown[0]!r}")
        for i, p in enumerate(self.points):
            if p.index != i:
                raise ValidationError(f"points[{i}].index must be {i}, got {p.index!r}")
            if not p.t_start <= p.trajectory_span[0] <= p.trajectory_span[1] <= p.t_end:
                raise ValidationError(
                    f"point {i} needs t_start <= trajectory_span[0] <= trajectory_span[1] "
                    f"<= t_end, got {p.t_start!r}, {list(p.trajectory_span)}, {p.t_end!r}")
            if p.t_start < t0 - 1e-9 or p.t_end > t1 + 1e-9:
                raise ValidationError(f"point {i} lies outside the scene span")
        if len(self.score_timeline) != len(self.points) + 1:
            raise ValidationError(
                "score timeline must hold one state per point plus the final state")

    # ---- queries ----

    @property
    def span(self) -> Tuple[float, float]:
        any_track = next(iter(self.tracks.values()))
        return (any_track.t_start, any_track.t_end)

    def point_spans(self) -> List[Tuple[float, float]]:
        return [(p.t_start, p.t_end) for p in self.points]

    # ---- serialization ----

    def to_dict(self) -> dict:
        """The document ``serialize_scene`` writes, with each track's samples as lists
        and each camera keyframe as an object."""
        doc = self._document()
        for track in doc["tracks"].values():
            track["samples"] = track["samples"].rows.tolist()
        doc["camera"]["keyframes"] = _KEYFRAMES.write(doc["camera"]["keyframes"])
        return doc

    def _document(self) -> dict:
        return dict(write_fields(_SCENE, self), format=SCENE_FORMAT)

    @staticmethod
    def from_dict(obj) -> "SceneTimeline":
        if not isinstance(obj, dict):
            raise ValidationError("scene document must be an object")
        if obj.get("format") != SCENE_FORMAT:
            raise ValidationError(
                f"unsupported scene format {obj.get('format')!r}; expected {SCENE_FORMAT!r}")
        return read_document("scene document", SceneTimeline, _SCENE, obj)


# ============================================================
# The records of rallyforge-scene/1
# ============================================================


class _BadColumn(Exception):
    """A column of JSON values failed its check."""


def _numbers(values) -> np.ndarray:
    """A column of JSON numbers, all checked by type at once, as floats."""
    if not set(map(type, values)) <= {float, int}:  # a bool is neither
        raise _BadColumn
    try:
        return np.fromiter(values, float, len(values))
    except OverflowError:  # an integer too large for a float
        raise _BadColumn from None


def _read_samples(value) -> np.ndarray:
    """One array per track: the rows, then all their numbers, checked by type at once."""
    if not (type(value) is list and set(map(type, value)) <= {list}
            and len(set(map(len, value))) <= 1):
        raise bad("rows of numbers", value)
    try:
        flat = _numbers(list(chain.from_iterable(value)))
    except _BadColumn:
        raise bad("rows of numbers", value) from None
    return flat.reshape(len(value), len(value[0]) if value else 0)


@dataclass(frozen=True)
class _Samples:
    """A track's samples, finite by construction: written from one row template,
    filled once per run of bit-identical rows."""
    rows: np.ndarray


SAMPLES = Codec(_Samples, _read_samples)


# each court key is its attribute's name plus the unit suffix "_m"
_COURT = record(CourtModel, field_list(
    "_m", length=NUMBER, singles_half_width=NUMBER, doubles_half_width=NUMBER,
    service_line_y=NUMBER, net_y=defaulted(NUMBER), net_cord_height=NUMBER,
    ground_z=defaulted(NUMBER)))
_TRACK = record(SampledTrack, field_list(entity_id=STRING, rate_hz=NUMBER,
                                         t_start=defaulted(NUMBER), samples=SAMPLES))
_KEYFRAME = record(CameraKeyframe, field_list(t=NUMBER, position=POINT, look_at=PLACE,
                                              fov_deg=NUMBER, easing=enum_of(Easing)))
_WARP = record(WarpWindow, field_list(t_start=NUMBER, t_end=NUMBER, factor=NUMBER))
_SOURCE_SPAN = defaulted(optional(SPAN))
_SPEC = record(ShotSpec, field_list(
    t_start=NUMBER, duration=NUMBER, size=enum_of(ShotSize), anchor=enum_of(CameraAnchor),
    motion=enum_of(CameraMotion), purpose=STRING, point_index=INTEGER,
    target=defaulted(optional(PLACE)), source_span=_SOURCE_SPAN,
    slow_motion=defaulted(BOOL), motion_params=defaulted(OBJECT)))
_SHOT = record(CompiledShot, field_list(spec=_SPEC, t_start=NUMBER, t_end=NUMBER,
                                        source_span=_SOURCE_SPAN))
_KEYFRAMES = list_of(_KEYFRAME)


def _points(values) -> np.ndarray:
    """A column of JSON court points, ``[x, y, z]`` each, as an (n, 3) array."""
    if not (set(map(type, values)) <= {list} and set(map(len, values)) <= {3}):
        raise _BadColumn
    return _numbers(list(chain.from_iterable(values))).reshape(-1, 3)


_KEYFRAME_KEYS = itemgetter("t", "position", "look_at", "fov_deg", "easing")
_EASING_CODES = {e.value: code for code, e in enumerate(EASINGS)}


def _keyframe_columns(values) -> CameraKeyframes:
    """``_read_keyframes`` for a valid keyframe list; anything else raises."""
    if not (type(values) is list and set(map(type, values)) <= {dict}):
        raise _BadColumn
    rows = list(map(_KEYFRAME_KEYS, values))
    t, position, look_at, fov_deg, easing = zip(*rows) if rows else [()] * 5
    easing = tuple(map(_EASING_CODES.get, easing)) if set(map(type, easing)) <= {str} else (None,)
    if None in easing or not set(map(type, look_at)) <= {str, list}:
        raise _BadColumn
    names: Dict[str, int] = {}
    codes = np.array([names.setdefault(v, len(names)) if type(v) is str else -1
                      for v in look_at], np.intp)
    points = np.zeros((len(rows), 3))
    points[codes < 0] = _points([v for v in look_at if type(v) is list])
    return CameraKeyframes(t=_numbers(t), position=_points(position),
                           fov_deg=_numbers(fov_deg), easing=np.array(easing, np.intp),
                           look_at=codes, look_at_point=points, names=tuple(names))


def _read_keyframes(values) -> CameraKeyframes:
    """A camera's keyframes, read and checked a column at a time.

    The column checks only decide whether the whole list is valid. When one
    fails, the per-keyframe codec reads the list in order and raises the
    error of the first keyframe it rejects.
    """
    try:
        return _keyframe_columns(values)
    except (_BadColumn, KeyError, ValidationError):
        _KEYFRAMES.read(values)
        raise AssertionError("a keyframe column check failed but every keyframe passed its own")


_CAMERA = record(CameraTimeline, field_list(
    t_start=NUMBER, t_end=NUMBER, keyframes=Codec(lambda keyframes: keyframes, _read_keyframes),
    time_warp=list_of(_WARP),
    shots=defaulted(list_of(_SHOT))))
_CUE = record(VizCue, field_list(kind=enum_of(CueKind), t_start=NUMBER, t_end=NUMBER,
                                 anchor=defaulted(optional(PLACE)), payload=defaulted(OBJECT)))
_POINT = record(ScenePoint, field_list(
    index=INTEGER, t_start=NUMBER, t_end=NUMBER, trajectory_span=SPAN,
    outcome=OUTCOME, score_before=SCORE_STATE,
    metrics=keyed_by("window", ZONE_METRICS, attrgetter("value"))))
# the document itself, less its "format" tag
_SCENE = field_list(court=_COURT, fps=NUMBER, sample_rate_hz=NUMBER,
                    tracks=keyed_by("entity_id", _TRACK), camera=_CAMERA, cues=list_of(_CUE),
                    points=list_of(_POINT), score_timeline=list_of(SCORE_STATE))


# ============================================================
# Text
# ============================================================

# serialize_scene writes what json.dumps(indent=2, sort_keys=True) writes, in
# one pass, with json's own string encoder, float.__repr__, int.__repr__ and
# type-test order (str, bool, int, float; so IntEnum is an int). A list of
# finite floats is one join. A track's samples fill one row template, once for
# each run of bit-identical rows: a player held by the deadband and the ball
# held between points make runs, and on an 80-point clip 58% of rows start one.
# A camera's keyframes are columns of finite numbers, so every row fills the
# row template of its easing and look_at, straight from the columns. Any other
# list is written once per call and indent: a list met again, such as a point's
# shot polyline that every later trajectory map lists, reuses its first text.
_encode_str = json.encoder.encode_basestring_ascii


def _key_text(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return '"' + json.dumps(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _literal(text: str) -> str:
    """``text`` as a JSON string inside a %-template."""
    return _encode_str(text).replace("%", "%%")


def _keyframes_text(keyframes: CameraKeyframes, nl: str) -> str:
    """The text of a camera's keyframe list (a timeline holds at least one): each
    row fills the template of its easing and look_at, and all rows are
    formatted by one ``%``."""
    inner = nl + "  "
    field = inner + "  "
    item = field + "  "
    xyz = "[" + item + "%r," + item + "%r," + item + "%r" + field + "]"
    tail = "," + field + '"position": ' + xyz + "," + field + '"t": %r' + inner + "}"
    # one row per easing and look_at: a court point (code -1), then each name
    looks = [xyz] + [_literal(name) for name in keyframes.names]
    templates = np.array([
        "," + inner + "{" + field + '"easing": ' + _literal(easing.value) + "," + field
        + '"fov_deg": %r,' + field + '"look_at": ' + look + tail
        for easing in EASINGS for look in looks], dtype=object)
    rows = templates[keyframes.easing * len(looks) + keyframes.look_at + 1]
    # each row's numbers in template order; a row that looks at a name has no point
    numbers = np.column_stack([keyframes.fov_deg, keyframes.look_at_point, keyframes.position,
                               keyframes.t])
    used = np.ones(numbers.shape, bool)
    used[keyframes.look_at >= 0, 1:4] = False
    # each row opens with its separator: the first's "," becomes the list's "["
    return "[" + "".join(rows.tolist())[1:] % tuple(numbers[used].tolist()) + nl + "]"


def _emit(value, nl: str, out: List[str], memo: dict) -> None:
    """Append the text of ``value`` to ``out``; ``nl`` is "\\n" plus its line's indent.

    ``memo`` maps (id, ``nl``) of each list written item by item to the list,
    which it keeps alive so that its id stays its own, and to the slice of
    ``out`` that holds its text, joined into one string once it is met again.
    """
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(text if "n" not in text else json.dumps(value))  # NaN, Infinity
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        try:
            text = ("," + inner).join(map(float.__repr__, value))
        except TypeError:  # an item that is not a float: write item by item
            text = "n"
        if "n" not in text:  # of float.__repr__'s spellings, only nan and inf hold an n
            out.append("[" + inner + text + nl + "]")
            return
        key = (id(value), nl)
        if key in memo:
            kept, text = memo[key]
            if type(text) is slice:
                text = "".join(out[text])
                memo[key] = (kept, text)
            out.append(text)
            return
        start = len(out)
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _emit(item, inner, out, memo)
        out.append(nl + "]")
        memo[key] = (value, slice(start, len(out)))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + _key_text(key) + ": ")
            sep = "," + inner
            _emit(item, inner, out, memo)
        out.append(nl + "}")
    elif type(value) is _Samples:
        inner = nl + "  "
        rows = value.rows
        row = "[" + ",".join([inner + "  %r"] * rows.shape[1]) + inner + "]"
        # a row starts a run when a bit differs from the row before: 0.0 and -0.0 do
        bits = rows.view(np.int64)
        new = np.ones(len(rows), bool)
        new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        fresh = rows[new]
        # "\0" is in neither the template nor a float's repr
        texts = ("\0".join([row] * len(fresh)) % tuple(fresh.ravel().tolist())).split("\0")
        row_texts = np.array(texts, dtype=object)[np.cumsum(new) - 1]
        out.append("[" + inner + ("," + inner).join(row_texts.tolist()) + nl + "]")
    elif type(value) is CameraKeyframes:
        out.append(_keyframes_text(value, nl))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def serialize_scene(scene: SceneTimeline) -> str:
    """The bytes of ``json.dumps(scene.to_dict(), indent=2, sort_keys=True) + "\\n"``."""
    out: List[str] = []
    _emit(scene._document(), "\n", out, {})
    out.append("\n")
    return "".join(out)


@collector_paused
def parse_scene(text: str) -> SceneTimeline:
    """Parse a scene JSON document. Raises ParseError (with position) or ValidationError."""
    return SceneTimeline.from_dict(load_json(text, "scene JSON"))
