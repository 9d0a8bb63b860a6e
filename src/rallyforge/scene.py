"""Scene timeline document: the renderer hand-off boundary.

A SceneTimeline bundles everything a playback client needs: densely sampled
3D entity tracks on one shared clock, the compiled camera timeline with its
slow-motion windows, the overlay cue track, per-point zone metrics snapshots,
and the score timeline. The document serializes to JSON and parses back
losslessly, so reconstruction outputs can be diffed byte for byte: the
scene bytes equal ``json.dumps(scene.to_dict(), indent=2, sort_keys=True)``
plus a trailing newline.

Each record lists its fields once (JSON key, attribute, codec) at the end of
this module; ``to_dict``, ``serialize_scene`` and ``parse_scene`` all walk
those lists. Score states, point outcomes and zone metrics keep their own
JSON pair. The reader checks every JSON type: numbers are finite and never
bools or strings, indices are integers, flags are booleans, enums hold one of
their names, spans are ``[start, end]``, court points ``[x, y, z]``. A camera
``look_at``, shot ``target`` or cue ``anchor`` is an entity name or a court
point; a cue ``payload`` or shot ``motion_params`` is an object, kept as read.
A track's samples are one array checked by its type (so a ``true`` among
numbers reads as 1), and a track's ``entity_id`` or a snapshot's ``window``
equals its key. Track ``t_start``, court ``net_y_m``/``ground_z_m``, camera
``shots``, shot ``target``/``source_span``/``slow_motion``/``motion_params``
and cue ``anchor``/``payload`` may be left out. A bad value raises
``ValidationError`` naming its path, as in ``malformed scene document:
camera.keyframes[12].t must be a finite number, got '0'``.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from .cinematography import (
    CameraAnchor,
    CameraKeyframe,
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
from .ingest import PointOutcome, is_finite_number, load_json
from .scene_metrics import MetricsWindow, ZoneMetrics
from .scoring import ScoreState
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

    def entity_position(self, name: str, t: float) -> CourtPoint:
        track = self.tracks.get(name)
        if track is None:
            raise ValidationError(f"scene has no entity {name!r}")
        return track.position_at(t)


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
        t0, t1 = self.span
        if not (t1 > t0):
            raise ValidationError("scene span must have positive length")
        if abs(self.camera.t_start - t0) > 1e-9 or abs(self.camera.t_end - t1) > 1e-9:
            raise ValidationError("camera timeline must cover exactly the scene span")
        for cue in self.cues:
            if isinstance(cue.anchor, str) and cue.anchor not in self.tracks:
                raise ValidationError(f"cue anchored to unknown entity {cue.anchor!r}")
        for k in self.camera.keyframes:
            if isinstance(k.look_at, str) and k.look_at not in self.tracks:
                raise ValidationError(f"camera keyframe targets unknown entity {k.look_at!r}")
        for p in self.points:
            if p.t_start < t0 - 1e-9 or p.t_end > t1 + 1e-9:
                raise ValidationError(f"point {p.index} lies outside the scene span")
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
        """The document ``serialize_scene`` writes, with each track's samples as lists."""
        doc = self._document()
        for track in doc["tracks"].values():
            track["samples"] = track["samples"].rows.tolist()
        return doc

    def _document(self) -> dict:
        return dict(_write_fields(_SCENE, self), format=SCENE_FORMAT)

    @staticmethod
    def from_dict(obj) -> "SceneTimeline":
        if not isinstance(obj, dict):
            raise ValidationError("scene document must be an object")
        if obj.get("format") != SCENE_FORMAT:
            raise ValidationError(
                f"unsupported scene format {obj.get('format')!r}; expected {SCENE_FORMAT!r}")
        try:
            attributes = _read_fields(_SCENE, obj)
        except _Malformed as e:
            path = "".join(reversed(e.path))[1:]  # each path starts with ".key"
            raise ValidationError(f"malformed scene document: {path} {e}") from None
        return SceneTimeline(**attributes)


# ============================================================
# Field codecs
# ============================================================


class _Malformed(Exception):
    """A JSON value its codec rejects. ``path`` gains each key and index that
    holds the value, innermost first, as the exception passes up through the
    readers, so a path is built only for a value that fails."""

    def __init__(self, problem: str, *path: str):
        super().__init__(problem)
        self.path = list(path)


_short = reprlib.Repr()
_short.maxstring = _short.maxother = 40
_short.maxlist = 3


def _bad(expected: str, value, *path: str) -> _Malformed:
    return _Malformed(f"must be {expected}, got {_short.repr(value)}", *path)


class _Codec(NamedTuple):
    """How one field's value is written as JSON and read back."""

    write: Callable[[Any], Any]
    read: Callable[[Any], Any]  # raises _Malformed
    defaulted: bool = False  # the key may be left out; the attribute keeps its default


def _same(value):
    return value


def _exactly(kind: type, expected: str) -> _Codec:
    """A value of JSON type ``kind`` (a bool is not an int here), kept as read."""
    def read(value):
        if type(value) is not kind:
            raise _bad(expected, value)
        return value
    return _Codec(_same, read)


def _read_number(value) -> float:
    if not is_finite_number(value):
        raise _bad("a finite number", value)
    return float(value)


def _numbers(value, n: int, expected: str) -> list:
    if not (type(value) is list and len(value) == n and all(map(is_finite_number, value))):
        raise _bad(expected, value)
    return value


def _read_point(value, expected: str = "[x, y, z] of finite numbers") -> CourtPoint:
    if type(value) is list and len(value) == 3:  # most points: three floats, finite if their sum is
        x, y, z = value
        if type(x) is float and type(y) is float and type(z) is float and math.isfinite(x + y + z):
            return CourtPoint(x, y, z)
    return CourtPoint(*map(float, _numbers(value, 3, expected)))


def _enum(cls) -> _Codec:
    members = {m.value: m for m in cls}

    def read(value):
        if type(value) is not str or value not in members:
            raise _bad("one of " + ", ".join(members), value)
        return members[value]
    return _Codec(attrgetter("value"), read)


def _read_samples(value) -> np.ndarray:
    """One array per track, checked by its type rather than item by item."""
    try:
        rows = np.asarray(value)
    except ValueError:  # ragged rows
        rows = None
    if rows is None or rows.dtype.kind not in "fiu":
        raise _bad("rows of numbers", value)
    return rows


@dataclass(frozen=True)
class _Samples:
    """A track's samples, finite by construction: written from one row template."""
    rows: np.ndarray


NUMBER = _Codec(_same, _read_number)
INTEGER = _exactly(int, "an integer")
STRING = _exactly(str, "a string")
BOOL = _exactly(bool, "true or false")
OBJECT = _exactly(dict, "an object")  # cue payloads and motion_params, kept as read
SPAN = _Codec(list, lambda v: tuple(map(float, _numbers(v, 2, "[start, end] of finite numbers"))))
POINT = _Codec(lambda p: list(p.as_xyz()), _read_point)
# an entity name or a court point: camera look_at, shot target and cue anchor
PLACE = _Codec(lambda p: list(p.as_xyz()) if isinstance(p, CourtPoint) else p,
               lambda v: v if type(v) is str else _read_point(
                   v, "an entity name or [x, y, z] of finite numbers"))
SAMPLES = _Codec(_Samples, _read_samples)


def _defaulted(codec: _Codec) -> _Codec:
    return codec._replace(defaulted=True)


def _optional(codec: _Codec) -> _Codec:
    write, read = codec.write, codec.read
    return _Codec(lambda value: None if value is None else write(value),
                  lambda value: None if value is None else read(value))


def _list_of(codec: _Codec) -> _Codec:
    write, read = codec.write, codec.read

    def read_all(values) -> tuple:
        if type(values) is not list:
            raise _bad("a list", values)
        out = []
        for i, value in enumerate(values):
            try:
                out.append(read(value))
            except _Malformed as e:
                e.path.append(f"[{i}]")
                raise
        return tuple(out)
    return _Codec(lambda values: [write(v) for v in values], read_all)


def _keyed_by(attr: str, codec: _Codec, key: Callable = _same) -> _Codec:
    """An object holding each item under ``key`` of the item's own ``attr``."""
    write, read, get = codec.write, codec.read, attrgetter(attr)

    def read_all(obj) -> dict:
        if type(obj) is not dict:
            raise _bad("an object", obj)
        out = {}
        for name, value in obj.items():
            try:
                item = read(value)
                if key(get(item)) != name:
                    raise _bad(f"its key {name!r}", key(get(item)), "." + attr)
            except _Malformed as e:
                e.path.append(f"[{json.dumps(name)}]")
                raise
            out[get(item)] = item
        return out
    return _Codec(lambda items: {key(k): write(v) for k, v in items.items()}, read_all)


def _fields(suffix: str = "", **codecs: _Codec) -> tuple:
    """(JSON key, attribute, write, read, defaulted) per field; a key is its attribute + ``suffix``."""
    return tuple((attr + suffix, attr, *codec) for attr, codec in codecs.items())


def _write_fields(fields: tuple, obj) -> dict:
    return {key: write(getattr(obj, attr)) for key, attr, write, _, _ in fields}


def _read_fields(fields: tuple, obj) -> dict:
    if type(obj) is not dict:
        raise _bad("an object", obj)
    attributes = {}
    for key, attr, _, read, defaulted in fields:
        if key in obj:
            try:
                attributes[attr] = read(obj[key])
            except _Malformed as e:
                e.path.append("." + key)
                raise
        elif not defaulted:
            raise _Malformed("is missing", "." + key)
    return attributes


def _record(cls, suffix: str = "", **codecs: _Codec) -> _Codec:
    """A JSON object with one key per field, read into ``cls(**attributes)``."""
    fields = _fields(suffix, **codecs)

    def read(obj):
        attributes = _read_fields(fields, obj)
        try:
            return cls(**attributes)
        except ValidationError as e:
            raise _Malformed(f"is invalid: {e}") from None
    return _Codec(partial(_write_fields, fields), read)


def _own_json(cls) -> _Codec:
    """A type that keeps its own ``to_dict``/``from_dict`` pair, shared with other documents."""
    def read(value):
        try:
            return cls.from_dict(value)
        except ValidationError as e:
            raise _Malformed(f"is invalid: {e}") from None
    return _Codec(cls.to_dict, read)


# ============================================================
# The records of rallyforge-scene/1
# ============================================================

# each court key is its attribute's name plus the unit suffix "_m"
_COURT = _record(CourtModel, "_m", length=NUMBER, singles_half_width=NUMBER,
                 doubles_half_width=NUMBER, service_line_y=NUMBER, net_y=_defaulted(NUMBER),
                 net_cord_height=NUMBER, ground_z=_defaulted(NUMBER))
_TRACK = _record(SampledTrack, entity_id=STRING, rate_hz=NUMBER, t_start=_defaulted(NUMBER),
                 samples=SAMPLES)
_KEYFRAME = _record(CameraKeyframe, t=NUMBER, position=POINT, look_at=PLACE, fov_deg=NUMBER,
                    easing=_enum(Easing))
_WARP = _record(WarpWindow, t_start=NUMBER, t_end=NUMBER, factor=NUMBER)
_SOURCE_SPAN = _defaulted(_optional(SPAN))
_SPEC = _record(ShotSpec, t_start=NUMBER, duration=NUMBER, size=_enum(ShotSize),
                anchor=_enum(CameraAnchor), motion=_enum(CameraMotion), purpose=STRING,
                point_index=INTEGER, target=_defaulted(_optional(PLACE)),
                source_span=_SOURCE_SPAN, slow_motion=_defaulted(BOOL),
                motion_params=_defaulted(OBJECT))
_SHOT = _record(CompiledShot, spec=_SPEC, t_start=NUMBER, t_end=NUMBER, source_span=_SOURCE_SPAN)
_CAMERA = _record(CameraTimeline, t_start=NUMBER, t_end=NUMBER, keyframes=_list_of(_KEYFRAME),
                  time_warp=_list_of(_WARP), shots=_defaulted(_list_of(_SHOT)))
_CUE = _record(VizCue, kind=_enum(CueKind), t_start=NUMBER, t_end=NUMBER,
               anchor=_defaulted(_optional(PLACE)), payload=_defaulted(OBJECT))
_SCORE = _own_json(ScoreState)
_POINT = _record(ScenePoint, index=INTEGER, t_start=NUMBER, t_end=NUMBER, trajectory_span=SPAN,
                 outcome=_own_json(PointOutcome), score_before=_SCORE,
                 metrics=_keyed_by("window", _own_json(ZoneMetrics), attrgetter("value")))
# the document itself, less its "format" tag
_SCENE = _fields(court=_COURT, fps=NUMBER, sample_rate_hz=NUMBER,
                 tracks=_keyed_by("entity_id", _TRACK), camera=_CAMERA, cues=_list_of(_CUE),
                 points=_list_of(_POINT), score_timeline=_list_of(_SCORE))


# ============================================================
# Text
# ============================================================

# serialize_scene writes what json.dumps(indent=2, sort_keys=True) writes, in
# one pass, with json's own string encoder, float.__repr__, int.__repr__ and
# type-test order (str, bool, int, float; so IntEnum is an int); a list of finite
# floats is one join, and each track's samples fill one row template.
_encode_str = json.encoder.encode_basestring_ascii


def _key_text(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return '"' + json.dumps(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit(value, nl: str, out: List[str]) -> None:
    """Append the text of ``value`` to ``out``; ``nl`` is "\\n" plus its line's indent."""
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
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _emit(item, inner, out)
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + _key_text(key) + ": ")
            sep = "," + inner
            _emit(item, inner, out)
        out.append(nl + "}")
    elif type(value) is _Samples:
        inner = nl + "  "
        row = "[" + ",".join([inner + "  %r"] * value.rows.shape[1]) + inner + "]"
        rows = ("," + inner).join([row] * len(value.rows))
        out.append(("[" + inner + rows + nl + "]") % tuple(value.rows.ravel().tolist()))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def serialize_scene(scene: SceneTimeline) -> str:
    """The bytes of ``json.dumps(scene.to_dict(), indent=2, sort_keys=True) + "\\n"``."""
    out: List[str] = []
    _emit(scene._document(), "\n", out)
    out.append("\n")
    return "".join(out)


def parse_scene(text: str) -> SceneTimeline:
    """Parse a scene JSON document. Raises ParseError (with position) or ValidationError."""
    return SceneTimeline.from_dict(load_json(text, "scene JSON"))
