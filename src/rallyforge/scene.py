"""Scene timeline document: the renderer hand-off boundary.

A SceneTimeline bundles everything a playback client needs: densely sampled
3D entity tracks on one shared clock, the compiled camera timeline with its
slow-motion windows, the overlay cue track, per-point zone metrics snapshots,
and the score timeline. The document serializes to JSON and parses back
losslessly, so reconstruction outputs can be diffed byte for byte: the
scene bytes equal ``json.dumps(scene.to_dict(), indent=2, sort_keys=True)``
plus a trailing newline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

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
from .ingest import PointOutcome, is_finite_number
from .scene_metrics import MetricsWindow, ZoneMetrics
from .scoring import ScoreState
from .viz_cues import CueKind, VizCue, jsonify

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

    def to_dict(self) -> dict:
        return dict(self.header_dict(), samples=self.samples.tolist())

    def header_dict(self) -> dict:
        """``to_dict`` without the samples, which serialize_scene writes itself."""
        return {"entity_id": self.entity_id, "rate_hz": self.rate_hz, "t_start": self.t_start}

    @staticmethod
    def from_dict(obj: dict) -> "SampledTrack":
        return SampledTrack(
            entity_id=obj["entity_id"],
            rate_hz=float(obj["rate_hz"]),
            t_start=float(obj.get("t_start", 0.0)),
            samples=np.asarray(obj["samples"], dtype=float),
        )


# ============================================================
# Per-point snapshot
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

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "trajectory_span": list(self.trajectory_span),
            "outcome": self.outcome.to_dict(),
            "score_before": self.score_before.to_dict(),
            "metrics": {w.value: m.to_dict() for w, m in sorted(
                self.metrics.items(), key=lambda kv: kv[0].value)},
        }

    @staticmethod
    def from_dict(obj: dict) -> "ScenePoint":
        metrics = {}
        for name, m in obj["metrics"].items():
            window = MetricsWindow(name)
            metrics[window] = ZoneMetrics(
                window=window,
                counts={k: {z: int(c) for z, c in v.items()} for k, v in m["counts"].items()},
                percentages={k: {z: float(p) for z, p in v.items()}
                             for k, v in m["percentages"].items()},
            )
        return ScenePoint(
            index=int(obj["index"]),
            t_start=float(obj["t_start"]),
            t_end=float(obj["t_end"]),
            trajectory_span=(float(obj["trajectory_span"][0]), float(obj["trajectory_span"][1])),
            outcome=PointOutcome.from_dict(obj["outcome"]),
            score_before=ScoreState.from_dict(obj["score_before"]),
            metrics=metrics,
        )


# ============================================================
# Camera timeline serialization
# ============================================================


def _point_to_list(p: CourtPoint) -> List[float]:
    return [p.x, p.y, p.z]


def _look_at_to_json(look_at: Union[CourtPoint, str]):
    return _point_to_list(look_at) if isinstance(look_at, CourtPoint) else look_at


def _look_at_from_json(obj) -> Union[CourtPoint, str]:
    if isinstance(obj, str):
        return obj
    return CourtPoint(float(obj[0]), float(obj[1]), float(obj[2]))


def _spec_to_dict(spec: ShotSpec) -> dict:
    return {
        "t_start": spec.t_start,
        "duration": spec.duration,
        "size": spec.size.value,
        "anchor": spec.anchor.value,
        "motion": spec.motion.value,
        "purpose": spec.purpose,
        "point_index": spec.point_index,
        "target": _look_at_to_json(spec.target) if spec.target is not None else None,
        "source_span": list(spec.source_span) if spec.source_span else None,
        "slow_motion": spec.slow_motion,
        "motion_params": jsonify(spec.motion_params),
    }


def _spec_from_dict(obj: dict) -> ShotSpec:
    target = obj.get("target")
    return ShotSpec(
        t_start=float(obj["t_start"]),
        duration=float(obj["duration"]),
        size=ShotSize(obj["size"]),
        anchor=CameraAnchor(obj["anchor"]),
        motion=CameraMotion(obj["motion"]),
        purpose=obj["purpose"],
        point_index=int(obj["point_index"]),
        target=_look_at_from_json(target) if target is not None else None,
        source_span=tuple(float(v) for v in obj["source_span"]) if obj.get("source_span") else None,
        slow_motion=bool(obj.get("slow_motion", False)),
        motion_params=obj.get("motion_params") or {},
    )


def camera_to_dict(timeline: CameraTimeline) -> dict:
    return {
        "t_start": timeline.t_start,
        "t_end": timeline.t_end,
        "keyframes": [
            {
                "t": k.t,
                "position": _point_to_list(k.position),
                "look_at": _look_at_to_json(k.look_at),
                "fov_deg": k.fov_deg,
                "easing": k.easing.value,
            }
            for k in timeline.keyframes
        ],
        "time_warp": [w.to_dict() for w in timeline.time_warp],
        "shots": [
            {
                "spec": _spec_to_dict(s.spec),
                "t_start": s.t_start,
                "t_end": s.t_end,
                "source_span": list(s.source_span) if s.source_span else None,
            }
            for s in timeline.shots
        ],
    }


def camera_from_dict(obj: dict) -> CameraTimeline:
    keyframes = tuple(
        CameraKeyframe(
            t=float(k["t"]),
            position=CourtPoint(*[float(v) for v in k["position"]]),
            look_at=_look_at_from_json(k["look_at"]),
            fov_deg=float(k["fov_deg"]),
            easing=Easing(k["easing"]),
        )
        for k in obj["keyframes"]
    )
    warps = tuple(
        WarpWindow(float(w["t_start"]), float(w["t_end"]), float(w["factor"]))
        for w in obj["time_warp"]
    )
    shots = tuple(
        CompiledShot(
            spec=_spec_from_dict(s["spec"]),
            t_start=float(s["t_start"]),
            t_end=float(s["t_end"]),
            source_span=tuple(float(v) for v in s["source_span"]) if s.get("source_span") else None,
        )
        for s in obj.get("shots", [])
    )
    return CameraTimeline(keyframes=keyframes, time_warp=warps,
                          t_start=float(obj["t_start"]), t_end=float(obj["t_end"]),
                          shots=shots)


def _anchor_from_dict(anchor):
    """A cue anchor: null, an entity name, or a court point ``[x, y, z]``."""
    if anchor is None or isinstance(anchor, str):
        return anchor
    if isinstance(anchor, list) and len(anchor) == 3 and all(map(is_finite_number, anchor)):
        return CourtPoint(float(anchor[0]), float(anchor[1]), float(anchor[2]))
    raise ValueError(f"cue anchor must be null, an entity name or [x, y, z], got {anchor!r}")


def _cue_from_dict(obj: dict) -> VizCue:
    payload = obj.get("payload", {})
    if not isinstance(payload, dict):
        raise ValueError(f"cue payload must be an object, got {payload!r}")
    return VizCue(
        kind=CueKind(obj["kind"]),
        t_start=float(obj["t_start"]),
        t_end=float(obj["t_end"]),
        anchor=_anchor_from_dict(obj.get("anchor")),
        payload=payload,
    )


def _court_from_dict(obj: dict) -> CourtModel:
    return CourtModel(
        length=float(obj["length_m"]),
        singles_half_width=float(obj["singles_half_width_m"]),
        doubles_half_width=float(obj["doubles_half_width_m"]),
        service_line_y=float(obj["service_line_y_m"]),
        net_y=float(obj.get("net_y_m", 0.0)),
        net_cord_height=float(obj["net_cord_height_m"]),
        ground_z=float(obj.get("ground_z_m", 0.0)),
    )


# ============================================================
# The document
# ============================================================


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
        return self._document({name: tr.to_dict() for name, tr in sorted(self.tracks.items())})

    def _document(self, tracks: dict) -> dict:
        """The scene's JSON-native form around the given ``tracks`` entries."""
        return {
            "format": SCENE_FORMAT,
            "court": self.court.to_dict(),
            "fps": self.fps,
            "sample_rate_hz": self.sample_rate_hz,
            "tracks": tracks,
            "camera": camera_to_dict(self.camera),
            "cues": [c.to_dict() for c in self.cues],
            "points": [p.to_dict() for p in self.points],
            "score_timeline": [s.to_dict() for s in self.score_timeline],
        }

    @staticmethod
    def from_dict(obj: dict) -> "SceneTimeline":
        if not isinstance(obj, dict):
            raise ValidationError("scene document must be an object")
        if obj.get("format") != SCENE_FORMAT:
            raise ValidationError(
                f"unsupported scene format {obj.get('format')!r}; expected {SCENE_FORMAT!r}")
        try:
            return SceneTimeline(
                court=_court_from_dict(obj["court"]),
                fps=float(obj["fps"]),
                sample_rate_hz=float(obj["sample_rate_hz"]),
                tracks={name: SampledTrack.from_dict(tr)
                        for name, tr in obj["tracks"].items()},
                camera=camera_from_dict(obj["camera"]),
                cues=tuple(_cue_from_dict(c) for c in obj["cues"]),
                points=tuple(ScenePoint.from_dict(p) for p in obj["points"]),
                score_timeline=tuple(ScoreState.from_dict(s) for s in obj["score_timeline"]),
            )
        except (KeyError, TypeError, IndexError, ValueError, AttributeError,
                OverflowError) as e:
            # AttributeError: a list or number where an object belongs;
            # OverflowError: an integer too large for a float, or int(Infinity)
            raise ValidationError(f"malformed scene document: {e}") from None


# serialize_scene writes what json.dumps(indent=2, sort_keys=True) writes, in
# one pass, with json's own string encoder, float.__repr__, int.__repr__ and
# type-test order (str, bool, int, float; so IntEnum is an int); a list of finite
# floats is one join, and each track's samples fill one row template.
_encode_str = json.encoder.encode_basestring_ascii


@dataclass(frozen=True)
class _Samples:
    """A track's samples, finite by construction: written from the row template,
    without the nested lists ``to_dict`` builds."""
    rows: np.ndarray


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
    _emit(scene._document({name: dict(track.header_dict(), samples=_Samples(track.samples))
                           for name, track in sorted(scene.tracks.items())}), "\n", out)
    out.append("\n")
    return "".join(out)


def parse_scene(text: str) -> SceneTimeline:
    try:
        obj = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer of too many digits
        raise ValidationError(f"scene document is not valid JSON: {e}") from None
    return SceneTimeline.from_dict(obj)
