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
import re
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple, Union

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
from .ingest import PointOutcome
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


def _cue_from_dict(obj: dict) -> VizCue:
    anchor = obj.get("anchor")
    if isinstance(anchor, list):
        anchor = CourtPoint(float(anchor[0]), float(anchor[1]), float(anchor[2]))
    return VizCue(
        kind=CueKind(obj["kind"]),
        t_start=float(obj["t_start"]),
        t_end=float(obj["t_end"]),
        anchor=anchor,
        payload=obj.get("payload") or {},
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


# json.dumps writes indented output in pure Python, one call per value, and
# most of a scene's values sit in a few dense float blocks: track samples,
# trajectory-map polylines and heatmap weights. serialize_scene writes those
# blocks from a per-row template and json.dumps writes the rest around
# placeholders. json.dumps formats a float with float.__repr__, as "%r" does,
# so the bytes are the same.
_PLACEHOLDER = "\x00rows:{}"
_PLACEHOLDER_RE = re.compile(r'"\\u0000rows:(\d+)"')  # json.dumps escapes "\x00"
_INDENT_RE = re.compile(" *")


def _dense_rows(rows) -> Optional[Tuple[int, list]]:
    """``(row width, row-major floats)`` when ``rows`` is a non-empty list of
    equal-length, non-empty lists of finite floats; None otherwise."""
    if type(rows) is not list or not rows or not {list}.issuperset(map(type, rows)):
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    flat = list(chain.from_iterable(rows))
    if not ({float}.issuperset(map(type, flat)) and all(map(math.isfinite, flat))):
        return None
    return widths.pop(), flat


def _write_rows(width: int, flat: list, indent: int) -> str:
    """Dense rows as json.dumps(indent=2) writes them at nesting ``indent``."""
    outer = "\n" + " " * (indent + 2)
    row = "[" + ",".join([outer + "  %r"] * width) + outer + "]"
    rows = ("," + outer).join([row] * (len(flat) // width))
    return ("[" + outer + rows + "\n" + " " * indent + "]") % tuple(flat)


def _take_cue_blocks(cues: list, blocks: list):
    """Replace each dense float block of the cue dicts by a numbered placeholder."""
    slots = []
    for cue in cues:
        payload = cue["payload"]
        if type(payload) is not dict:
            continue
        if cue["kind"] == CueKind.STATIC_TRAJECTORY_MAP.value:
            polylines = payload.get("polylines")
            if type(polylines) is list:
                slots.extend((polylines, i) for i in range(len(polylines)))
        elif cue["kind"] == CueKind.POSITION_HEATMAP.value:
            grid = payload.get("grid")
            if type(grid) is dict and "weights" in grid:
                slots.append((grid, "weights"))
    for parent, key in slots:
        dense = _dense_rows(parent[key])
        if dense is not None:
            parent[key] = _PLACEHOLDER.format(len(blocks))
            blocks.append(dense)


def serialize_scene(scene: SceneTimeline) -> str:
    """The bytes of ``json.dumps(scene.to_dict(), indent=2, sort_keys=True) + "\\n"``."""
    # track samples go from their arrays, finite by construction, straight to
    # the row template, without the nested lists to_dict would build
    blocks: List[Tuple[int, list]] = []
    tracks = {}
    for name, track in sorted(scene.tracks.items()):
        tracks[name] = dict(track.header_dict(), samples=_PLACEHOLDER.format(len(blocks)))
        blocks.append((track.samples.shape[1], track.samples.ravel().tolist()))
    doc = scene._document(tracks)
    _take_cue_blocks(doc["cues"], blocks)
    text = json.dumps(doc, indent=2, sort_keys=True)
    found = list(_PLACEHOLDER_RE.finditer(text))
    if len(found) != len(blocks):
        # a string of the scene itself reads like a placeholder
        return json.dumps(scene.to_dict(), indent=2, sort_keys=True) + "\n"
    out, pos = [], 0
    for m in found:
        line_start = text.rfind("\n", 0, m.start()) + 1
        indent = _INDENT_RE.match(text, line_start).end() - line_start
        out.append(text[pos:m.start()])
        out.append(_write_rows(*blocks[int(m.group(1))], indent))
        pos = m.end()
    out.append(text[pos:])
    out.append("\n")
    return "".join(out)


def parse_scene(text: str) -> SceneTimeline:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"scene document is not valid JSON: {e}") from None
    return SceneTimeline.from_dict(obj)
