"""In-memory span tracing around the rallyforge calls the benchmark drives.

The tracer never edits the library. It swaps a wrapper into the attribute a
caller looks up (for example ``rallyforge.pipeline.fill_gaps_knn``, the name
``reconstruct_scene`` resolves at call time), records a span or a count each
time the wrapper runs, and puts the original back when the operation ends.
Hot helpers that run tens of thousands of times per clip
(``Homography.image_to_world``) are counted, not spanned, to keep the tracing
overhead small.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import rallyforge.ingest
import rallyforge.pipeline
import rallyforge.projection
import rallyforge.scene
import rallyforge.simulate
import rallyforge.viz_cues


def _nan_rows(args, kwargs, result) -> int:
    return int(np.count_nonzero(~np.isfinite(np.asarray(args[0], dtype=float)).all(axis=1)))


def _segments(args, kwargs, result) -> int:
    return sum(len(traj.planar) for traj in result)


def _export_samples(args, kwargs, result) -> int:
    return sum(len(track.samples) for track in result.values())


def _keyframes(args, kwargs, result) -> int:
    return len(result.keyframes)


def _first_arg_len(args, kwargs, result) -> int:
    return len(args[0])


def _text_bytes(args, kwargs, result) -> int:
    return len(result.encode("utf-8"))


def _one(args, kwargs, result) -> int:
    return 1


# A patch is (owner, attribute, span name or None, count name or None, counter).
# A count name is a per-layer metric; a span name becomes "<span>_ms".
Patch = Tuple[object, str, Optional[str], Optional[str], Optional[Callable]]

_RECONSTRUCT: Tuple[Patch, ...] = (
    (rallyforge.ingest, "parse_clip", "ingest.parse_clip", None, None),
    (rallyforge.pipeline, "reconstruct_scene", "pipeline.reconstruct_scene", None, None),
    (rallyforge.pipeline, "to_court_space", "ingest.lift", None, None),
    (rallyforge.pipeline, "fill_gaps_knn", "refine.fill_gaps", "refine.filled_samples", _nan_rows),
    (rallyforge.pipeline, "smooth_moving_average_piecewise", "refine.smooth", None, None),
    (rallyforge.pipeline, "stabilize_resolution", "refine.stabilize", None, None),
    (rallyforge.pipeline, "validate_ball_planar", "refine.validate_ball", None, None),
    (rallyforge.projection.Homography, "image_to_world", None,
     "projection.image_to_world_calls", _one),
    (rallyforge.pipeline, "solve_point_trajectories", "kinematics.solve",
     "kinematics.segments", _segments),
    (rallyforge.pipeline, "sample_entity_tracks", "pipeline.sample_tracks",
     "pipeline.export_samples", _export_samples),
    (rallyforge.pipeline, "log_zone_events", "scene_metrics.log_events", None, None),
    (rallyforge.pipeline, "summarize_point", "cinematography.plan", None, None),
    (rallyforge.pipeline, "classify_point_category", "cinematography.plan", None, None),
    (rallyforge.pipeline, "plan_point_shots", "cinematography.plan", None, None),
    (rallyforge.pipeline, "compile_camera_timeline", "cinematography.compile",
     "cinematography.keyframes", _keyframes),
    (rallyforge.pipeline, "generate_dynamic_cues", "viz_cues.dynamic", None, None),
    (rallyforge.pipeline, "generate_static_cues", "viz_cues.static", None, None),
    (rallyforge.viz_cues.HeatmapGrid, "from_samples", None,
     "viz_cues.heatmap_samples_binned", _first_arg_len),
    (rallyforge.pipeline, "compute_zone_metrics", "scene_metrics.zone_metrics",
     "scene_metrics.records_scanned", _first_arg_len),
    (rallyforge.scene, "serialize_scene", "scene.serialize", "scene.bytes", _text_bytes),
)

# Which wrappers each benchmark operation installs. The verify operation
# reconstructs the clip again; its pipeline calls are left unwrapped so each
# layer is attributed once per clip, to the reconstruct operation.
PATCHES: Dict[str, Tuple[Patch, ...]] = {
    "simulate": (
        (rallyforge.simulate, "simulate_rally", "simulate.rally", None, None),
        (rallyforge.simulate, "project_clip", "simulate.project", None, None),
    ),
    "reconstruct": _RECONSTRUCT,
    "verify": (
        (rallyforge.simulate, "round_trip_report", "simulate.round_trip", None, None),
        (rallyforge.simulate.GroundTruthRally, "player_position", None,
         "simulate.truth_lookups", _one),
    ),
    "scene_load": (
        (rallyforge.scene, "parse_scene", "scene.parse", None, None),
    ),
}

# Stage times reconstruct_scene(stats=...) reports, and the spans inside each.
STAGE_SPANS: Dict[str, Tuple[str, ...]] = {
    "lift_s": ("ingest.lift",),
    "refine_s": ("refine.fill_gaps", "refine.smooth", "refine.stabilize",
                 "refine.validate_ball"),
    "kinematics_s": ("kinematics.solve",),
    "sampling_s": ("pipeline.sample_tracks",),
    "camera_s": ("scene_metrics.log_events", "cinematography.plan",
                 "cinematography.compile"),
    "annotate_s": ("viz_cues.dynamic", "viz_cues.static", "scene_metrics.zone_metrics"),
}


def span_names() -> List[str]:
    names = {p[2] for patches in PATCHES.values() for p in patches if p[2]}
    return sorted(names)


def count_names() -> List[str]:
    names = {p[3] for patches in PATCHES.values() for p in patches if p[3]}
    return sorted(names)


class Tracer:
    """Spans and counts for one benchmark run, kept in memory until the end.

    A span is ``[name, start_s, end_s, parent_index, clip_index]``; counts are
    kept per clip. All spans of one clip share its clip index.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[int, Dict[str, int]] = {}
        self._stack: List[int] = []
        self._clip = -1

    def begin_clip(self, clip_index: int):
        self._clip = clip_index
        self.counts.setdefault(clip_index, {})

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._clip])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, name: str, n: int):
        per_clip = self.counts[self._clip]
        per_clip[name] = per_clip.get(name, 0) + n

    @contextmanager
    def operation(self, op: str):
        """Install the op's wrappers and record its root span ``op.<op>``."""
        saved = []
        for owner, attr, span, count, counter in PATCHES[op]:
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            is_static = isinstance(raw, staticmethod)
            wrapped = self._wrap(raw.__func__ if is_static else raw, span, count, counter)
            setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
        index = self._open("op." + op)
        try:
            yield
        finally:
            self._close(index)
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def _wrap(self, fn: Callable, span: Optional[str], count: Optional[str],
              counter: Optional[Callable]) -> Callable:
        tracer = self

        if span is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer._count(count, counter(args, kwargs, result))
                return result
            return counted

        def spanned(*args, **kwargs):
            index = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                tracer._count(count, counter(args, kwargs, result))
            return result
        return spanned

    # ---- analysis ----

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1]) - child[i] for i, s in enumerate(self.spans)]

    def per_clip_self_ms(self) -> Dict[int, Dict[str, float]]:
        out: Dict[int, Dict[str, float]] = {clip: {} for clip in self.counts}
        for span, self_s in zip(self.spans, self.self_times()):
            per_clip = out.setdefault(span[4], {})
            per_clip[span[0]] = per_clip.get(span[0], 0.0) + self_s * 1000.0
        return out

    def children_ms(self, parent_name: str) -> List[Tuple[int, float, Dict[str, float]]]:
        """For every span named ``parent_name``: its clip, duration and child durations."""
        found = {}
        for i, (name, start, end, _, clip) in enumerate(self.spans):
            if name == parent_name:
                found[i] = (clip, (end - start) * 1000.0, {})
        for name, start, end, parent, _ in self.spans:
            if parent in found:
                kids = found[parent][2]
                kids[name] = kids.get(name, 0.0) + (end - start) * 1000.0
        return list(found.values())

    def to_dict(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "format": "perfbench-trace/1",
            "spans": [
                {"name": name, "start_ms": (start - t0) * 1000.0,
                 "dur_ms": (end - start) * 1000.0, "parent": parent, "clip": clip}
                for name, start, end, parent, clip in self.spans
            ],
            "counts": {str(clip): counts for clip, counts in sorted(self.counts.items())},
        }
