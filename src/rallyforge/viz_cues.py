"""Embedded-visualization cue track: replay overlays and aggregate displays.

Dynamic cues ride along replay shots (trajectory trails, bounce outlines,
serve direction, shot counts, context labels, joint-angle callouts). Static
cues summarize the match so far (full-court shot polylines, built once per
point, and a player position heatmap over a time window) and are shown during
the display shot that follows a tactical replay. All cue times are
presentation-timeline seconds; anchors are either an entity name or a fixed
court point, and renderers own all geometry and styling beyond that.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .cinematography import CameraTimeline, PointSummary
from .court import COURT, CourtPoint
from .errors import DataUnavailable, ValidationError
from .ingest import Clip, CourtTracks, EventKind
from .scene_metrics import EventRecord

TRAIL_WINDOW_S = 0.8
OUTLINE_DURATION_S = 0.6
HEATMAP_CELL_M = 0.5
TEXT_INTRO_S = 1.5

# the heatmap grid over the doubles court of COURT: its lower-left corner and
# its cell counts across (x) and along (y)
HEATMAP_ORIGIN = (-COURT.doubles_half_width, -COURT.baseline_y)
HEATMAP_NX = math.ceil(2 * COURT.doubles_half_width / HEATMAP_CELL_M)
HEATMAP_NY = math.ceil(2 * COURT.baseline_y / HEATMAP_CELL_M)


class CueKind(Enum):
    TRAJECTORY_TRAIL = "TrajectoryTrail"
    HIGHLIGHT_OUTLINE = "HighlightOutline"
    JOINT_ANGLE = "JointAngle"
    SERVE_DIRECTION = "ServeDirection"
    FLOATING_TEXT = "FloatingText"
    SHOT_COUNT = "ShotCount"
    STATIC_TRAJECTORY_MAP = "StaticTrajectoryMap"
    POSITION_HEATMAP = "PositionHeatmap"


# display strings for the scoring labels
LABEL_TEXT = {
    "GamePoint": "game point",
    "SetPoint": "set point",
    "MatchPoint": "match point",
    "BreakPoint": "break point",
}

# joint -> (adjacent toward the torso, adjacent toward the extremity)
JOINT_ADJACENCY = {
    "elbow": ("shoulder", "wrist"),
    "knee": ("hip", "ankle"),
    "shoulder": ("neck", "elbow"),
    "hip": ("torso", "knee"),
}


@dataclass(frozen=True)
class VizCue:
    kind: CueKind
    t_start: float
    t_end: float
    anchor: Union[None, str, CourtPoint] = None
    payload: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not (self.t_start < self.t_end):
            raise ValidationError(
                f"cue span must have positive length, got [{self.t_start}, {self.t_end}]")


# ============================================================
# Joint angles
# ============================================================


def joint_angle(joints: Mapping[str, Sequence[float]], joint_name: str) -> float:
    """Interior angle at a joint, in degrees within [0, 180].

    The angle is measured between the two segments that meet at the joint,
    using the adjacency table (elbow sits between shoulder and wrist, and so
    on). Works on any 2D joint map, pixel or metric.
    """
    if joint_name not in JOINT_ADJACENCY:
        raise DataUnavailable(f"no adjacency known for joint {joint_name!r}")
    inner_name, outer_name = JOINT_ADJACENCY[joint_name]
    for name in (joint_name, inner_name, outer_name):
        if name not in joints:
            raise DataUnavailable(f"joint {name!r} missing from the pose")
        if not np.isfinite(np.asarray(joints[name], dtype=float)).all():
            raise DataUnavailable(f"joint {name!r} has no finite position")
    j = np.asarray(joints[joint_name], dtype=float)
    a = np.asarray(joints[inner_name], dtype=float) - j
    b = np.asarray(joints[outer_name], dtype=float) - j
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na <= 1e-12 or nb <= 1e-12:
        raise DataUnavailable(f"degenerate segment at joint {joint_name!r}")
    cos = float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
    return math.degrees(math.acos(cos))


# ============================================================
# Dynamic cues (per replay)
# ============================================================


def _clamped_span(center: float, half: float, lo: float, hi: float) -> Optional[Tuple[float, float]]:
    a, b = max(lo, center - half), min(hi, center + half)
    return (a, b) if b > a else None


def generate_dynamic_cues(
    summary: PointSummary,
    records: Sequence[EventRecord],
    timeline: CameraTimeline,
    clip: Optional[Clip] = None,
) -> List[VizCue]:
    """Overlay cues for every replay shot of one point.

    ``records`` are the point's own event records in time order. Each replay
    gets a ball trail for its whole span, an outline at each Contact/Bounce
    it shows, a serve-direction polyline when it shows the serve, one
    floating label per scoring context active before the point, and a running
    shot count. Joint-angle callouts appear at contacts whose clip frame
    carries pose joints; absent pose data simply produces no callout.
    """
    contacts = [r for r in records if r.kind is EventKind.CONTACT]
    labels = sorted(summary.labels_before)

    cues: List[VizCue] = []
    for shot in timeline.replay_shots(summary.point_index):
        r0, r1 = shot.t_start, shot.t_end
        src0, src1 = shot.source_span if shot.source_span else (r0, r1)

        def presented(t_src: float) -> float:
            return r0 + (t_src - src0)

        cues.append(VizCue(CueKind.TRAJECTORY_TRAIL, r0, r1, "ball",
                           {"window_s": TRAIL_WINDOW_S}))

        shown = [r for r in records
                 if src0 <= r.t <= src1 and r.kind in (EventKind.CONTACT, EventKind.BOUNCE)]
        for rec in shown:
            span = _clamped_span(presented(rec.t), OUTLINE_DURATION_S / 2, r0, r1)
            if span is None:
                continue
            cues.append(VizCue(CueKind.HIGHLIGHT_OUTLINE, span[0], span[1], rec.position,
                               {"event": rec.kind.value}))

        if contacts and src0 <= contacts[0].t <= src1:
            serve = contacts[0]
            first_bounce = next((r for r in records
                                 if r.kind is EventKind.BOUNCE and r.t > serve.t), None)
            if first_bounce is not None:
                a = presented(serve.t)
                b = min(presented(min(first_bounce.t, src1)) + OUTLINE_DURATION_S, r1)
                if b > a:
                    cues.append(VizCue(
                        CueKind.SERVE_DIRECTION, a, b, serve.position,
                        {"polyline": [[serve.position.x, serve.position.y],
                                      [first_bounce.position.x, first_bounce.position.y]]}))

        intro_end = min(r0 + TEXT_INTRO_S, r1)
        for label in labels:
            cues.append(VizCue(CueKind.FLOATING_TEXT, r0, intro_end, None,
                               {"label": label, "text": LABEL_TEXT.get(label, label)}))

        shown_contacts = [(i, c) for i, c in enumerate(contacts, start=1)
                          if src0 <= c.t <= src1]
        for pos, (count, c) in enumerate(shown_contacts):
            a = presented(c.t)
            b = presented(shown_contacts[pos + 1][1].t) if pos + 1 < len(shown_contacts) else r1
            if b <= a:
                continue
            cues.append(VizCue(CueKind.SHOT_COUNT, a, b, None, {"count": count}))

        if clip is not None:
            for count, c in shown_contacts:
                if c.player_id is None:
                    continue
                frame_index = int(round(c.t * clip.header.fps))
                joints = clip.joints_px.get((frame_index, c.player_id))
                if not joints:
                    continue
                try:
                    angle = joint_angle(joints, "elbow")
                except DataUnavailable:
                    continue
                span = _clamped_span(presented(c.t), OUTLINE_DURATION_S / 2, r0, r1)
                if span is None:
                    continue
                cues.append(VizCue(CueKind.JOINT_ANGLE, span[0], span[1], c.player_id,
                                   {"joint": "elbow", "angle_deg": angle}))
    return cues


# ============================================================
# Static cues (per window)
# ============================================================


@dataclass(frozen=True)
class HeatmapGrid:
    """Court-aligned occupancy grid of player planar positions."""

    cell_size_m: float
    origin: Tuple[float, float]
    nx: int
    ny: int
    weights: Tuple[Tuple[float, ...], ...]   # indexed [iy][ix]
    n_samples: int

    def __post_init__(self):
        if len(self.weights) != self.ny or any(len(row) != self.nx for row in self.weights):
            raise ValidationError("heatmap weights must be an ny-by-nx grid")
        weights = np.fromiter(itertools.chain.from_iterable(self.weights), dtype=float,
                              count=self.nx * self.ny)
        if (weights < 0).any():
            raise ValidationError("heatmap weights must be nonnegative")
        # summed left to right, row by row, as a running total would add them
        total = float(np.add.accumulate(weights)[-1]) if len(weights) else 0.0
        if self.n_samples > 0 and abs(total - 1.0) > 1e-9:
            raise ValidationError(f"heatmap weights must sum to 1, got {total!r}")

    @staticmethod
    def from_samples(points: np.ndarray) -> "HeatmapGrid":
        """Bin (n, 2) planar samples over the doubles court; samples outside it are ignored."""
        cells = _cells(np.asarray(points, dtype=float).reshape(-1, 2))
        cells = cells[cells >= 0]
        return HeatmapGrid.from_counts(np.bincount(cells, minlength=HEATMAP_NX * HEATMAP_NY))

    @staticmethod
    def from_counts(counts: np.ndarray) -> "HeatmapGrid":
        """The grid of per-cell sample counts, flattened row by row ([iy * nx + ix])."""
        n_samples = int(counts.sum())
        weights = counts.reshape(HEATMAP_NY, HEATMAP_NX) / max(n_samples, 1)
        return HeatmapGrid(cell_size_m=HEATMAP_CELL_M, origin=HEATMAP_ORIGIN,
                           nx=HEATMAP_NX, ny=HEATMAP_NY,
                           weights=tuple(map(tuple, weights.tolist())), n_samples=n_samples)

    def to_dict(self) -> dict:
        return {
            "cell_size_m": self.cell_size_m,
            "origin": list(self.origin),
            "nx": self.nx,
            "ny": self.ny,
            "n_samples": self.n_samples,
            "weights": [list(row) for row in self.weights],
        }


def _cells(xy: np.ndarray) -> np.ndarray:
    """Flat grid cell of each (n, 2) sample; -1 for a sample off the court or absent."""
    on_court = (np.abs(xy[:, 0]) <= COURT.doubles_half_width) & (np.abs(xy[:, 1]) <= COURT.baseline_y)
    xy = xy[on_court]
    ix = np.minimum(((xy[:, 0] - HEATMAP_ORIGIN[0]) / HEATMAP_CELL_M).astype(int), HEATMAP_NX - 1)
    iy = np.minimum(((xy[:, 1] - HEATMAP_ORIGIN[1]) / HEATMAP_CELL_M).astype(int), HEATMAP_NY - 1)
    cells = np.full(len(on_court), -1)
    cells[on_court] = iy * HEATMAP_NX + ix
    return cells


class PositionHeatmaps:
    """Player-position heatmaps over time windows of one set of tracks.

    Every player sample is binned once, up front. A window that starts at
    the first frame and ends at or after the last such window extends running
    per-cell counts by the frames in between, so a clip's growing
    match-start windows cost one pass over its frames in all; any other
    window is counted from its own frames. Each grid equals
    ``HeatmapGrid.from_samples`` over the window's samples.
    """

    def __init__(self, tracks: CourtTracks):
        self._frame_t = np.arange(tracks.n_frames) / tracks.fps
        # cells[frame, player]
        xy = np.empty((tracks.n_frames, len(tracks.players), 2))
        for j, pid in enumerate(sorted(tracks.players)):
            xy[:, j] = tracks.players[pid]
        self._cells = _cells(xy.reshape(-1, 2)).reshape(xy.shape[:2])
        self._counts = np.zeros(HEATMAP_NX * HEATMAP_NY, dtype=np.intp)
        self._stop = 0  # frames [0, _stop) are in _counts

    def grid(self, window: Tuple[float, float]) -> HeatmapGrid:
        """The heatmap of every player sample at a frame time t with ``t_lo <= t <= t_hi``."""
        t_lo, t_hi = window
        if not (t_hi >= t_lo):
            raise ValidationError("window must not be reversed")
        start = int(np.searchsorted(self._frame_t, t_lo, side="left"))
        stop = int(np.searchsorted(self._frame_t, t_hi, side="right"))
        if start == 0 and stop >= self._stop:
            self._counts += self._bincount(self._cells[self._stop:stop])
            self._stop = stop
            counts = self._counts
        else:
            counts = self._bincount(self._cells[start:stop])
        return HeatmapGrid.from_counts(counts)

    def _bincount(self, cells: np.ndarray) -> np.ndarray:
        cells = cells.ravel()
        return np.bincount(cells[cells >= 0], minlength=len(self._counts))


def shot_polylines(records: Sequence[EventRecord]) -> List[List[List[float]]]:
    """One planar polyline per shot of one point: its contact, then every ball
    event up to and including the next contact.

    ``records`` are the point's own event records in time order; events
    before the point's first contact belong to no shot.
    """
    polylines: List[List[List[float]]] = []
    line = None  # the open shot's polyline
    for rec in records:
        xy = [rec.position.x, rec.position.y]
        if line is not None:
            line.append(xy)
        if rec.kind is EventKind.CONTACT:
            line = [xy]
            polylines.append(line)
    return polylines


def generate_static_cues(
    polylines: Sequence[List[List[float]]],
    heatmaps: PositionHeatmaps,
    window: Tuple[float, float],
    display_span: Optional[Tuple[float, float]] = None,
) -> List[VizCue]:
    """Aggregate cues for one time window: shot polylines and a heatmap.

    ``polylines`` are the shots the trajectory map lists, as ``shot_polylines``
    builds them per point; the map holds the polyline objects themselves, so
    a caller can share one point's polylines between the maps of every later
    window. ``window`` selects the track samples the heatmap bins (clip
    time); ``display_span`` is when the cues are shown on the presentation
    timeline (defaults to the window itself). No polylines and no samples
    yield no cues at all. ``heatmaps`` bins the player samples, once for
    every window it is asked for.
    """
    span = display_span if display_span is not None else window
    grid = heatmaps.grid(window)

    cues: List[VizCue] = []
    if polylines:
        cues.append(VizCue(CueKind.STATIC_TRAJECTORY_MAP, span[0], span[1], None,
                           {"polylines": list(polylines)}))
    if grid.n_samples > 0:
        cues.append(VizCue(CueKind.POSITION_HEATMAP, span[0], span[1], None,
                           {"grid": grid.to_dict()}))
    return cues
