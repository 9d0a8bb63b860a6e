"""Zone-tagged event logging and windowed zone metrics.

Every Bounce, Contact, and NetCord in a point becomes one EventRecord tagged
with the court zone it happened in. Metrics aggregate those records either
over the whole record log (MatchStart) or over the trailing run of points
that belong to the game in progress (CurrentGame); the game boundary is
detected from the score timeline, since games and sets only ever change
between points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from .court import CourtPoint, Phase, ZoneId, classify_zone
from .errors import InsufficientData, ValidationError
from .ingest import ClipPoint, CourtTracks, EventKind, is_finite_number
from .kinematics import BallTrajectory3D
from .scoring import ScoreState


class MetricsWindow(Enum):
    MATCH_START = "MatchStart"
    CURRENT_GAME = "CurrentGame"


@dataclass(frozen=True)
class EventRecord:
    """One zone-tagged in-play event."""

    t: float
    kind: EventKind
    zone: ZoneId
    player_id: Optional[str]
    point_index: int
    position: Optional[CourtPoint] = None


# ============================================================
# Event logging
# ============================================================


def log_zone_events(
    tracks: CourtTracks,
    trajectories: Sequence[BallTrajectory3D],
    points: Sequence[ClipPoint],
) -> List[List[EventRecord]]:
    """Tag every in-play event with the zone it happened in, one record list per point.

    ``trajectories`` holds one reconstructed ball trajectory per point, in
    order. Bounce and net-cord zones come from the trajectory's planar
    position at the event time; contact zones come from the hitting player's
    track. A bounce is classified under serve rules only while at most one
    contact (the serve itself) has happened in its point.
    """
    if len(trajectories) != len(points):
        raise ValidationError(
            f"need one trajectory per point: got {len(trajectories)} for {len(points)} points")

    point_records: List[List[EventRecord]] = []
    for point_index, (point, traj) in enumerate(zip(points, trajectories)):
        records: List[EventRecord] = []
        contacts_seen = 0
        for e in point.events:
            t = e.frame / tracks.fps
            if not (traj.t_start <= t <= traj.t_end):
                raise ValidationError(
                    f"{e.kind.value} at t={t:.3f}s lies outside its trajectory span "
                    f"[{traj.t_start:.3f}, {traj.t_end:.3f}]")

            if e.kind is EventKind.CONTACT:
                contacts_seen += 1
                xy = tracks.players[e.player_id][e.frame]
                if np.any(np.isnan(xy)):
                    raise InsufficientData(
                        f"player {e.player_id!r} has no position at frame {e.frame}; "
                        "fill gaps before logging zone events")
                position = CourtPoint(float(xy[0]), float(xy[1]))
                zone = classify_zone(position, Phase.RALLY)
            else:
                p = traj.evaluate(t)
                phase = Phase.SERVE if (e.kind is EventKind.BOUNCE and contacts_seen <= 1) else Phase.RALLY
                position = CourtPoint(p.x, p.y, p.z)
                zone = classify_zone(CourtPoint(p.x, p.y), phase)
            records.append(EventRecord(t=t, kind=e.kind, zone=zone,
                                       player_id=e.player_id, point_index=point_index,
                                       position=position))
        point_records.append(records)
    return point_records


# ============================================================
# Windowed metrics
# ============================================================


def _game_signature(state: ScoreState) -> tuple:
    return (state.sets, state.games)


def _current_game_points(score_timeline: Sequence[ScoreState]) -> set:
    """Indices of the trailing points that share the last point's game."""
    if not score_timeline:
        return set()
    last = _game_signature(score_timeline[-1])
    included = set()
    for i in range(len(score_timeline) - 1, -1, -1):
        if _game_signature(score_timeline[i]) != last:
            break
        included.add(i)
    return included


def _apportioned_percentages(counts: Dict[str, int]) -> Dict[str, float]:
    """Percentages in tenths that sum to exactly 100.0.

    Independent rounding can drift (six equal zones round to 16.7 each,
    totalling 100.2), so leftover tenths go to the largest remainders.
    """
    total = sum(counts.values())
    raw = {zone: 1000.0 * c / total for zone, c in counts.items()}
    base = {zone: math.floor(v) for zone, v in raw.items()}
    leftover = 1000 - sum(base.values())
    order = sorted(raw, key=lambda zone: (base[zone] - raw[zone], zone))
    for zone in order[:leftover]:
        base[zone] += 1
    return {zone: base[zone] / 10.0 for zone in sorted(base)}


@dataclass(frozen=True)
class ZoneMetrics:
    """Per-kind zone counts and percentages over one window.

    ``percentages`` omits kinds with no events; present kinds always sum to
    exactly 100.0 by apportionment.
    """

    window: MetricsWindow
    counts: Dict[str, Dict[str, int]]
    percentages: Dict[str, Dict[str, float]]

    def to_dict(self) -> dict:
        return {
            "window": self.window.value,
            "counts": {k: dict(sorted(v.items())) for k, v in sorted(self.counts.items())},
            "percentages": {k: dict(sorted(v.items())) for k, v in sorted(self.percentages.items())},
        }

    @staticmethod
    def from_dict(obj) -> "ZoneMetrics":
        windows = [w.value for w in MetricsWindow]
        if not isinstance(obj, dict) or obj.get("window") not in windows:
            raise ValidationError(f"zone metrics need a window, one of {windows}")
        counts = _zone_table(obj, "counts", "non-negative integers",
                             lambda c: type(c) is int and c >= 0)
        percentages = _zone_table(obj, "percentages", "finite numbers", is_finite_number)
        return ZoneMetrics(window=MetricsWindow(obj["window"]), counts=counts, percentages={
            kind: {zone: float(p) for zone, p in per_zone.items()}
            for kind, per_zone in percentages.items()})


def _zone_table(obj: dict, name: str, expected: str, valid) -> dict:
    """``obj[name]``, an object of kinds, each an object of zones to values that pass ``valid``."""
    table = obj.get(name)
    if not (isinstance(table, dict) and all(isinstance(per_zone, dict) and all(
            map(valid, per_zone.values())) for per_zone in table.values())):
        raise ValidationError(f"zone metrics {name} must map kinds to objects of zones to {expected}")
    return table


def compute_zone_metrics(
    records: Sequence[EventRecord],
    score_timeline: Sequence[ScoreState],
    window: MetricsWindow,
) -> ZoneMetrics:
    """Aggregate zone counts over a window of the record log.

    ``score_timeline[i]`` is the score before point ``i``. MatchStart counts
    everything; CurrentGame counts only points whose score shares the last
    point's games-and-sets signature (an empty timeline keeps all records,
    treating the log as a single game).
    """
    if window is MetricsWindow.CURRENT_GAME and score_timeline:
        included = _current_game_points(score_timeline)
        records = [r for r in records if r.point_index in included]

    counts: Dict[str, Dict[str, int]] = {}
    for r in records:
        per_zone = counts.setdefault(r.kind.value, {})
        key = r.zone.key()
        per_zone[key] = per_zone.get(key, 0) + 1
    return _metrics_from_counts(window, counts)


def _metrics_from_counts(window: MetricsWindow, counts: Dict[str, Dict[str, int]]) -> ZoneMetrics:
    percentages = {
        kind: _apportioned_percentages(per_zone)
        for kind, per_zone in counts.items()
        if sum(per_zone.values()) > 0
    }
    return ZoneMetrics(window=window, counts=counts, percentages=percentages)


def zone_metrics_by_point(
    point_counts: Sequence[Dict[str, Dict[str, int]]],
    score_timeline: Sequence[ScoreState],
) -> List[Dict[MetricsWindow, ZoneMetrics]]:
    """Both metric windows as they stand after each point, from per-point counts.

    ``point_counts[i]`` holds the counts of point ``i``'s records alone (the
    ``counts`` of ``compute_zone_metrics`` over them). Entry ``i`` equals
    ``compute_zone_metrics`` over the records of points ``0..i`` with
    ``score_timeline[:i + 1]``, for each window. MatchStart keeps running
    totals; CurrentGame restarts its totals whenever the games-and-sets
    signature changes. Each point's counts are added once per window.
    """
    if len(score_timeline) < len(point_counts):
        raise ValidationError(
            f"need the score before each of {len(point_counts)} points, got {len(score_timeline)}")
    match: Dict[str, Dict[str, int]] = {}
    game: Dict[str, Dict[str, int]] = {}
    snapshots = []
    for i, counts in enumerate(point_counts):
        if i > 0 and _game_signature(score_timeline[i]) != _game_signature(score_timeline[i - 1]):
            game = {}
        for totals in (match, game):
            for kind, per_zone in counts.items():
                kind_totals = totals.setdefault(kind, {})
                for zone, n in per_zone.items():
                    kind_totals[zone] = kind_totals.get(zone, 0) + n
        snapshots.append({
            window: _metrics_from_counts(
                window, {kind: dict(per_zone) for kind, per_zone in totals.items()})
            for window, totals in ((MetricsWindow.MATCH_START, match),
                                   (MetricsWindow.CURRENT_GAME, game))
        })
    return snapshots
