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

from .court import ZONES, CourtPoint, ZoneId, zone_codes
from .errors import ValidationError
from .fields import COUNT, NUMBER, enum_of, field_list, map_of, record
from .ingest import ClipPoint, EventKind
from .kinematics import BallTrajectories
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
    position: CourtPoint


# ============================================================
# Event logging
# ============================================================


def log_zone_events(
    trajectories: BallTrajectories,
    points: Sequence[ClipPoint],
) -> List[List[EventRecord]]:
    """Tag every in-play event with the zone it happened in, one record list per point.

    ``trajectories`` holds one reconstructed ball trajectory per point, in
    order, with one keyframe per in-play event of its point. Each record takes
    its time from that keyframe. A contact's position is its keyframe's, the
    hitting player's foot; a bounce's or net cord's is the trajectory's at
    the event time. A bounce is classified under serve rules only while at
    most one contact (the serve itself) has happened in its point. The first
    point whose keyframes and events differ in number raises before any is
    evaluated. Every bounce and net cord is evaluated on its keyframe's
    segment in one array pass, and every event's zone is found in one
    ``zone_codes`` pass.
    """
    if len(trajectories) != len(points):
        raise ValidationError(
            f"need one trajectory per point: got {len(trajectories)} for {len(points)} points")
    counts = trajectories.counts
    for j, (n, point) in enumerate(zip(counts.tolist(), points)):
        if n != len(point.events):
            raise ValidationError(f"point {j} has {len(point.events)} events but its "
                                  f"trajectory has {n} keyframes")
    events = [e for point in points for e in point.events]
    owner = np.repeat(np.arange(len(points)), counts)
    contact = np.array([e.kind is EventKind.CONTACT for e in events], dtype=bool)
    bounce = np.array([e.kind is EventKind.BOUNCE for e in events], dtype=bool)
    # contacts so far in the event's own point, itself included
    seen = np.cumsum(contact)
    seen -= np.repeat(np.concatenate([[0], seen])[np.cumsum(counts) - counts], counts)
    t, xyz = trajectories.t, np.zeros((len(events), 3))
    xyz[:, 0], xyz[:, 1] = trajectories.x, trajectories.y
    in_flight = ~contact
    xyz[in_flight] = trajectories.evaluate_segments(
        trajectories.keyframe_segments()[in_flight], t[in_flight])
    codes = zone_codes(xyz[:, 0], xyz[:, 1], bounce & (seen <= 1))

    point_records: List[List[EventRecord]] = [[] for _ in points]
    for e, point_index, t_e, (x, y, z), code in zip(events, owner.tolist(), t.tolist(),
                                                   xyz.tolist(), codes.tolist()):
        point_records[point_index].append(EventRecord(
            t=t_e, kind=e.kind, zone=ZONES[code], player_id=e.player_id,
            point_index=point_index, position=CourtPoint(x, y, z)))
    return point_records


# ============================================================
# Windowed metrics
# ============================================================


def _game_signature(state: ScoreState) -> tuple:
    return (state.sets, state.games)


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
        return ZONE_METRICS.write(self)


ZONE_METRICS = record(ZoneMetrics, field_list(
    window=enum_of(MetricsWindow), counts=map_of(map_of(COUNT)),
    percentages=map_of(map_of(NUMBER))))


def compute_zone_metrics(records: Sequence[EventRecord]) -> Dict[str, Dict[str, int]]:
    """Zone counts of the records by kind: ``counts[kind][zone key]``."""
    counts: Dict[str, Dict[str, int]] = {}
    for r in records:
        per_zone = counts.setdefault(r.kind.value, {})
        key = r.zone.key()
        per_zone[key] = per_zone.get(key, 0) + 1
    return counts


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

    ``point_counts[i]`` holds the counts of point ``i``'s records alone
    (``compute_zone_metrics`` over them) and ``score_timeline[i]`` the score
    before point ``i``. Entry ``i`` holds each window's metrics as counted
    from scratch after point ``i``: MatchStart over the records of points
    ``0..i``, CurrentGame over the trailing run of those points whose score
    shares point ``i``'s games-and-sets signature. MatchStart keeps running
    totals; CurrentGame restarts its totals whenever the signature changes.
    Each point's counts are added once per window.
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
