"""Zone event logging and windowed metrics tests."""

from dataclasses import replace

import numpy as np
import pytest

from rallyforge.config import DEFAULT_CONFIG
from rallyforge.court import CourtPoint, Phase, classify_zone
from rallyforge.errors import ValidationError
from rallyforge.ingest import (ClipPoint, EventAnnotation, EventKind, PointOutcome,
                               clip_from_dict, to_court_space)
from rallyforge.kinematics import SEGMENT_FIELDS, BallTrajectories
from rallyforge.ingest import SpinType
from rallyforge.scene_metrics import (
    EventRecord,
    MetricsWindow,
    _metrics_from_counts,
    compute_zone_metrics,
    log_zone_events,
    zone_metrics_by_point,
)
from rallyforge.pipeline import refine_tracks, solve_point_trajectories
from rallyforge.scoring import advance_score, new_match
from rallyforge.simulate import SimConfig, simulate_clip

from kinematics_reference import BallKeyframe, table_of, trajectories_of

WINNER = PointOutcome(winner="p1", how="Winner")


def serve_point_fixture():
    """One serve point from frame 0 to 50: contact at frame 5, serve bounce 15,
    return contact 25, rally bounce 40, with matching trajectory keyframes as
    a list."""
    events = (
        EventAnnotation(frame=5, kind=EventKind.CONTACT, player_id="p1"),
        EventAnnotation(frame=15, kind=EventKind.BOUNCE),
        EventAnnotation(frame=25, kind=EventKind.CONTACT, player_id="p2"),
        EventAnnotation(frame=40, kind=EventKind.BOUNCE),
    )
    keyframes = [
        BallKeyframe(t=5 / 25, position=(1.0, -11.0), kind=EventKind.CONTACT,
                     height=2.8, spin=SpinType.TOPSPIN),
        BallKeyframe(t=15 / 25, position=(-3.9, 4.0), kind=EventKind.BOUNCE),
        BallKeyframe(t=25 / 25, position=(-1.5, 10.0), kind=EventKind.CONTACT,
                     height=1.0, spin=SpinType.BACKSPIN),
        BallKeyframe(t=40 / 25, position=(0.5, -10.0), kind=EventKind.BOUNCE),
    ]
    return ClipPoint(0, 50, WINNER, events), keyframes


def test_log_zone_events_serve_point():
    point, keyframes = serve_point_fixture()
    (records,) = log_zone_events(table_of(keyframes), [point])
    assert [r.kind.value for r in records] == ["Contact", "Bounce", "Contact", "Bounce"]
    assert [r.point_index for r in records] == [0, 0, 0, 0]

    serve_bounce = records[1]
    assert serve_bounce.t == pytest.approx(0.6)
    assert serve_bounce.zone.key() == "serve:Deuce:Wide"
    # one contact happened after the serve: later bounces use rally rules
    rally_bounce = records[3]
    assert rally_bounce.zone.key() == classify_zone(CourtPoint(0.5, -10.0), Phase.RALLY).key()
    assert rally_bounce.zone.key() == "rally:Center:Deep:Near"

    # contact zones come from the contact keyframes and carry the player id
    assert records[0].player_id == "p1"
    assert records[0].zone.key() == classify_zone(CourtPoint(1.0, -11.0), Phase.RALLY).key()
    assert records[2].zone.key() == classify_zone(CourtPoint(-1.5, 10.0), Phase.RALLY).key()


def test_log_zone_events_empty_point():
    # a trajectory has at least two keyframes, so a point without events has none
    _, keyframes = serve_point_fixture()
    with pytest.raises(ValidationError, match="0 events but its trajectory has 4 keyframes"):
        log_zone_events(table_of(keyframes), [ClipPoint(0, 10, WINNER, ())])


def test_log_zone_events_numbers_records_by_point():
    point, keyframes = serve_point_fixture()
    later = replace(point, events=point.events[:2])
    groups = log_zone_events(table_of(keyframes, keyframes[:2]), [point, later])
    assert [[r.point_index for r in g] for g in groups] == [[0, 0, 0, 0], [1, 1]]
    # the serve rule restarts with each point
    assert groups[1][1].zone.key() == "serve:Deuce:Wide"


def test_log_zone_events_net_cord_uses_rally_rules():
    events = (
        EventAnnotation(frame=5, kind=EventKind.CONTACT, player_id="p1"),
        EventAnnotation(frame=10, kind=EventKind.NET_CORD),
        EventAnnotation(frame=20, kind=EventKind.BOUNCE),
    )
    keyframes = [
        BallKeyframe(t=0.2, position=(1.0, -11.0), kind=EventKind.CONTACT,
                     height=2.8, spin=SpinType.TOPSPIN),
        BallKeyframe(t=0.4, position=(0.8, 0.0), kind=EventKind.NET_CORD),
        BallKeyframe(t=0.8, position=(0.6, 4.0), kind=EventKind.BOUNCE),
    ]
    (records,) = log_zone_events(table_of(keyframes), [ClipPoint(0, 30, WINNER, events)])
    assert records[1].kind is EventKind.NET_CORD
    assert records[1].zone.key() == classify_zone(CourtPoint(0.8, 0.0), Phase.RALLY).key()


def test_log_zone_events_validates_span_and_counts():
    point, keyframes = serve_point_fixture()
    with pytest.raises(ValidationError):
        log_zone_events(table_of(keyframes, keyframes), [point])
    # an event without a trajectory keyframe
    bad = replace(point, events=point.events + (EventAnnotation(frame=45, kind=EventKind.BOUNCE),))
    with pytest.raises(ValidationError):
        log_zone_events(table_of(keyframes), [bad])


def _loop_log_zone_events(table, points):
    """The per-event logger the array pass replaced: one evaluate and one classify per event."""
    point_records = []
    for point_index, (point, traj) in enumerate(zip(points, trajectories_of(table))):
        records = []
        contacts_seen = 0
        for e, k in zip(point.events, traj.keyframes):
            if e.kind is EventKind.CONTACT:
                contacts_seen += 1
                position = CourtPoint(*k.position)
                zone = classify_zone(position, Phase.RALLY)
            else:
                p = traj.evaluate(k.t)
                serve = e.kind is EventKind.BOUNCE and contacts_seen <= 1
                position = CourtPoint(p.x, p.y, p.z)
                zone = classify_zone(CourtPoint(p.x, p.y), Phase.SERVE if serve else Phase.RALLY)
            records.append(EventRecord(t=k.t, kind=e.kind, zone=zone, player_id=e.player_id,
                                       point_index=point_index, position=position))
        point_records.append(records)
    return point_records


def _record_bits(point_records):
    return [[(np.array([r.t, *r.position.as_xyz()]).view(np.int64).tolist(), r.kind, r.zone,
              r.player_id, r.point_index) for r in records] for records in point_records]


@pytest.mark.parametrize("seed, degraded", [(0, False), (5, True), (8, True)])
def test_log_zone_events_equals_the_per_event_loop(seed, degraded):
    noise = dict(pixel_noise_sigma_px=1.0, quantize_pixels=True, dropout_rate=0.1)
    clip = clip_from_dict(simulate_clip(
        SimConfig(seed=seed, points=8, **(noise if degraded else {})))[0])
    trajectories = solve_point_trajectories(
        clip, refine_tracks(to_court_space(clip), clip, DEFAULT_CONFIG))
    got = log_zone_events(trajectories, clip.points)
    want = _loop_log_zone_events(trajectories, clip.points)
    assert sum(map(len, got)) > 30
    assert _record_bits(got) == _record_bits(want)


def test_log_zone_events_checks_every_count_before_any_position():
    point, keyframes = serve_point_fixture()
    two = table_of(keyframes, [replace(k, t=k.t + 2.0) for k in keyframes])
    # point 0's bounce evaluates to NaN when the velocity from it to the next
    # contact is infinite; the assembler refuses such a segment, so the table
    # is built around it
    segments = two.segments.copy()
    segments[1, SEGMENT_FIELDS.index("vx")] = float("inf")
    far = BallTrajectories(two.t, two.x, two.y, two.kind, two.height, two.spin, two.counts,
                           segments)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValidationError, match="needs finite coordinates"):
            log_zone_events(far, [point, point])
        short = replace(point, events=point.events[:3])
        with pytest.raises(ValidationError, match="point 1 has 3 events but its trajectory has 4"):
            log_zone_events(far, [point, short])
    # a keyframe at infinity, or finite ones whose velocity overflows, never
    # reach the logger: their trajectory is refused
    at_infinity = [replace(keyframes[0], position=(float("inf"), -11.0)), *keyframes[1:]]
    overflowing = [*keyframes[:1], replace(keyframes[1], position=(-1e308, 4.0)),
                   replace(keyframes[2], position=(1e308, 10.0)), *keyframes[3:]]
    for edited, message in (
            (at_infinity, "keyframe 0 (Contact) has a non-finite position (inf, -11.0)"),
            (overflowing, "keyframe 0 (Contact) starts a segment whose vx is not finite (-inf)")):
        with pytest.raises(ValidationError) as raised:
            table_of(edited)
        assert str(raised.value) == f"point 0: {message}"


# ------------------------------------------------------------
# Windowed metrics
# ------------------------------------------------------------


def _rec(point_index, zone_key="rally:Center:Deep:Near", kind=EventKind.BOUNCE):
    zone = classify_zone(CourtPoint(0.5, -10.0), Phase.RALLY)
    assert zone.key() == "rally:Center:Deep:Near"
    zones = {
        "rally:Center:Deep:Near": zone,
        "rally:Left:Short:Far": classify_zone(CourtPoint(-2.0, 3.0), Phase.RALLY),
        "serve:Deuce:Wide": classify_zone(CourtPoint(-3.9, 4.0), Phase.SERVE),
    }
    return EventRecord(t=float(point_index), kind=kind, zone=zones[zone_key],
                       player_id=None, point_index=point_index, position=CourtPoint(0.0, 0.0))


def _point_counts(records, n_points):
    """``compute_zone_metrics`` of each point's records alone."""
    return [compute_zone_metrics([r for r in records if r.point_index == i])
            for i in range(n_points)]


def _match_metrics(records):
    """The MatchStart metrics of records that all count as one point's."""
    return zone_metrics_by_point([compute_zone_metrics(records)],
                                 [new_match()])[0][MetricsWindow.MATCH_START]


def _windowed_zone_metrics(records, score_timeline, window):
    """One window's metrics counted from scratch: the reference for zone_metrics_by_point.

    ``score_timeline[i]`` is the score before point ``i``. MatchStart counts
    every record; CurrentGame counts only the trailing points whose score
    shares the last point's games-and-sets signature (an empty timeline
    keeps every record, as one game).
    """
    if window is MetricsWindow.CURRENT_GAME and score_timeline:
        signatures = [(state.sets, state.games) for state in score_timeline]
        included = set()
        for i in range(len(signatures) - 1, -1, -1):
            if signatures[i] != signatures[-1]:
                break
            included.add(i)
        records = [r for r in records if r.point_index in included]
    return _metrics_from_counts(window, compute_zone_metrics(records))


def test_metrics_single_zone_is_hundred_percent():
    records = [_rec(i) for i in range(4)]
    m = _match_metrics(records)
    assert m.counts["Bounce"] == {"rally:Center:Deep:Near": 4}
    assert m.percentages["Bounce"] == {"rally:Center:Deep:Near": 100.0}


def test_metrics_three_to_one_split():
    records = [_rec(0), _rec(1), _rec(2), _rec(3, "rally:Left:Short:Far")]
    m = _match_metrics(records)
    assert m.percentages["Bounce"] == {
        "rally:Center:Deep:Near": 75.0,
        "rally:Left:Short:Far": 25.0,
    }


def test_metrics_kinds_are_separate():
    records = [_rec(0), _rec(0, kind=EventKind.CONTACT), _rec(1, kind=EventKind.CONTACT)]
    counts = compute_zone_metrics(records)
    assert counts["Bounce"]["rally:Center:Deep:Near"] == 1
    assert counts["Contact"]["rally:Center:Deep:Near"] == 2


def test_metrics_empty_window():
    assert compute_zone_metrics([]) == {}
    m = _match_metrics([])
    assert m.counts == {} and m.percentages == {}


def test_metrics_percentages_apportion_to_exactly_hundred():
    # six equal zones naively round to 16.7 each (100.2 total)
    zones = [
        classify_zone(CourtPoint(x, y), Phase.RALLY)
        for x, y in [(-2, 3), (0, 3), (2, 3), (-2, -3), (0, -3), (2, -3)]
    ]
    assert len({z.key() for z in zones}) == 6
    records = [
        EventRecord(t=float(i), kind=EventKind.BOUNCE, zone=z, player_id=None, point_index=0,
                    position=CourtPoint(0.0, 0.0))
        for i, z in enumerate(zones)
    ]
    m = _match_metrics(records)
    values = m.percentages["Bounce"].values()
    assert sum(values) == pytest.approx(100.0, abs=1e-9)
    assert all(v in (16.6, 16.7) for v in values)


def test_metrics_percentage_sum_invariant_random_fixtures():
    rng = np.random.default_rng(31)
    zone_pool = [
        classify_zone(CourtPoint(float(x), float(y)), Phase.RALLY)
        for x, y in [(-2, 3), (0, 3), (2, 3), (-2, -3), (0, -3), (2, -3), (0, 10), (3, -11)]
    ]
    for _ in range(50):
        n = int(rng.integers(1, 40))
        records = [
            EventRecord(t=float(i), kind=EventKind.BOUNCE,
                        zone=zone_pool[int(rng.integers(len(zone_pool)))],
                        player_id=None, point_index=0, position=CourtPoint(0.0, 0.0))
            for i in range(n)
        ]
        m = _match_metrics(records)
        assert sum(m.percentages["Bounce"].values()) == pytest.approx(100.0, abs=0.1)


def test_current_game_window_filters_by_game_boundary():
    # p1 wins points 0-3 (game one), then points 4-5 start game two
    states = [new_match()]
    for _ in range(5):
        states.append(advance_score(states[-1], "p1"))
    score_timeline = states[:6]
    assert score_timeline[4].games != score_timeline[3].games  # boundary after point 3

    records = [_rec(i) for i in range(6)]
    snapshots = zone_metrics_by_point(_point_counts(records, 6), score_timeline)
    assert snapshots[3][MetricsWindow.CURRENT_GAME].counts["Bounce"]["rally:Center:Deep:Near"] == 4
    current = snapshots[-1][MetricsWindow.CURRENT_GAME]
    assert current.counts["Bounce"]["rally:Center:Deep:Near"] == 2
    full = snapshots[-1][MetricsWindow.MATCH_START]
    assert full.counts["Bounce"]["rally:Center:Deep:Near"] == 6


def test_current_game_window_spans_whole_tiebreak():
    state = new_match()
    # reach 6-6: alternate game wins (server alternates anyway)
    for game in range(12):
        winner = state.players[game % 2]
        for _ in range(4):
            state = advance_score(state, winner)
    assert state.tiebreak_points is not None
    timeline = [state]
    for i in range(4):  # four tiebreak points: same game signature throughout
        state = advance_score(state, state.players[i % 2])
        timeline.append(state)
    records = [_rec(i) for i in range(len(timeline))]
    snapshots = zone_metrics_by_point(_point_counts(records, len(timeline)), timeline)
    m = snapshots[-1][MetricsWindow.CURRENT_GAME]
    assert m.counts["Bounce"]["rally:Center:Deep:Near"] == len(timeline)


def test_metrics_to_dict_round_trips_cleanly():
    records = [_rec(0), _rec(1, "serve:Deuce:Wide")]
    d = _match_metrics(records).to_dict()
    assert d["window"] == "MatchStart"
    assert d["counts"]["Bounce"]["serve:Deuce:Wide"] == 1
    assert d["percentages"]["Bounce"]["rally:Center:Deep:Near"] == 50.0


# ------------------------------------------------------------
# Per-point snapshots
# ------------------------------------------------------------


def _random_match(rng, n_points):
    """Records of random zones and kinds, and the score before each point."""
    timeline = [new_match()]
    for _ in range(n_points):
        state = timeline[-1]
        timeline.append(advance_score(state, state.players[int(rng.integers(2))]))
    keys = ["rally:Center:Deep:Near", "rally:Left:Short:Far", "serve:Deuce:Wide"]
    kinds = [EventKind.BOUNCE, EventKind.CONTACT, EventKind.NET_CORD]
    records = [
        _rec(i, keys[int(rng.integers(len(keys)))], kinds[int(rng.integers(len(kinds)))])
        for i in range(n_points)
        for _ in range(int(rng.integers(0, 7)))  # some points log nothing
    ]
    return records, timeline


def test_zone_metrics_by_point_equal_compute_zone_metrics_on_each_prefix():
    rng = np.random.default_rng(47)
    game_changes = 0
    for _ in range(12):
        n = int(rng.integers(1, 40))
        records, timeline = _random_match(rng, n)
        game_changes += sum((a.sets, a.games) != (b.sets, b.games)
                            for a, b in zip(timeline[:n], timeline[1:n]))
        snapshots = zone_metrics_by_point(_point_counts(records, n), timeline)
        assert len(snapshots) == n
        for i, snapshot in enumerate(snapshots):
            upto = [r for r in records if r.point_index <= i]
            for window in MetricsWindow:
                assert snapshot[window] == _windowed_zone_metrics(upto, timeline[:i + 1], window)
    assert game_changes > 10


def test_zone_metrics_by_point_needs_a_score_per_point():
    with pytest.raises(ValidationError):
        zone_metrics_by_point([{}, {}], [new_match()])
