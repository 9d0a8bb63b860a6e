"""Cue generation tests: replay overlays, joint angles, and static summaries."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rallyforge.cinematography import (
    CameraAnchor,
    CameraMotion,
    EventCategory,
    PointSummary,
    ShotSize,
    ShotSpec,
    classify_point_category,
    compile_camera_timeline,
    plan_point_shots,
)
from rallyforge import pipeline
from rallyforge.court import COURT, CourtPoint, Phase, classify_zone
from rallyforge.errors import DataUnavailable, ValidationError
from rallyforge.ingest import CourtTracks, EventKind, PointOutcome, clip_from_dict
from rallyforge.pipeline import reconstruct_scene
from rallyforge.projection import Homography
from rallyforge.scene import parse_scene, serialize_scene
from rallyforge.scene_metrics import EventRecord
from rallyforge.scoring import advance_score, new_match, point_context_labels
from rallyforge.simulate import SimConfig, simulate_clip
from rallyforge.viz_cues import (
    HEATMAP_CELL_M,
    HEATMAP_NX,
    HEATMAP_NY,
    HEATMAP_ORIGIN,
    CueKind,
    HeatmapGrid,
    PositionHeatmaps,
    VizCue,
    generate_dynamic_cues,
    generate_static_cues,
    joint_angle,
    shot_polylines,
)

from test_ingest import make_clip_dict


# ------------------------------------------------------------
# fixtures
# ------------------------------------------------------------


def _record(t, kind, pos, point_index=0, player=None):
    phase = Phase.RALLY
    return EventRecord(t=t, kind=kind, zone=classify_zone(CourtPoint(*pos), phase),
                       player_id=player, point_index=point_index,
                       position=CourtPoint(float(pos[0]), float(pos[1])))


def rally_fixture(point_index=0, t0=0.0):
    """A four-event point: serve, bounce, return, bounce (times offset by t0)."""
    records = [
        _record(t0 + 0.2, EventKind.CONTACT, (0.5, -11.0), point_index, "p1"),
        _record(t0 + 0.8, EventKind.BOUNCE, (-3.0, 5.0), point_index),
        _record(t0 + 1.5, EventKind.CONTACT, (-1.0, 10.5), point_index, "p2"),
        _record(t0 + 2.5, EventKind.BOUNCE, (2.0, -8.0), point_index),
    ]
    summary = PointSummary(
        point_index=point_index, t_start=t0, t_end=t0 + 4.0,
        outcome=PointOutcome(winner="p1", how="Winner"),
        shot_count=2, net_approach=False, labels_before=frozenset(),
        event_times=tuple(r.t for r in records))
    return summary, records


def replay_timeline(summary, window_end=None):
    window_end = window_end if window_end is not None else summary.t_end + 5.0
    shots = plan_point_shots(summary, classify_point_category(summary), window_end)
    return compile_camera_timeline(shots, None, (summary.t_start, window_end))


def cues_of(cues, kind):
    return [c for c in cues if c.kind is kind]


# ------------------------------------------------------------
# joint angles
# ------------------------------------------------------------


def test_joint_angle_examples():
    straight = {"shoulder": (0.0, 0.0), "elbow": (1.0, 0.0), "wrist": (2.0, 0.0)}
    assert joint_angle(straight, "elbow") == pytest.approx(180.0, abs=1e-9)
    bent = {"shoulder": (0.0, 1.0), "elbow": (0.0, 0.0), "wrist": (1.0, 0.0)}
    assert joint_angle(bent, "elbow") == pytest.approx(90.0, abs=1e-9)
    swung = {"shoulder": (0.0, 0.0), "elbow": (1.0, 0.0), "wrist": (2.0, 0.5)}
    want = 180.0 - math.degrees(math.atan2(0.5, 1.0))
    assert joint_angle(swung, "elbow") == pytest.approx(want, abs=1e-6)  # ~153.43
    knee = {"hip": (0.0, 2.0), "knee": (0.0, 1.0), "ankle": (0.0, 0.0)}
    assert joint_angle(knee, "knee") == pytest.approx(180.0)


def test_joint_angle_missing_data():
    with pytest.raises(DataUnavailable):
        joint_angle({"elbow": (0.0, 0.0), "wrist": (1.0, 0.0)}, "elbow")
    with pytest.raises(DataUnavailable):
        joint_angle({"shoulder": (0, 0), "elbow": (1, 0), "wrist": (2, 0)}, "ankle")
    degenerate = {"shoulder": (1.0, 0.0), "elbow": (1.0, 0.0), "wrist": (2.0, 0.0)}
    with pytest.raises(DataUnavailable):
        joint_angle(degenerate, "elbow")
    for elbow in (None, (math.nan, 0.0), (1.0, math.inf)):
        with pytest.raises(DataUnavailable, match="no finite position"):
            joint_angle({"shoulder": (0.0, 0.0), "elbow": elbow, "wrist": (2.0, 0.0)}, "elbow")


# ------------------------------------------------------------
# dynamic cues
# ------------------------------------------------------------


def test_minimal_point_gets_trail_outlines_serve_and_count():
    summary, records = rally_fixture()
    records = records[:2]  # serve and its bounce only
    timeline = replay_timeline(summary)
    cues = generate_dynamic_cues(summary, records, timeline)
    assert len(cues_of(cues, CueKind.TRAJECTORY_TRAIL)) == 1
    assert len(cues_of(cues, CueKind.HIGHLIGHT_OUTLINE)) == 2
    assert len(cues_of(cues, CueKind.SERVE_DIRECTION)) == 1
    counts = [c.payload["count"] for c in cues_of(cues, CueKind.SHOT_COUNT)]
    assert counts == [1]
    assert cues_of(cues, CueKind.FLOATING_TEXT) == []
    assert cues_of(cues, CueKind.JOINT_ANGLE) == []


def test_trail_spans_the_replay_and_follows_the_ball():
    summary, records = rally_fixture()
    timeline = replay_timeline(summary)
    replay = next(s for s in timeline.shots if s.spec.purpose == "replay")
    (trail,) = cues_of(
        generate_dynamic_cues(summary, records, timeline),
        CueKind.TRAJECTORY_TRAIL)
    assert trail.anchor == "ball"
    assert (trail.t_start, trail.t_end) == (replay.t_start, replay.t_end)
    assert trail.payload["window_s"] == 0.8


def test_outlines_center_on_presented_event_times():
    summary, records = rally_fixture()
    timeline = replay_timeline(summary)
    replay = next(s for s in timeline.shots if s.spec.purpose == "replay")
    cues = generate_dynamic_cues(summary, records, timeline)
    outlines = cues_of(cues, CueKind.HIGHLIGHT_OUTLINE)
    assert len(outlines) == 4
    src0 = replay.source_span[0]
    for cue, rec in zip(outlines, records):
        presented = replay.t_start + (rec.t - src0)
        lo = max(replay.t_start, presented - 0.3)
        hi = min(replay.t_end, presented + 0.3)
        assert cue.t_start == pytest.approx(lo, abs=1e-9)
        assert cue.t_end == pytest.approx(hi, abs=1e-9)
        assert cue.anchor == rec.position


def test_serve_direction_polyline_runs_serve_to_first_bounce():
    summary, records = rally_fixture()
    timeline = replay_timeline(summary)
    cues = generate_dynamic_cues(summary, records, timeline)
    (serve,) = cues_of(cues, CueKind.SERVE_DIRECTION)
    assert serve.payload["polyline"] == [[0.5, -11.0], [-3.0, 5.0]]
    assert serve.anchor == records[0].position


def test_no_serve_direction_when_replay_misses_the_serve():
    summary, records = rally_fixture()
    shots = [
        ShotSpec(t_start=0.0, duration=4.0, size=ShotSize.MEDIUM,
                 anchor=CameraAnchor.BASELINE, motion=CameraMotion.STATIC,
                 purpose="live", point_index=0),
        ShotSpec(t_start=4.0, duration=2.0, size=ShotSize.MEDIUM,
                 anchor=CameraAnchor.CORNER, motion=CameraMotion.STATIC,
                 purpose="replay", point_index=0, source_span=(2.0, 4.0)),
    ]
    timeline = compile_camera_timeline(shots, None, (0.0, 6.0))
    cues = generate_dynamic_cues(summary, records, timeline)
    assert cues_of(cues, CueKind.SERVE_DIRECTION) == []
    # only the final bounce (t=2.5) is inside the replayed footage
    assert len(cues_of(cues, CueKind.HIGHLIGHT_OUTLINE)) == 1
    assert cues_of(cues, CueKind.SHOT_COUNT) == []


def test_floating_text_iff_context_labels_active():
    summary, records = rally_fixture()
    timeline = replay_timeline(summary)
    fresh = generate_dynamic_cues(summary, records, timeline)
    assert cues_of(fresh, CueKind.FLOATING_TEXT) == []

    state = new_match()
    for _ in range(3):
        state = advance_score(state, "p1")  # 40-0: game point for the server
    summary = replace(summary, labels_before=frozenset(point_context_labels(state)))
    cues = generate_dynamic_cues(summary, records, timeline)
    texts = cues_of(cues, CueKind.FLOATING_TEXT)
    assert [t.payload["text"] for t in texts] == ["game point"]
    replay = next(s for s in timeline.shots if s.spec.purpose == "replay")
    assert texts[0].t_start == replay.t_start
    assert texts[0].t_end == pytest.approx(min(replay.t_start + 1.5, replay.t_end))


def test_shot_counts_increase_within_point_and_reset_across_points():
    summary0, records0 = rally_fixture(point_index=0)
    timeline0 = replay_timeline(summary0)
    counts0 = [c.payload["count"] for c in cues_of(
        generate_dynamic_cues(summary0, records0, timeline0),
        CueKind.SHOT_COUNT)]
    assert counts0 == sorted(counts0) and len(set(counts0)) == len(counts0)
    assert counts0 == [1, 2]

    summary1, records1 = rally_fixture(point_index=1, t0=10.0)
    shots = plan_point_shots(summary1, classify_point_category(summary1), 19.0)
    timeline1 = compile_camera_timeline(shots, None, (10.0, 19.0))
    counts1 = [c.payload["count"] for c in cues_of(
        generate_dynamic_cues(summary1, records1, timeline1),
        CueKind.SHOT_COUNT)]
    assert counts1 == [1, 2]  # starts over for the new point


def test_joint_angle_cue_uses_clip_pose_data():
    doc, _, _ = make_clip_dict()
    doc["frames"][5]["players"][0]["joints_px"] = {
        "shoulder": [100.0, 200.0], "elbow": [120.0, 200.0], "wrist": [140.0, 190.0]}
    clip = clip_from_dict(doc)

    summary, records = rally_fixture()
    records[0] = EventRecord(t=0.2, kind=EventKind.CONTACT, zone=records[0].zone,
                             player_id="p1", point_index=0,
                             position=records[0].position)
    timeline = replay_timeline(summary)
    cues = generate_dynamic_cues(summary, records, timeline, clip=clip)
    (cue,) = cues_of(cues, CueKind.JOINT_ANGLE)
    assert cue.anchor == "p1"
    assert cue.payload["joint"] == "elbow"
    want = 180.0 - math.degrees(math.atan2(10.0, 20.0))
    assert cue.payload["angle_deg"] == pytest.approx(want, abs=1e-6)

    # same clip without pose data produces no joint cues
    doc2, _, _ = make_clip_dict()
    cues2 = generate_dynamic_cues(summary, records, timeline, clip=clip_from_dict(doc2))
    assert cues_of(cues2, CueKind.JOINT_ANGLE) == []


@pytest.mark.parametrize("seed", range(6))
def test_null_elbow_gives_no_joint_angle_cue_and_no_nan(seed):
    doc, _ = simulate_clip(SimConfig(seed=seed, points=3))
    assert cues_of(reconstruct_scene(clip_from_dict(doc)).cues, CueKind.JOINT_ANGLE)
    for fr in doc["frames"]:
        for pl in fr["players"]:
            if "joints_px" in pl:
                pl["joints_px"]["elbow"] = None
    scene = reconstruct_scene(clip_from_dict(doc))
    assert cues_of(scene.cues, CueKind.JOINT_ANGLE) == []
    assert "NaN" not in serialize_scene(scene)


def test_all_dynamic_cues_lie_inside_replay_spans():
    summary, records = rally_fixture()
    timeline = replay_timeline(summary)
    replays = [s for s in timeline.shots if s.spec.purpose == "replay"]
    cues = generate_dynamic_cues(summary, records, timeline)
    assert cues, "expected cues for a replayed point"
    for cue in cues:
        assert any(s.t_start - 1e-9 <= cue.t_start and cue.t_end <= s.t_end + 1e-9
                   for s in replays), cue


def test_no_replay_shots_produce_no_dynamic_cues():
    summary, records = rally_fixture()
    shots = plan_point_shots(summary, [EventCategory.EMOTION], summary.t_end + 0.1)
    timeline = compile_camera_timeline(shots, None, (0.0, summary.t_end + 0.1))
    cues = generate_dynamic_cues(summary, records, timeline)
    assert cues == []


# ------------------------------------------------------------
# static cues
# ------------------------------------------------------------


def make_tracks(n=100, fps=25.0, p1=(1.0, -9.0), p2=(-1.5, 10.0)):
    players = {
        "p1": np.tile(np.asarray(p1, dtype=float), (n, 1)),
        "p2": np.tile(np.asarray(p2, dtype=float), (n, 1)),
    }
    return CourtTracks(homography=Homography.identity(), calibration={"median_px": 0.0},
                       fps=fps, ball=np.full((n, 2), np.nan), players=players)


def _windowed_static_cues(records, heatmaps, window, display_span=None):
    """The static cues of a window that filtered and sorted the whole record log
    on every call, kept as the reference for the per-point polylines."""
    t_lo, t_hi = window
    span = display_span if display_span is not None else window
    recs = sorted((r for r in records if t_lo <= r.t <= t_hi), key=lambda r: r.t)

    # one polyline per shot: the contact and every ball event up to the next contact
    polylines = []
    for i, rec in enumerate(recs):
        if rec.kind is not EventKind.CONTACT:
            continue
        line = [[rec.position.x, rec.position.y]]
        for j in range(i + 1, len(recs)):
            nxt = recs[j]
            if nxt.point_index != rec.point_index:
                break
            line.append([nxt.position.x, nxt.position.y])
            if nxt.kind is EventKind.CONTACT:
                break
        polylines.append(line)

    grid = heatmaps.grid(window)

    cues = []
    if polylines:
        cues.append(VizCue(CueKind.STATIC_TRAJECTORY_MAP, span[0], span[1], None,
                           {"polylines": polylines}))
    if grid.n_samples > 0:
        cues.append(VizCue(CueKind.POSITION_HEATMAP, span[0], span[1], None,
                           {"grid": grid.to_dict()}))
    return cues


def test_trajectory_map_has_one_polyline_per_shot():
    _, records0 = rally_fixture(point_index=0)
    _, records1 = rally_fixture(point_index=1, t0=5.0)
    records1 = records1[:2]  # second point: serve and bounce only
    polylines = shot_polylines(records0) + shot_polylines(records1)
    cues = generate_static_cues(polylines, PositionHeatmaps(make_tracks(n=250)), (0.0, 10.0))
    (traj_map,) = cues_of(cues, CueKind.STATIC_TRAJECTORY_MAP)
    polylines = traj_map.payload["polylines"]
    assert len(polylines) == 3  # three contacts across the two points
    assert polylines[0] == [[0.5, -11.0], [-3.0, 5.0], [-1.0, 10.5]]
    assert polylines[1] == [[-1.0, 10.5], [2.0, -8.0]]
    assert polylines[2] == [[0.5, -11.0], [-3.0, 5.0]]  # stops at its point's end


def test_heatmap_concentrates_single_cell_and_ignores_outside():
    tracks = make_tracks(n=50, p1=(0.2, -5.3), p2=(20.0, 0.0))  # p2 stands off court
    cues = generate_static_cues([], PositionHeatmaps(tracks), (0.0, 2.0))
    (heat,) = cues_of(cues, CueKind.POSITION_HEATMAP)
    grid = heat.payload["grid"]
    assert grid["cell_size_m"] == 0.5
    assert grid["origin"] == [-5.485, -11.885]
    assert (grid["nx"], grid["ny"]) == (22, 48)
    assert grid["n_samples"] == 50  # only p1's samples land on the court
    weights = np.asarray(grid["weights"])
    assert weights.shape == (48, 22)
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)
    ix = int((0.2 + 5.485) / 0.5)
    iy = int((-5.3 + 11.885) / 0.5)
    assert weights[iy, ix] == pytest.approx(1.0)


def test_heatmap_splits_weight_between_players():
    tracks = make_tracks(n=40, p1=(1.0, -9.0), p2=(-1.5, 10.0))
    cues = generate_static_cues([], PositionHeatmaps(tracks), (0.0, 2.0))
    (heat,) = cues_of(cues, CueKind.POSITION_HEATMAP)
    weights = np.asarray(heat.payload["grid"]["weights"])
    assert weights.max() == pytest.approx(0.5)
    assert (weights > 0).sum() == 2


def test_empty_window_omits_both_static_cues():
    assert generate_static_cues([], PositionHeatmaps(make_tracks()), (100.0, 200.0)) == []
    # the window picks samples only: the shots it is given are listed all the same
    _, records = rally_fixture()
    cues = generate_static_cues(shot_polylines(records), PositionHeatmaps(make_tracks()),
                                (50.0, 60.0))
    assert [c.kind for c in cues] == [CueKind.STATIC_TRAJECTORY_MAP]


def test_no_players_gives_no_heatmap():
    tracks = make_tracks()
    tracks.players.clear()
    _, records = rally_fixture()
    cues = generate_static_cues(shot_polylines(records), PositionHeatmaps(tracks), (0.0, 4.0))
    assert cues and not cues_of(cues, CueKind.POSITION_HEATMAP)
    assert generate_static_cues([], PositionHeatmaps(tracks), (0.0, 4.0)) == []


def _loop_heatmap_weights(points, court=COURT, cell_size_m=0.5):
    """The per-sample binning loop HeatmapGrid.from_samples replaced, kept as its reference."""
    origin = (-court.doubles_half_width, -court.baseline_y)
    nx = int(math.ceil(2 * court.doubles_half_width / cell_size_m))
    ny = int(math.ceil(2 * court.baseline_y / cell_size_m))
    counts = np.zeros((ny, nx))
    kept = 0
    for x, y in points:
        if abs(x) > court.doubles_half_width or abs(y) > court.baseline_y:
            continue
        ix = min(int((x - origin[0]) / cell_size_m), nx - 1)
        iy = min(int((y - origin[1]) / cell_size_m), ny - 1)
        counts[iy, ix] += 1
        kept += 1
    if kept:
        counts = counts / kept
    return tuple(tuple(float(w) for w in row) for row in counts), kept


def test_heatmap_binning_is_bit_equal_to_the_loop():
    hw, by = COURT.doubles_half_width, COURT.baseline_y
    rng = np.random.default_rng(5)
    edges = [[hw, by], [-hw, -by], [hw, -by], [0.0, 0.0], [-0.0, by],
             [np.nextafter(hw, 9.0), 0.0], [0.0, np.nextafter(-by, -99.0)]]
    points = np.vstack([rng.uniform(-8.0, 14.0, size=(3000, 2)), edges])
    grid = HeatmapGrid.from_samples(points)
    assert (grid.weights, grid.n_samples) == _loop_heatmap_weights(points.tolist())
    empty = HeatmapGrid.from_samples(np.empty((0, 2)))
    assert (empty.weights, empty.n_samples) == _loop_heatmap_weights([])


def _wandering_tracks(n=400, fps=25.0):
    """Three players who walk on and off the court and drop some samples."""
    rng = np.random.default_rng(12)
    players = {}
    for pid in ("p1", "p2", "p3"):
        xy = np.cumsum(rng.normal(0.0, 0.6, size=(n, 2)), axis=0) + rng.uniform(-4.0, 4.0, 2)
        xy[rng.random(n) < 0.1] = np.nan
        xy[rng.random(n) < 0.05, 1] = np.nan
        players[pid] = xy
    return CourtTracks(homography=Homography.identity(), calibration={"median_px": 0.0},
                       fps=fps, ball=np.full((n, 2), np.nan), players=players)


def _window_samples(tracks, window):
    """Every present player sample inside a window, players in sorted order."""
    frame_t = np.arange(tracks.n_frames) / tracks.fps
    in_window = (frame_t >= window[0]) & (frame_t <= window[1])
    xy = np.reshape([tracks.players[pid][in_window] for pid in sorted(tracks.players)], (-1, 2))
    return xy[~np.isnan(xy).any(axis=1)]


def test_position_heatmap_snapshots_equal_binning_each_window():
    tracks = _wandering_tracks()
    heatmaps = PositionHeatmaps(tracks)
    # growing match-start windows (one repeated, one ending exactly on a frame,
    # one past the clip) mixed with windows that start later or end earlier
    windows = [(0.0, 0.0), (0.0, 0.03), (-1.0, 1.0), (0.0, 1.0), (0.5, 3.0), (0.0, 4.98),
               (0.0, 2.0), (0.0, 7.5), (7.5, 7.5), (0.01, 0.03), (0.0, 15.96), (0.0, 100.0)]
    off_court = 0
    for window in windows:
        samples = _window_samples(tracks, window)
        grid = heatmaps.grid(window)
        assert grid == HeatmapGrid.from_samples(samples)
        off_court = max(off_court, len(samples) - grid.n_samples)
    assert off_court > 0


def test_position_heatmaps_reject_reversed_windows_and_allow_no_players():
    heatmaps = PositionHeatmaps(make_tracks())
    for window in ((0.0, math.nan), (math.nan, 1.0), (3.0, 2.0)):
        with pytest.raises(ValidationError):
            heatmaps.grid(window)
    tracks = make_tracks()
    tracks.players.clear()
    assert PositionHeatmaps(tracks).grid((0.0, 4.0)).n_samples == 0


def test_static_cues_share_heatmap_binning_across_calls():
    _, records0 = rally_fixture(point_index=0)
    _, records1 = rally_fixture(point_index=1, t0=5.0)
    tracks = _wandering_tracks()
    heatmaps = PositionHeatmaps(tracks)
    polylines = shot_polylines(records0) + shot_polylines(records1)
    for t_hi in (4.0, 9.0, 15.0):
        window = (0.0, t_hi)
        cues = generate_static_cues(polylines, heatmaps, window)
        assert len(cues) == 2
        assert cues == generate_static_cues(polylines, PositionHeatmaps(tracks), window)
        (heat,) = cues_of(cues, CueKind.POSITION_HEATMAP)
        assert heat.payload["grid"] == HeatmapGrid.from_samples(
            _window_samples(tracks, window)).to_dict()


def test_static_cues_use_display_span():
    _, records = rally_fixture()
    cues = generate_static_cues(shot_polylines(records), PositionHeatmaps(make_tracks()),
                                (0.0, 4.0), display_span=(12.0, 15.0))
    assert cues and all((c.t_start, c.t_end) == (12.0, 15.0) for c in cues)


def test_static_cues_reject_reversed_windows():
    _, records = rally_fixture()
    heatmaps = PositionHeatmaps(make_tracks())
    for window in ((0.0, math.nan), (4.0, 1.0)):
        with pytest.raises(ValidationError, match="window must not be reversed"):
            generate_static_cues(shot_polylines(records), heatmaps, window)


def test_window_subsets_records_and_samples():
    # the caller picks the records, as one point's polylines each; the window
    # picks the samples
    _, records = rally_fixture()
    polylines = shot_polylines(records[:2])  # the serve and its bounce
    cues = generate_static_cues(polylines, PositionHeatmaps(make_tracks(n=100)), (0.0, 1.0))
    (traj_map,) = cues_of(cues, CueKind.STATIC_TRAJECTORY_MAP)
    listed = traj_map.payload["polylines"]
    assert listed == [[[0.5, -11.0], [-3.0, 5.0]]]
    # the map holds the polyline objects themselves, in a list of its own
    assert listed[0] is polylines[0] and listed is not polylines
    (heat,) = cues_of(cues, CueKind.POSITION_HEATMAP)
    assert heat.payload["grid"]["n_samples"] == 2 * 26  # frames 0..25 for two players


def test_shot_polylines_of_one_point():
    _, records = rally_fixture()
    lines = shot_polylines(records)
    assert lines == [[[0.5, -11.0], [-3.0, 5.0], [-1.0, 10.5]], [[-1.0, 10.5], [2.0, -8.0]]]
    # events before the first contact belong to no shot
    assert shot_polylines(records[1:2]) == [] and shot_polylines([]) == []
    assert shot_polylines(records[1:]) == [[[-1.0, 10.5], [2.0, -8.0]]]


def test_a_map_lists_exactly_the_shots_of_points_up_to_its_own():
    # the next point's serve sits on this point's end (events need only be
    # ordered by <=): the old window [0, t_end] took that serve in as a
    # one-event shot; the map of point 0 lists point 0's shots alone
    summary0, records0 = rally_fixture(point_index=0)
    _, records1 = rally_fixture(point_index=1, t0=summary0.t_end - 0.2)
    assert records1[0].t == summary0.t_end
    heatmaps = PositionHeatmaps(make_tracks(n=250))
    window = (0.0, summary0.t_end)
    (traj_map, _) = generate_static_cues(shot_polylines(records0), heatmaps, window)
    assert traj_map.payload["polylines"] == shot_polylines(records0)
    (leaky, _) = _windowed_static_cues(records0 + records1, heatmaps, window)
    assert leaky.payload["polylines"] == shot_polylines(records0) + [[[0.5, -11.0]]]


def _spied_reconstruction(monkeypatch, clip):
    """The scene of ``clip``, its event records, and each static cue call's
    (heatmaps, window, display span)."""
    logged, calls = [], []
    log_zone_events, static_cues = pipeline.log_zone_events, pipeline.generate_static_cues

    def log_spy(*args):
        logged.append(log_zone_events(*args))
        return logged[-1]

    def static_spy(polylines, heatmaps, window, display_span=None):
        calls.append((heatmaps, window, display_span))
        return static_cues(polylines, heatmaps, window, display_span)

    monkeypatch.setattr(pipeline, "log_zone_events", log_spy)
    monkeypatch.setattr(pipeline, "generate_static_cues", static_spy)
    scene = reconstruct_scene(clip)
    return scene, [r for recs in logged[0] for r in recs], calls


@pytest.mark.parametrize("seed", range(12))
def test_static_cues_equal_the_windowed_reference(monkeypatch, seed):
    clip = clip_from_dict(simulate_clip(SimConfig(seed=seed, points=20))[0])
    scene, records, calls = _spied_reconstruction(monkeypatch, clip)
    maps = cues_of(scene.cues, CueKind.STATIC_TRAJECTORY_MAP)
    assert len(maps) == len(calls) >= 4
    for heatmaps, window, span in calls:
        got = [c for c in scene.cues if (c.t_start, c.t_end) == span
               and c.kind in (CueKind.STATIC_TRAJECTORY_MAP, CueKind.POSITION_HEATMAP)]
        assert got == _windowed_static_cues(records, heatmaps, window, span)


def test_each_point_builds_its_polylines_once(monkeypatch):
    built = []

    def counted(records):
        built.append(records[0].point_index)
        return shot_polylines(records)

    monkeypatch.setattr(pipeline, "shot_polylines", counted)
    scene = reconstruct_scene(clip_from_dict(simulate_clip(SimConfig(seed=2, points=20))[0]))
    assert built == list(range(20))
    # every later map lists the earlier maps' polylines as the same objects
    first, *later = cues_of(scene.cues, CueKind.STATIC_TRAJECTORY_MAP)
    assert later
    for traj_map in later:
        shared = traj_map.payload["polylines"][:len(first.payload["polylines"])]
        assert all(a is b for a, b in zip(shared, first.payload["polylines"]))


# ------------------------------------------------------------
# types
# ------------------------------------------------------------


def test_cue_and_grid_validation():
    with pytest.raises(ValidationError):
        VizCue(CueKind.FLOATING_TEXT, 2.0, 2.0, None, {"text": "x"})
    with pytest.raises(ValidationError):
        HeatmapGrid(cell_size_m=0.5, origin=(0.0, 0.0), nx=2, ny=1,
                    weights=((0.5, -0.5),), n_samples=1)
    with pytest.raises(ValidationError):
        HeatmapGrid(cell_size_m=0.5, origin=(0.0, 0.0), nx=2, ny=1,
                    weights=((0.5, 0.2),), n_samples=3)
    with pytest.raises(ValidationError):
        HeatmapGrid(cell_size_m=0.5, origin=(0.0, 0.0), nx=3, ny=1,
                    weights=((0.5, 0.5),), n_samples=2)


def _loop_heatmap_check(weights, n_samples):
    """The per-cell check HeatmapGrid ran before its array form: the error, or None."""
    total = 0.0
    for row in weights:
        for w in row:
            if w < 0:
                return "heatmap weights must be nonnegative"
            total += w
    if n_samples > 0 and abs(total - 1.0) > 1e-9:
        return f"heatmap weights must sum to 1, got {total!r}"
    return None


def _heatmap_check(weights, n_samples):
    try:
        HeatmapGrid(cell_size_m=HEATMAP_CELL_M, origin=HEATMAP_ORIGIN, nx=HEATMAP_NX,
                    ny=HEATMAP_NY, weights=weights, n_samples=n_samples)
    except ValidationError as exc:
        return str(exc)
    return None


def _grid(flat):
    return tuple(tuple(row) for row in np.reshape(flat, (HEATMAP_NY, HEATMAP_NX)).tolist())


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), occupied=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
       cell=st.integers(0, HEATMAP_NX * HEATMAP_NY - 1),
       edit=st.sampled_from([None, -1e-300, -0.0, math.nan, math.inf, 1e-9, -1e-9, 2e-9]),
       n_samples=st.sampled_from([0, 1, 7]))
def test_heatmap_check_accepts_and_rejects_what_the_loop_does(seed, occupied, cell, edit,
                                                              n_samples):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 50, HEATMAP_NX * HEATMAP_NY) * (rng.random(HEATMAP_NX * HEATMAP_NY)
                                                             < occupied)
    flat = counts / max(counts.sum(), 1)
    if edit is not None:
        flat[cell] = edit if edit in (-1e-300, -0.0, math.nan, math.inf) else flat[cell] + edit
    weights = _grid(flat)
    assert _heatmap_check(weights, n_samples) == _loop_heatmap_check(weights, n_samples)


def test_heatmap_sum_is_taken_left_to_right():
    # totals within a few ulps of the 1e-9 bound, where a pairwise sum would
    # decide some grids the other way
    rng = np.random.default_rng(11)
    flat = rng.uniform(0.0, 1.0, HEATMAP_NX * HEATMAP_NY)
    flat /= flat.sum()
    flat[-1] += 1.0 + 1e-9 + 100 * np.spacing(1.0) - np.add.accumulate(flat)[-1]
    split = 0
    for _ in range(200):
        weights = _grid(flat)
        want = _loop_heatmap_check(weights, 1)
        assert _heatmap_check(weights, 1) == want
        split += (want is None) != (abs(float(np.sum(flat)) - 1.0) <= 1e-9)
        flat[-1] -= np.spacing(1.0)
    assert split > 0


def test_replay_shots_are_each_points_replays_in_timeline_order():
    scene = reconstruct_scene(clip_from_dict(simulate_clip(SimConfig(seed=3, points=6))[0]))
    camera = scene.camera
    replays = 0
    for i in range(7):
        want = tuple(shot for shot in camera.shots
                     if shot.spec.purpose == "replay" and shot.spec.point_index == i)
        assert camera.replay_shots(i) == want
        replays += len(want)
    assert replays > 0


def test_cue_to_dict_serializes_anchor_forms():
    point_cue = VizCue(CueKind.HIGHLIGHT_OUTLINE, 0.0, 0.6, CourtPoint(1.0, 2.0),
                       {"event": "Bounce"})
    entity_cue = VizCue(CueKind.TRAJECTORY_TRAIL, 0.0, 1.0, "ball",
                        {"window_s": 0.8, "ids": (1, 2)})
    scene = reconstruct_scene(clip_from_dict(simulate_clip(SimConfig(seed=0, points=1))[0]))
    scene = replace(scene, cues=(point_cue, entity_cue))
    d, d2 = scene.to_dict()["cues"]
    assert d["anchor"] == [1.0, 2.0, 0.0]
    assert d["kind"] == "HighlightOutline"
    assert d2["anchor"] == "ball"
    text = serialize_scene(scene)
    assert json.loads(text)["cues"][1]["payload"]["ids"] == [1, 2]
    assert parse_scene(text).cues == (point_cue, replace(entity_cue, payload={
        "window_s": 0.8, "ids": [1, 2]}))


def test_boundary_samples_fall_in_edge_cells():
    grid = HeatmapGrid.from_samples([(5.485, 11.885), (-5.485, -11.885)])
    w = np.asarray(grid.weights)
    assert w[47, 21] == pytest.approx(0.5)
    assert w[0, 0] == pytest.approx(0.5)
    assert grid.n_samples == 2
