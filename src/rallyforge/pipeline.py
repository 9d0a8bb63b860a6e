"""End-to-end reconstruction: one clip document in, one scene timeline out.

Stage order matters. Player tracks are refined first (gap fill per player,
then, for all players side by side in one array, a moving average applied
piecewise between event frames and resolution stabilization) because the
keyframe solve reads player positions: each Contact keyframe sits at the
hitter's refined foot. The lift before them maps the ball and all players
through the calibration in one pass. The ball is then
gap-filled and validated against its bounce baseline; it is not smoothed,
because only its Bounce and NetCord keyframe samples are read, and a moving
average cut at the keyframes would leave those as they are.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

import numpy as np

from .cinematography import (
    CameraMotion,
    EventCategory,
    classify_point_category,
    compile_camera_timeline,
    plan_point_shots,
    summarize_point,
)
from .config import DEFAULT_CONFIG, PipelineConfig
from .court import COURT
from .ingest import Clip, CourtTracks, EventKind, to_court_space
from .kinematics import (KIND_CODES, SPIN_CODES, BallTrajectories, assemble_trajectories,
                         evaluate_runs)
from .refine import (
    count_absent,
    fill_gaps_knn,
    smooth_moving_average_piecewise,
    stabilize_resolution,
    validate_ball_planar,
)
from .scene import EntityTracks, SampledTrack, ScenePoint, SceneTimeline
from .scene_metrics import compute_zone_metrics, log_zone_events, zone_metrics_by_point
from .scoring import ScoreState, advance_score
from .viz_cues import (PositionHeatmaps, VizCue, generate_dynamic_cues, generate_static_cues,
                       shot_polylines)


# ============================================================
# Track refinement
# ============================================================


def refine_tracks(tracks: CourtTracks, clip: Clip,
                  config: PipelineConfig = DEFAULT_CONFIG,
                  stats: Optional[dict] = None) -> CourtTracks:
    """Refine all lifted tracks in place and return them.

    Each track is gap-filled on its own, since each has its own gaps. The
    filled players are then placed side by side in one (n, 2P) array, so one
    smoothing call and one stabilization call refine them all; each player
    comes out bit for bit as refining it alone would leave it. Players are
    smoothed piecewise between event frames: direction changes cluster at
    ball events (split steps, reversals at contacts), so smoothing across
    them would round off real corners while smoothing between them only
    removes tracker jitter. ``stats`` receives the ball validator's outlier
    count, and as ``filled_samples`` the absent ball and player samples that
    gap fill filled.
    """
    ref = config.refinement
    event_frames = sorted({e.frame for e in clip.events})
    pids = sorted(tracks.players)
    filled = count_absent(tracks.ball) + sum(count_absent(tracks.players[p]) for p in pids)
    if pids:
        side_by_side = np.hstack([fill_gaps_knn(tracks.players[p], ref.knn_k) for p in pids])
        side_by_side = smooth_moving_average_piecewise(side_by_side, ref.ma_window,
                                                       event_frames)
        side_by_side = stabilize_resolution(side_by_side, tracks.homography,
                                            ref.stabilization_deadband_px)
        for i, pid in enumerate(pids):
            tracks.players[pid] = side_by_side[:, 2 * i:2 * i + 2].copy()

    ball = fill_gaps_knn(tracks.ball, ref.knn_k)
    tracks.ball = validate_ball_planar(ball, clip.events, knn_k=ref.knn_k, stats=stats)
    if stats is not None:
        stats["filled_samples"] = filled
    return tracks


# ============================================================
# Ball trajectories
# ============================================================


def solve_point_trajectories(clip: Clip, tracks: CourtTracks) -> BallTrajectories:
    """One ballistic trajectory per point, through one keyframe per in-play event.

    A Contact keyframe sits at the hitter's refined foot, the most reliable
    planar estimate at the moment of a hit, and takes its height and spin
    from the frame's annotation; a Bounce or NetCord keyframe sits at the
    refined ball sample of its frame. Every point's keyframes are gathered
    into columns and assembled in one ``assemble_trajectories`` call, which
    owns every keyframe rule: a Contact without an annotation has no height,
    and a keyframe without a refined position has no finite position.
    """
    events = [e for point in clip.points for e in point.events]
    frames = np.array([e.frame for e in events], dtype=np.int64)
    kind = np.array([KIND_CODES[e.kind] for e in events], dtype=np.int8)
    height = np.full(len(events), math.nan)
    spin = np.full(len(events), -1, dtype=np.int8)
    hitters: Dict[str, List[int]] = {}
    for i, e in enumerate(events):
        if e.kind is EventKind.CONTACT:
            hitters.setdefault(e.player_id, []).append(i)
            ann = clip.annotation_at(e.frame)
            if ann is not None:
                if ann.height_m is not None:
                    height[i] = ann.height_m
                spin[i] = SPIN_CODES[ann.spin]
    xy = tracks.ball[frames]
    for pid, rows in hitters.items():
        xy[rows] = tracks.players[pid][frames[rows]]
    return assemble_trajectories(frames / clip.header.fps, xy[:, 0], xy[:, 1], kind, height,
                                 spin, [len(point.events) for point in clip.points])


# ============================================================
# Scene sampling
# ============================================================


def _sample_grid(t_end: float, rate_hz: float) -> np.ndarray:
    # the first whole number of steps that reaches t_end; rounding first keeps
    # float noise in an exact multiple from adding a step
    n = math.ceil(round(t_end * rate_hz, 9)) + 1
    return np.arange(n) / rate_hz


def sample_entity_tracks(clip: Clip, tracks: CourtTracks,
                         trajectories: BallTrajectories,
                         rate_hz: float) -> Dict[str, SampledTrack]:
    """Resample refined tracks onto the export clock.

    Players interpolate linearly between frame samples at z = 0. Each ball
    sample is clamped into its point's span (``BallTrajectories.clamp``) and
    all of them are evaluated in one ``evaluate_runs`` pass, so every sample
    is defined even between points: there the ball holds the previous
    trajectory evaluated at its last keyframe, and before the first point it
    holds the first trajectory at its first keyframe. The grid
    ends at the first sample at or after the clip's last frame; when the rate
    does not divide the clip, that sample lies less than one step past it and
    holds every entity's last position.
    """
    fps = clip.header.fps
    t_end = clip.duration
    grid = _sample_grid(t_end, rate_hz)
    frame_grid = grid * fps
    frame_index = np.arange(clip.n_frames, dtype=float)

    sampled: Dict[str, SampledTrack] = {}
    for pid in sorted(tracks.players):
        series = tracks.players[pid]
        xyz = np.zeros((len(grid), 3))
        xyz[:, 0] = np.interp(frame_grid, frame_index, series[:, 0])
        xyz[:, 1] = np.interp(frame_grid, frame_index, series[:, 1])
        sampled[pid] = SampledTrack(entity_id=pid, rate_hz=rate_hz, samples=xyz)

    owner, at = trajectories.clamp(grid)
    ball = evaluate_runs(trajectories, at, np.bincount(owner, minlength=len(trajectories)))
    sampled["ball"] = SampledTrack(entity_id="ball", rate_hz=rate_hz, samples=ball)
    return sampled


# ============================================================
# Full reconstruction
# ============================================================


def reconstruct_scene(clip: Clip, config: PipelineConfig = DEFAULT_CONFIG,
                      stats: Optional[dict] = None) -> SceneTimeline:
    """Run the whole pipeline on one parsed clip.

    When ``stats`` is given, per-stage wall times and record counts
    (including ``filled_samples`` from gap fill, ``ball_outliers`` from the
    ball validator and, as ``contact_substitutions``, the Contact keyframes
    pinned to the hitter's foot) are written into it for reporting.
    """
    t_wall = time.perf_counter()

    def mark(name: str, since: float) -> float:
        now = time.perf_counter()
        if stats is not None:
            stats[name] = now - since
        return now

    tracks = to_court_space(clip)
    t = mark("lift_s", t_wall)

    tracks = refine_tracks(tracks, clip, config, stats)
    t = mark("refine_s", t)

    trajectories = solve_point_trajectories(clip, tracks)
    t = mark("kinematics_s", t)

    sampled = sample_entity_tracks(clip, tracks, trajectories,
                                   config.export.sample_rate_hz)
    t = mark("sampling_s", t)

    point_records = log_zone_events(trajectories, clip.points)
    records = [r for recs in point_records for r in recs]
    score_timeline: List[ScoreState] = [clip.header.score_before]
    for point in clip.points:
        score_timeline.append(advance_score(score_timeline[-1], point.outcome.winner))

    span = (0.0, sampled["ball"].t_end)
    n_points = len(clip.points)
    summaries = []
    shots = []
    for i in range(n_points):
        summary = summarize_point(clip, point_records[i], score_timeline[i], i)
        categories = classify_point_category(summary)
        window_end = clip.time_of(clip.points[i + 1].start_frame) if i + 1 < n_points else span[1]
        shots.extend(plan_point_shots(summary, categories, window_end, config.rig))
        summaries.append((summary, categories))

    camera = compile_camera_timeline(shots, EntityTracks(sampled), span, config.rig)
    t = mark("camera_s", t)

    # each point's first static cue shot, which shows its tactic display
    cue_shots = {}
    for shot in camera.shots:
        if shot.spec.purpose == "cue" and shot.spec.motion is CameraMotion.STATIC:
            cue_shots.setdefault(shot.spec.point_index, shot)
    heatmaps = PositionHeatmaps(tracks)
    cues: List[VizCue] = []
    # the shots of points 0..i: each point's polylines are built once, and
    # every later trajectory map lists the same polyline objects
    polylines: List[list] = []
    for i, (summary, categories) in enumerate(summaries):
        cues.extend(generate_dynamic_cues(summary, point_records[i], camera, clip))
        polylines.extend(shot_polylines(point_records[i]))
        cue_shot = cue_shots.get(i)
        if categories[0] is EventCategory.TACTIC and cue_shot is not None:
            cues.extend(generate_static_cues(
                polylines, heatmaps, window=(0.0, summary.t_end),
                display_span=(cue_shot.t_start, cue_shot.t_end)))

    point_counts = [compute_zone_metrics(recs) for recs in point_records]
    trajectory_spans = zip(trajectories.t_starts().tolist(), trajectories.t_ends().tolist())
    points = []
    for i, ((summary, _), metrics, trajectory_span) in enumerate(
            zip(summaries, zone_metrics_by_point(point_counts, score_timeline), trajectory_spans)):
        points.append(ScenePoint(
            index=i,
            t_start=summary.t_start,
            t_end=summary.t_end,
            trajectory_span=trajectory_span,
            outcome=summary.outcome,
            score_before=score_timeline[i],
            metrics=metrics,
        ))
    t = mark("annotate_s", t)

    scene = SceneTimeline(
        court=COURT,
        fps=clip.header.fps,
        sample_rate_hz=config.export.sample_rate_hz,
        tracks=sampled,
        camera=camera,
        cues=tuple(cues),
        points=tuple(points),
        score_timeline=tuple(score_timeline),
    )
    if stats is not None:
        stats["contact_substitutions"] = sum(r.kind is EventKind.CONTACT for r in records)
        stats["event_records"] = len(records)
        stats["camera_keyframes"] = len(camera.keyframes)
        stats["cues"] = len(cues)
        stats["total_s"] = time.perf_counter() - t_wall
    return scene
