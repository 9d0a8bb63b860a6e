"""End-to-end reconstruction: one clip document in, one scene timeline out.

Stage order matters. Player tracks are refined first (gap fill, then a
moving average applied piecewise between event frames, then resolution
stabilization) because the ball validator borrows player positions at
contact frames. The ball is then gap-filled, validated against its bounce
baseline, and smoothed piecewise between keyframe frames, so the samples
that anchor trajectory segments are never blended across a velocity jump.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence

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
from .court import COURT, CourtModel
from .errors import ValidationError
from .ingest import Clip, CourtTracks, EventKind, KEYFRAME_KINDS, to_court_space
from .kinematics import BallKeyframe, BallTrajectory3D, assemble_ball_trajectory
from .refine import (
    fill_gaps_knn,
    smooth_moving_average_piecewise,
    stabilize_resolution,
    validate_ball_planar,
)
from .scene import EntityTracks, SampledTrack, ScenePoint, SceneTimeline
from .scene_metrics import (
    MetricsWindow,
    compute_zone_metrics,
    log_zone_events,
)
from .scoring import ScoreState, advance_score
from .viz_cues import VizCue, generate_dynamic_cues, generate_static_cues


# ============================================================
# Track refinement
# ============================================================


def refine_tracks(tracks: CourtTracks, clip: Clip,
                  config: PipelineConfig = DEFAULT_CONFIG,
                  stats: Optional[dict] = None) -> CourtTracks:
    """Refine all lifted tracks in place and return them.

    Players are smoothed piecewise between event frames: direction changes
    cluster at ball events (split steps, reversals at contacts), so smoothing
    across them would round off real corners while smoothing between them
    only removes tracker jitter. ``stats`` receives the ball validator's
    outlier and contact-substitution counts.
    """
    ref = config.refinement
    event_frames = sorted({e.frame for e in clip.events})
    for pid in sorted(tracks.players):
        series = fill_gaps_knn(tracks.players[pid], ref.knn_k)
        series = smooth_moving_average_piecewise(series, ref.ma_window, event_frames)
        series = stabilize_resolution(series, tracks.homography,
                                      ref.stabilization_deadband_px)
        tracks.players[pid] = series

    keyframe_frames = sorted({e.frame for e in clip.events if e.kind in KEYFRAME_KINDS})
    ball = fill_gaps_knn(tracks.ball, ref.knn_k)
    ball = validate_ball_planar(ball, clip.events, tracks.players,
                                outlier_threshold_m=ref.ball_outlier_threshold_m,
                                knn_k=ref.knn_k, stats=stats)
    tracks.ball = smooth_moving_average_piecewise(ball, ref.ma_window, keyframe_frames)
    return tracks


# ============================================================
# Ball trajectories
# ============================================================


def solve_point_trajectories(clip: Clip, tracks: CourtTracks) -> List[BallTrajectory3D]:
    """One ballistic trajectory per point, anchored at the refined keyframes."""
    fps = clip.header.fps
    trajectories = []
    for start_f, end_f in clip.point_spans():
        keyframes: List[BallKeyframe] = []
        for e in clip.events:
            if e.kind not in KEYFRAME_KINDS or not (start_f <= e.frame <= end_f):
                continue
            x, y = tracks.ball[e.frame]
            if np.isnan(x) or np.isnan(y):
                raise ValidationError(
                    f"ball has no refined position at keyframe frame {e.frame}")
            height = None
            spin = None
            if e.kind is EventKind.CONTACT:
                ann = clip.annotation_at(e.frame)
                if ann is None:
                    raise ValidationError(
                        f"contact at frame {e.frame} has no keyframe annotation")
                height, spin = ann.height_m, ann.spin
            keyframes.append(BallKeyframe(t=e.frame / fps, position=(float(x), float(y)),
                                          kind=e.kind, height=height, spin=spin))
        trajectories.append(assemble_ball_trajectory(keyframes))
    return trajectories


# ============================================================
# Scene sampling
# ============================================================


def _sample_grid(t_end: float, rate_hz: float) -> np.ndarray:
    # the first whole number of steps that reaches t_end; rounding first keeps
    # float noise in an exact multiple from adding a step
    n = math.ceil(round(t_end * rate_hz, 9)) + 1
    return np.arange(n) / rate_hz


def sample_entity_tracks(clip: Clip, tracks: CourtTracks,
                         trajectories: Sequence[BallTrajectory3D],
                         rate_hz: float) -> Dict[str, SampledTrack]:
    """Resample refined tracks onto the export clock.

    Players interpolate linearly between frame samples at z = 0. The ball is
    evaluated from its per-point trajectories inside their spans and held at
    the nearest keyframe position outside them, so every sample is defined
    even between points. The grid ends at the first sample at or after the
    clip's last frame; when the rate does not divide the clip, that sample
    lies less than one step past it and holds every entity's last position.
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

    # the grid is sorted and the trajectories follow one another, so each
    # trajectory owns one contiguous run of samples
    starts = np.searchsorted(grid, [traj.t_start for traj in trajectories], side="left")
    stops = np.searchsorted(grid, [traj.t_end for traj in trajectories], side="right")
    ball = np.empty((len(grid), 3))
    # before a trajectory starts: hold its first keyframe, or the previous
    # trajectory's last once one has played
    held = trajectories[0].evaluate(trajectories[0].t_start).as_xyz()
    cursor = 0
    for traj, start, stop in zip(trajectories, starts, stops):
        ball[cursor:start] = held
        ball[start:stop] = traj.evaluate_many(grid[start:stop])
        held = traj.evaluate(traj.t_end).as_xyz()
        cursor = stop
    ball[cursor:] = held
    sampled["ball"] = SampledTrack(entity_id="ball", rate_hz=rate_hz, samples=ball)
    return sampled


# ============================================================
# Full reconstruction
# ============================================================


def reconstruct_scene(clip: Clip, config: PipelineConfig = DEFAULT_CONFIG,
                      court: CourtModel = COURT,
                      stats: Optional[dict] = None) -> SceneTimeline:
    """Run the whole pipeline on one parsed clip.

    When ``stats`` is given, per-stage wall times and record counts
    (including ``ball_outliers`` and ``contact_substitutions`` from the ball
    validator) are written into it for reporting.
    """
    t_wall = time.perf_counter()

    def mark(name: str, since: float) -> float:
        now = time.perf_counter()
        if stats is not None:
            stats[name] = now - since
        return now

    tracks = to_court_space(clip, court)
    t = mark("lift_s", t_wall)

    tracks = refine_tracks(tracks, clip, config, stats)
    t = mark("refine_s", t)

    trajectories = solve_point_trajectories(clip, tracks)
    t = mark("kinematics_s", t)

    sampled = sample_entity_tracks(clip, tracks, trajectories,
                                   config.export.sample_rate_hz)
    t = mark("sampling_s", t)

    records = log_zone_events(tracks, trajectories, clip.events)
    score_timeline: List[ScoreState] = [clip.header.score_before]
    for outcome in clip.header.point_outcomes:
        score_timeline.append(advance_score(score_timeline[-1], outcome.winner))

    span = (0.0, sampled["ball"].t_end)
    spans = clip.point_spans()
    summaries = []
    shots = []
    for i in range(len(spans)):
        summary = summarize_point(clip, records, score_timeline[i], i)
        categories = classify_point_category(summary)
        window_end = clip.time_of(spans[i + 1][0]) if i + 1 < len(spans) else span[1]
        shots.extend(plan_point_shots(summary, categories, window_end, config.rig))
        summaries.append((summary, categories))

    camera = compile_camera_timeline(shots, EntityTracks(sampled), span, config.rig)
    t = mark("camera_s", t)

    cues: List[VizCue] = []
    for i, (summary, categories) in enumerate(summaries):
        cues.extend(generate_dynamic_cues(summary, records, trajectories[i],
                                          score_timeline[i], camera, clip))
        if categories[0] is EventCategory.TACTIC:
            cue_shot = next(
                (s for s in camera.shots
                 if s.spec.point_index == i and s.spec.purpose == "cue"
                 and s.spec.motion is CameraMotion.STATIC),
                None)
            if cue_shot is not None:
                cues.extend(generate_static_cues(
                    records, tracks, window=(0.0, summary.t_end),
                    display_span=(cue_shot.t_start, cue_shot.t_end)))

    points = []
    for i, (summary, _) in enumerate(summaries):
        upto = [r for r in records if r.point_index <= i]
        metrics = {
            window: compute_zone_metrics(upto, score_timeline[: i + 1], window)
            for window in MetricsWindow
        }
        traj = trajectories[i]
        points.append(ScenePoint(
            index=i,
            t_start=summary.t_start,
            t_end=summary.t_end,
            trajectory_span=(traj.t_start, traj.t_end),
            outcome=summary.outcome,
            score_before=score_timeline[i],
            metrics=metrics,
        ))
    t = mark("annotate_s", t)

    scene = SceneTimeline(
        court=court,
        fps=clip.header.fps,
        sample_rate_hz=config.export.sample_rate_hz,
        tracks=sampled,
        camera=camera,
        cues=tuple(cues),
        points=tuple(points),
        score_timeline=tuple(score_timeline),
    )
    if stats is not None:
        stats["event_records"] = len(records)
        stats["camera_keyframes"] = len(camera.keyframes)
        stats["cues"] = len(cues)
        stats["total_s"] = time.perf_counter() - t_wall
    return scene
