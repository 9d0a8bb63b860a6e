"""Ballistic segment solver and trajectory assembly tests.

The clip table is checked against the scalar, per-point reference in
``kinematics_reference``: its segment rows, its error messages and its
evaluation, bit for bit.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rallyforge.config import DEFAULT_CONFIG
from rallyforge.errors import RangeError, ValidationError
from rallyforge.ingest import EventKind, SpinType, clip_from_dict, to_court_space
from rallyforge.kinematics import (
    BACKSPIN_ACCEL,
    SEGMENT_FIELDS,
    TOPSPIN_ACCEL,
    evaluate_runs,
    spin_acceleration,
)
from rallyforge.pipeline import refine_tracks, sample_entity_tracks, solve_point_trajectories
from rallyforge.simulate import GroundTruthRally, SimConfig, simulate_clip, simulate_rally

from kinematics_reference import (
    BallKeyframe,
    assemble_ball_trajectory,
    keyframes_of,
    loop_table,
    table_of,
    trajectories_of,
)
from test_acceptance import _contact_pairs

C, B, N = EventKind.CONTACT, EventKind.BOUNCE, EventKind.NET_CORD


def _kf(t, kind, height=None, spin=None):
    return BallKeyframe(t=t, position=(0.0, 1.0), kind=kind, height=height, spin=spin)


def _field(table, name):
    return table.segments[:, SEGMENT_FIELDS.index(name)]


def _at(table, ts):
    """(n, 3) positions of a one-point table at the times ``ts``."""
    return evaluate_runs(table, ts, [len(ts)])


def test_spin_acceleration_constants():
    assert spin_acceleration(SpinType.TOPSPIN) == -9.81
    assert spin_acceleration(SpinType.BACKSPIN) == -10.81


# ------------------------------------------------------------
# Single-segment solver
# ------------------------------------------------------------


def _one_segment(h0, h1, duration, spin):
    """The table of one point: a contact at height h0, then one at h1 ``duration`` later."""
    return _contact_pairs([(h0, h1, duration, spin)])


def test_launch_velocity_level_flight():
    # h0 = h1 = 1 over one second of topspin: v0 = -a/2 = 4.905
    table = _one_segment(1.0, 1.0, 1.0, SpinType.TOPSPIN)
    assert _field(table, "v0")[0] == pytest.approx(4.905)


def test_launch_velocity_free_fall():
    # dropping 1 m from rest takes sqrt(2/9.81) ~ 0.4515 s
    table = _one_segment(1.0, 0.0, 0.4515, SpinType.TOPSPIN)
    assert abs(_field(table, "v0")[0]) <= 1e-3


def test_launch_velocity_backspin():
    table = _one_segment(0.9, 0.0, 0.5, SpinType.BACKSPIN)
    assert _field(table, "v0")[0] == pytest.approx(0.9025)
    assert _field(table, "accel")[0] == BACKSPIN_ACCEL


def test_serve_drop_hits_ground_at_endpoint():
    z = _at(_one_segment(2.8, 0.0, 0.6, SpinType.TOPSPIN), [0.0, 0.6])[:, 2]
    assert z[1] == pytest.approx(0.0, abs=1e-12)
    assert z[0] == 2.8


def test_endpoints_exact_over_random_segments():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    draws = []
    for _ in range(1000):
        h0 = rng.uniform(0.0, 3.5)
        h1 = rng.uniform(0.0, 3.5)
        t = rng.uniform(0.05, 2.5)
        spin = SpinType.TOPSPIN if rng.integers(2) else SpinType.BACKSPIN
        draws.append((h0, h1, t, spin))
    table = _contact_pairs(draws)
    ends = np.column_stack([table.t_starts(), table.t_ends()]).ravel()
    z = evaluate_runs(table, ends, [2] * len(draws))[:, 2]
    assert np.abs(z - np.array([d[:2] for d in draws]).ravel()).max() <= 1e-9
    assert time.perf_counter() - start < 1.0


def test_velocity_matches_finite_difference():
    table = _one_segment(0.8, 1.9, 0.7, SpinType.TOPSPIN)
    v0, accel = _field(table, "v0")[0], _field(table, "accel")[0]
    eps = 1e-5
    for tau in (0.1, 0.35, 0.6):
        below, above = _at(table, [tau - eps, tau + eps])[:, 2]
        fd = (above - below) / (2 * eps)
        assert abs(fd - (v0 + accel * tau)) <= 1e-4


def test_solver_input_validation():
    with pytest.raises(ValidationError):
        _one_segment(1.0, 1.0, 0.0, SpinType.TOPSPIN)
    with pytest.raises(ValidationError):
        _one_segment(-0.2, 1.0, 1.0, SpinType.TOPSPIN)
    with pytest.raises(ValidationError):
        _one_segment(1.0, float("nan"), 1.0, SpinType.TOPSPIN)


# ------------------------------------------------------------
# Trajectory assembly
# ------------------------------------------------------------


def _rally_keyframes():
    return [
        BallKeyframe(t=0.0, position=(0.0, -11.885), kind=EventKind.CONTACT,
                     height=2.8, spin=SpinType.TOPSPIN),
        BallKeyframe(t=0.6, position=(1.2, 5.5), kind=EventKind.BOUNCE),
        BallKeyframe(t=1.1, position=(2.0, 10.0), kind=EventKind.CONTACT,
                     height=1.0, spin=SpinType.BACKSPIN),
        BallKeyframe(t=1.9, position=(-1.5, -6.4), kind=EventKind.BOUNCE),
    ]


def test_assembled_trajectory_passes_through_keyframes():
    keyframes = _rally_keyframes()
    xyz = _at(table_of(keyframes), [k.t for k in keyframes])
    for k, p in zip(keyframes, xyz):
        assert (p[0], p[1]) == pytest.approx(k.position, abs=1e-9)
    # forced heights at the structural keyframes
    assert xyz[:3, 2] == pytest.approx([2.8, 0.0, 1.0], abs=1e-9)


def test_bounce_height_annotation_is_overridden():
    frames = _rally_keyframes()
    frames[1] = BallKeyframe(t=0.6, position=(1.2, 5.5), kind=EventKind.BOUNCE, height=0.4)
    assert _at(table_of(frames), [0.6])[0, 2] == pytest.approx(0.0, abs=1e-9)


def test_net_cord_keyframe_pins_cord_height():
    frames = [
        BallKeyframe(t=0.0, position=(0.0, -10.0), kind=EventKind.CONTACT,
                     height=1.1, spin=SpinType.TOPSPIN),
        BallKeyframe(t=0.4, position=(0.5, 0.0), kind=EventKind.NET_CORD),
        BallKeyframe(t=0.9, position=(1.0, 4.0), kind=EventKind.BOUNCE),
    ]
    assert _at(table_of(frames), [0.4])[0, 2] == pytest.approx(0.9, abs=1e-9)


def test_spin_inherited_from_most_recent_contact():
    frames = _rally_keyframes() + [
        BallKeyframe(t=2.5, position=(-2.0, -10.0), kind=EventKind.BOUNCE),
    ]
    accels = _field(table_of(frames), "accel").tolist()
    # contact(top) -> bounce -> contact(back) -> bounce -> bounce
    assert accels == [TOPSPIN_ACCEL, TOPSPIN_ACCEL, BACKSPIN_ACCEL, BACKSPIN_ACCEL]


def test_planar_positions_interpolate_linearly():
    x, y, _ = _at(table_of(_rally_keyframes()), [0.3])[0]  # halfway through the first segment
    assert (x, y) == pytest.approx((0.6, (-11.885 + 5.5) / 2), abs=1e-12)


def test_evaluate_outside_span_raises():
    table = table_of(_rally_keyframes())
    with pytest.raises(RangeError):
        _at(table, [-0.01])
    with pytest.raises(RangeError):
        _at(table, [1.91])


# ------------------------------------------------------------
# Array evaluation against the scalar reference
# ------------------------------------------------------------


def _float_noise_bounce():
    # 1.1 m to the ground in 1 s of backspin: the closed form lands at -8.9e-16 m
    return [
        BallKeyframe(t=0.0, position=(0.0, -11.0), kind=EventKind.CONTACT,
                     height=1.1, spin=SpinType.BACKSPIN),
        BallKeyframe(t=1.0, position=(1.0, 6.0), kind=EventKind.BOUNCE),
    ]


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_evaluate_many_equals_evaluate_bit_for_bit():
    # many times on one point's table against the reference's scalar evaluate
    for keyframes in (_rally_keyframes(), _float_noise_bounce()):
        traj = assemble_ball_trajectory(keyframes)
        knots = np.array([k.t for k in keyframes])
        ts = np.concatenate([
            knots,
            np.nextafter(knots[1:], -np.inf),   # just before each keyframe
            np.nextafter(knots[:-1], np.inf),   # just after each keyframe
            np.linspace(traj.t_start, traj.t_end, 401),
            np.random.default_rng(3).uniform(traj.t_start, traj.t_end, 200),
        ])
        scalar = [traj.evaluate(t).as_xyz() for t in ts]
        assert _same_bits(_at(table_of(keyframes), ts), scalar)


def test_evaluate_many_clamps_float_noise_at_a_bounce():
    table = table_of(_float_noise_bounce())
    h0, v0, accel = (_field(table, name)[0] for name in ("h0", "v0", "accel"))
    assert h0 + v0 * 1.0 + 0.5 * accel * 1.0 * 1.0 < 0.0  # the raw height dips below the court
    z = _at(table, [1.0])[0, 2]
    assert z == 0.0 and math.copysign(1.0, z) == 1.0
    assert _same_bits([z], [assemble_ball_trajectory(_float_noise_bounce()).evaluate(1.0).z])


def test_evaluate_many_outside_span_raises():
    traj = assemble_ball_trajectory(_rally_keyframes())
    table = table_of(_rally_keyframes())
    for t in (np.nextafter(0.0, -1.0), np.nextafter(1.9, 2.0), float("nan")):
        with pytest.raises(RangeError):
            traj.evaluate(t)
        with pytest.raises(RangeError):
            _at(table, [0.5, t])
    assert _at(table, [0.0, 1.9]).shape == (2, 3)  # both span ends are inside


def _clip_tables():
    """Each clip's trajectory table: simulator truth, clean and degraded."""
    for seed, points in ((0, 4), (7, 6), (31, 5)):
        yield simulate_rally(SimConfig(seed=seed, points=points)).trajectories
    for seed in (3, 12):
        clip = clip_from_dict(simulate_clip(SimConfig(
            seed=seed, points=4, pixel_noise_sigma_px=1.0, quantize_pixels=True))[0])
        yield solve_point_trajectories(clip, refine_tracks(to_court_space(clip), clip,
                                                           DEFAULT_CONFIG))


def _run_times(traj, rng):
    """Knots, both span ends, either side of each inner knot and between knots, shuffled."""
    knots = np.array([k.t for k in traj.keyframes])
    ts = np.concatenate([
        knots,
        np.nextafter(knots[1:], -np.inf),
        np.nextafter(knots[:-1], np.inf),
        rng.uniform(traj.t_start, traj.t_end, 50),
    ])
    rng.shuffle(ts)
    return ts


def test_evaluate_runs_equals_evaluate_bit_for_bit():
    rng = np.random.default_rng(5)
    for table in _clip_tables():
        trajectories = trajectories_of(table)
        assert len(trajectories) >= 4
        runs = [_run_times(traj, rng) for traj in trajectories]
        runs[1] = runs[1][:0]  # a trajectory may own no samples
        got = evaluate_runs(table, np.concatenate(runs), [len(r) for r in runs])
        want = [traj.evaluate(t).as_xyz() for traj, r in zip(trajectories, runs) for t in r]
        assert _same_bits(got, want)


def _first_two():
    """The reference trajectories of a clip's first two points."""
    return trajectories_of(next(_clip_tables()))[:2]


def test_evaluate_runs_where_one_trajectory_starts_as_the_last_ends():
    first, second = _first_two()
    serve, *rest = second.keyframes
    touching = assemble_ball_trajectory([dataclasses.replace(serve, t=first.t_end), *rest])
    ts = [first.t_end, np.nextafter(first.t_end, -np.inf), first.t_end,
          np.nextafter(first.t_end, np.inf)]
    got = evaluate_runs(table_of(first.keyframes, touching.keyframes), ts, [2, 2])
    want = [first.evaluate(t).as_xyz() for t in ts[:2]] + [
        touching.evaluate(t).as_xyz() for t in ts[2:]]
    assert _same_bits(got, want)
    assert not _same_bits(got[0], got[2])  # the shared time, once on each side


def test_evaluate_runs_of_nothing_is_empty():
    table = next(_clip_tables())
    assert evaluate_runs(table, [], [0] * len(table)).shape == (0, 3)
    assert evaluate_runs(table_of(), [], []).shape == (0, 3)


def test_evaluate_runs_raises_for_the_first_time_outside_its_own_span():
    first, second = _first_two()
    table = table_of(first.keyframes, second.keyframes)
    inside_second = (second.t_start + second.t_end) / 2
    for bad in (inside_second,  # inside the neighbouring trajectory's span
                np.nextafter(first.t_end, np.inf), np.nextafter(first.t_start, -np.inf),
                float("nan")):
        ts = [first.t_start, bad, inside_second, second.t_end + 1.0]
        with pytest.raises(RangeError, match=f"t={bad} outside trajectory span "
                                             rf"\[{first.t_start}, {first.t_end}\]"):
            evaluate_runs(table, ts, [2, 2])
    # the second run's first time before its own start, though inside the first span
    with pytest.raises(RangeError, match=f"t={first.t_end} outside trajectory span "
                                         rf"\[{second.t_start}, {second.t_end}\]"):
        evaluate_runs(table, [first.t_end, first.t_end], [1, 1])


def test_evaluate_runs_rejects_counts_and_order():
    first, second = _first_two()
    ts = [first.t_start, second.t_start]
    for counts in ([1], [1, 0], [2, 1], [3, -1], [1, 1, 0]):
        with pytest.raises(ValidationError, match="counts"):
            evaluate_runs(table_of(first.keyframes, second.keyframes), ts, counts)
    # out of time order the concatenated knots are unsorted; one searchsorted
    # over them would pick wrong segments
    with pytest.raises(ValidationError, match="trajectory 1 starts at"):
        evaluate_runs(table_of(second.keyframes, first.keyframes), ts[::-1], [1, 1])
    # the second trajectory starting 10 ms before the first ends
    serve, *rest = second.keyframes
    overlapping = [dataclasses.replace(serve, t=first.t_end - 0.01), *rest]
    with pytest.raises(ValidationError, match="trajectory 1 starts at"):
        evaluate_runs(table_of(first.keyframes, overlapping), ts, [1, 1])


def test_assembly_validation():
    with pytest.raises(ValidationError):
        table_of([])
    with pytest.raises(ValidationError):
        table_of(_rally_keyframes()[:1])
    # starts at a bounce: no spin to inherit
    with pytest.raises(ValidationError):
        table_of(_rally_keyframes()[1:])
    # contact without spin annotation
    frames = _rally_keyframes()
    frames[0] = BallKeyframe(t=0.0, position=(0.0, -11.885), kind=EventKind.CONTACT, height=2.8)
    with pytest.raises(ValidationError):
        table_of(frames)
    # non-increasing times
    frames = _rally_keyframes()
    frames[2] = BallKeyframe(t=0.6, position=(2.0, 10.0), kind=EventKind.CONTACT,
                             height=1.0, spin=SpinType.BACKSPIN)
    with pytest.raises(ValidationError):
        table_of(frames)
    # contact without height annotation
    frames = _rally_keyframes()
    frames[2] = BallKeyframe(t=1.1, position=(2.0, 10.0), kind=EventKind.CONTACT,
                             spin=SpinType.BACKSPIN)
    with pytest.raises(ValidationError):
        table_of(frames)


# ------------------------------------------------------------
# Sampling (the pipeline's export sampler evaluates these trajectories)
# ------------------------------------------------------------


def _refined_clip(**sim):
    clip = clip_from_dict(simulate_clip(SimConfig(**{"seed": 10, "points": 2, **sim}))[0])
    tracks = refine_tracks(to_court_space(clip), clip, DEFAULT_CONFIG)
    return clip, tracks, solve_point_trajectories(clip, tracks)


def test_sampling_covers_span_and_hits_keyframes():
    clip, tracks, trajectories = _refined_clip()
    samples = sample_entity_tracks(clip, tracks, trajectories, 50.0)["ball"].samples
    assert len(samples) == int(round(clip.duration * 50.0)) + 1
    for traj in trajectories_of(trajectories):
        for k in traj.keyframes:  # 25 fps keyframes land on the 50 Hz grid
            row = samples[int(round(k.t * 50.0))]
            assert tuple(row) == pytest.approx(traj.evaluate(k.t).as_xyz(), abs=1e-9)
            assert (row[0], row[1]) == pytest.approx(k.position, abs=1e-9)


DEGRADED = {"pixel_noise_sigma_px": 1.0, "quantize_pixels": True, "dropout_rate": 0.1}


@pytest.mark.parametrize("sim, rate_hz", [
    ({}, 50.0),
    ({"points": 1}, 50.0),
    ({"points": 6, **DEGRADED}, 50.0),
    ({}, 30.0),  # samples between 25 fps frames
    ({}, 7.0),   # the last sample overshoots the last frame
], ids=["2-points-50hz", "1-point-50hz", "6-points-degraded-50hz", "2-points-30hz",
        "2-points-7hz"])
def test_sampling_equals_per_sample_evaluation(sim, rate_hz):
    clip, tracks, trajectories = _refined_clip(**sim)
    ball = sample_entity_tracks(clip, tracks, trajectories, rate_hz)["ball"]
    trajectories = trajectories_of(trajectories)
    want = []
    for i in range(len(ball.samples)):
        t = i / rate_hz
        # the trajectory whose span holds t, else the nearest keyframe already played
        traj = next((tr for tr in trajectories if tr.t_start <= t <= tr.t_end), None)
        if traj is None:
            played = [tr for tr in trajectories if tr.t_end < t]
            traj, t = (played[-1], played[-1].t_end) if played else (
                trajectories[0], trajectories[0].t_start)
        want.append(traj.evaluate(t).as_xyz())
    assert ball.samples.tobytes() == np.array(want).tobytes()


def _loop_clamp(table, t):
    """Clamp one time: the last point that starts at or before it, else point 0."""
    owner = 0
    for j, start in enumerate(table.t_starts().tolist()):
        if start <= t:
            owner = j
    return owner, min(max(t, float(table.t_starts()[owner])), float(table.t_ends()[owner]))


def _shifted(dt):
    return [dataclasses.replace(k, t=k.t + dt) for k in _rally_keyframes()]


@pytest.mark.parametrize("shifts", [(0.0, 1.9, 5.0), (0.0,)], ids=["three-points", "one-point"])
def test_clamp_matches_a_per_time_loop(shifts):
    # the rally's keyframes run 0-1.9 s, so the first two of three points touch
    table = table_of(*(_shifted(dt) for dt in shifts))
    inside = [float(t) + 0.3 for t in table.t_starts()]
    between = [float(t) + 0.5 for t in table.t_ends()]  # past the last point too
    ts = np.sort(np.concatenate([[-1.0], table.t_starts(), table.t_ends(), inside, between]))
    owner, at = table.clamp(ts)
    want = [_loop_clamp(table, t) for t in ts.tolist()]
    assert owner.tolist() == [j for j, _ in want]
    assert at.tolist() == [t for _, t in want]
    if len(shifts) == 3:
        # the shared time 1.9 belongs to the later point
        assert owner[ts == 1.9].tolist() == [1, 1]
        assert (owner[0], at[0]) == (0, 0.0) and (owner[-1], at[-1]) == (2, 6.9)


def test_sampling_nests_when_rate_doubles():
    clip, tracks, trajectories = _refined_clip()
    coarse = sample_entity_tracks(clip, tracks, trajectories, 25.0)["ball"].samples
    fine = sample_entity_tracks(clip, tracks, trajectories, 50.0)["ball"].samples
    assert fine.shape[0] == 2 * coarse.shape[0] - 1
    assert np.allclose(fine[::2], coarse, atol=1e-9)


# ------------------------------------------------------------
# One table per clip against the per-point assembler
# ------------------------------------------------------------


def _loop_pipeline_keyframes(clip, tracks):
    """Each point's keyframes as the pipeline gathered them one event at a time."""
    points = []
    for point in clip.points:
        keyframes = []
        for e in point.events:
            height = spin = None
            if e.kind is EventKind.CONTACT:
                x, y = tracks.players[e.player_id][e.frame]
                ann = clip.annotation_at(e.frame)
                height, spin = ann.height_m, ann.spin
            else:
                x, y = tracks.ball[e.frame]
            keyframes.append(BallKeyframe(t=e.frame / clip.header.fps,
                                          position=(float(x), float(y)),
                                          kind=e.kind, height=height, spin=spin))
        points.append(keyframes)
    return points


def _loop_truth_keyframes(truth):
    return [[BallKeyframe(t=k.frame / truth.fps, position=(k.x, k.y), kind=k.kind,
                          height=k.z if k.kind is EventKind.CONTACT else None, spin=k.spin)
             for k in point.keyframes] for point in truth.points]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@settings(derandomize=True, database=None, deadline=None, max_examples=24,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), points=st.integers(1, 8), degraded=st.booleans())
def test_the_clip_table_equals_the_per_point_assembler(seed, points, degraded):
    noise = dict(pixel_noise_sigma_px=1.0, quantize_pixels=True, dropout_rate=0.1)
    cfg = SimConfig(seed=seed, points=points, **(noise if degraded else {}))
    clip_doc, truth_doc = simulate_clip(cfg)
    clip, truth = clip_from_dict(clip_doc), GroundTruthRally.from_dict(truth_doc)
    tracks = refine_tracks(to_court_space(clip), clip, DEFAULT_CONFIG)
    for table, keyframes in ((solve_point_trajectories(clip, tracks),
                              _loop_pipeline_keyframes(clip, tracks)),
                             (truth.trajectories, _loop_truth_keyframes(truth))):
        assert np.array_equal(_bits(table.segments), _bits(loop_table(keyframes)))
        assert keyframes_of(table) == keyframes
        assert [len(traj.planar) for traj in table] == [len(k) - 1 for k in keyframes]


def test_a_highlight_clip_table_equals_the_per_point_assembler():
    clip_doc, truth_doc = simulate_clip(SimConfig(seed=0, points=3))
    clip, truth = clip_from_dict(clip_doc), GroundTruthRally.from_dict(truth_doc)
    tracks = refine_tracks(to_court_space(clip), clip, DEFAULT_CONFIG)
    table = solve_point_trajectories(clip, tracks)
    assert table.segments.shape[1] == len(SEGMENT_FIELDS) == 11
    assert np.array_equal(_bits(table.segments),
                          _bits(loop_table(_loop_pipeline_keyframes(clip, tracks))))
    assert np.array_equal(_bits(truth.trajectories.segments),
                          _bits(loop_table(_loop_truth_keyframes(truth))))


def _edit(i, **changes):
    frames = _rally_keyframes()
    frames[i] = dataclasses.replace(frames[i], **changes)
    return frames


# each message as the per-point assembler worded it, captured before the clip table
ASSEMBLY_ERRORS = {
    "empty": ([], "cannot assemble a trajectory from no keyframes"),
    "one": (_rally_keyframes()[:1], "a trajectory needs at least two keyframes"),
    "equal-times": (_edit(2, t=0.6), "keyframe times must be strictly increasing"),
    "decreasing-times": (_edit(3, t=1.0), "keyframe times must be strictly increasing"),
    "nan-time": (_edit(1, t=math.nan), "keyframe times must be strictly increasing"),
    "inf-last-time": (_edit(3, t=math.inf), "segment duration must be positive, got inf"),
    "minus-inf-first-time": (_edit(0, t=-math.inf), "segment duration must be positive, got inf"),
    "no-height-2": (_edit(2, height=None), "keyframe 2 (Contact) has no height annotation"),
    "no-height-0": (_edit(0, height=None), "keyframe 0 (Contact) has no height annotation"),
    "no-spin-0": (_edit(0, spin=None), "contact keyframe 0 has no spin annotation"),
    "no-spin-2": (_edit(2, spin=None), "contact keyframe 2 has no spin annotation"),
    "starts-at-bounce": (_rally_keyframes()[1:], "the first segment has no spin to inherit; "
                         "trajectories must start at a contact"),
    "starts-at-netcord": ([_kf(0.1, N)] + _rally_keyframes()[1:], "the first segment has no "
                          "spin to inherit; trajectories must start at a contact"),
    "negative-height-2": (_edit(2, height=-0.5), "h1 must be a non-negative height, got -0.5"),
    "negative-height-0": (_edit(0, height=-0.5), "h0 must be a non-negative height, got -0.5"),
    "inf-height-2": (_edit(2, height=math.inf), "h1 must be a non-negative height, got inf"),
    "point-start-kind": (_edit(1, kind=EventKind.POINT_START),
                         "keyframe 1 (PointStart) has no height annotation"),
    "no-height-and-no-spin": ([_kf(0.0, C, 2.8)] + _rally_keyframes()[1:3]
                              + [_kf(1.9, C, None, SpinType.TOPSPIN)],
                              "keyframe 3 (Contact) has no height annotation"),
    "no-spin-and-bad-height": ([_kf(0.0, C, 2.8)] + _rally_keyframes()[1:3]
                               + [_kf(1.9, C, -1.0, SpinType.TOPSPIN)],
                               "contact keyframe 0 has no spin annotation"),
    "bad-time-and-no-height": ([_kf(0.0, C, None, SpinType.TOPSPIN), _kf(0.0, B)],
                               "keyframe times must be strictly increasing"),
}
# finite keyframes whose segment overflows: a launch velocity and a planar velocity
OVERFLOW_ERRORS = {
    "huge-height-0": (_edit(0, height=1.7e308),
                      "keyframe 0 (Contact) starts a segment whose v0 is not finite (-inf)"),
    "huge-x-1": (_edit(1, position=(1.7e308, 5.5)),
                 "keyframe 0 (Contact) starts a segment whose vx is not finite (inf)"),
    "huge-y-1": (_edit(1, position=(1.2, -1.7e308)),
                 "keyframe 0 (Contact) starts a segment whose vy is not finite (-inf)"),
}


@pytest.mark.parametrize("case", sorted(ASSEMBLY_ERRORS))
def test_assembly_errors_keep_their_wording(case):
    _check_wording(*ASSEMBLY_ERRORS[case])


@pytest.mark.parametrize("case", sorted(OVERFLOW_ERRORS))
def test_assembly_refuses_a_segment_that_overflows(case):
    _check_wording(*OVERFLOW_ERRORS[case])


def _check_wording(keyframes, message):
    """The table and the reference raise ``message`` for one point; the table
    names the point, alone and after a good one."""
    with pytest.raises(ValidationError) as raised:
        table_of(keyframes)
    assert str(raised.value) == f"point 0: {message}"
    with pytest.raises(ValidationError) as looped:
        assemble_ball_trajectory(keyframes)
    assert str(looped.value) == message
    with pytest.raises(ValidationError) as in_clip:
        table_of(_rally_keyframes(), keyframes)
    assert str(in_clip.value) == f"point 1: {message}"


@pytest.mark.parametrize("i, position, shown", [
    (0, (math.nan, 1.0), "(nan, 1.0)"),
    (1, (1.2, math.inf), "(1.2, inf)"),
    (3, (-math.inf, math.nan), "(-inf, nan)"),
])
def test_assembly_refuses_a_keyframe_without_a_finite_position(i, position, shown):
    keyframes = _edit(i, position=position)
    _check_wording(keyframes,
                   f"keyframe {i} ({keyframes[i].kind.value}) has a non-finite position {shown}")
    # an earlier point's missing spin raises first
    with pytest.raises(ValidationError) as in_clip:
        table_of(_edit(0, spin=None), keyframes)
    assert str(in_clip.value) == "point 0: contact keyframe 0 has no spin annotation"


def test_assembly_accepts_what_the_loop_accepts():
    for keyframes in (_rally_keyframes()[:2] + [_kf(1.1, C, 1.0)],   # a last contact needs no spin
                      _edit(1, kind=EventKind.POINT_START, height=0.3)):
        assert np.array_equal(_bits(table_of(keyframes).segments),
                              _bits(loop_table([keyframes])))


def test_the_first_point_that_breaks_a_rule_raises():
    good = _rally_keyframes()
    for first, second, message in (
            (_edit(0, spin=None), _edit(2, height=None), "point 0: contact keyframe 0 has no spin"),
            (good[:1], _edit(2, height=None), "point 0: a trajectory needs at least two"),
            ([], good[:1], "point 0: cannot assemble a trajectory from no keyframes"),
            (good, good[:1], "point 1: a trajectory needs at least two"),
            (good, _edit(3, position=(0.0, math.nan)), "point 1: keyframe 3 .Bounce. has a non")):
        with pytest.raises(ValidationError, match=message):
            table_of(first, second, good)


def test_spin_never_carries_into_the_next_point():
    # the second point starts at a bounce: the first point's backspin is not its own
    second = [dataclasses.replace(k, t=k.t + 2.0) for k in _rally_keyframes()[1:]]
    with pytest.raises(ValidationError, match="the first segment has no spin to inherit"):
        table_of(_rally_keyframes(), second)
    # one point alone, its spin carries from contact to the following bounce
    table = table_of(_rally_keyframes())
    assert table.segments[:, SEGMENT_FIELDS.index("accel")].tolist() == [
        TOPSPIN_ACCEL, TOPSPIN_ACCEL, BACKSPIN_ACCEL]


def test_a_trajectory_is_a_sequence_view_of_its_rows():
    # item j is point j's span and read-only views of its rows of the segment table
    keyframes = _rally_keyframes()
    later = [dataclasses.replace(k, t=k.t + 2.0) for k in keyframes[:3]]
    table = table_of(keyframes, later)
    first, second = table[0], table[1]
    assert (first.t_start, first.t_end) == (0.0, 1.9)
    assert (second.t_start, second.t_end) == (2.0, later[-1].t)
    assert all(type(t) is float for t in (first.t_start, first.t_end))
    assert (first.planar.shape, first.vertical.shape) == ((3, 6), (3, 5))
    assert (second.planar.shape, second.vertical.shape) == ((2, 6), (2, 5))
    for rows, want in ((first, loop_table([keyframes])), (second, loop_table([later]))):
        assert np.array_equal(_bits(np.hstack([rows.planar, rows.vertical])), _bits(want))
        assert np.shares_memory(rows.planar, table.segments)
    with pytest.raises(ValueError):
        first.vertical[0, 0] = 1.0
    with pytest.raises(ValueError):
        table.segments[0, 0] = 1.0


def test_a_clip_table_is_a_sequence_of_trajectories():
    keyframes = _rally_keyframes()
    later = [dataclasses.replace(k, t=k.t + 2.0) for k in keyframes]
    table = table_of(keyframes, later)
    assert len(table) == 2
    first, second = table
    assert (first.t_start, second.t_start, table[-1].t_start, table[-2].t_start) == (
        0.0, 2.0, 2.0, 0.0)
    assert [(rows.t_start, rows.t_end) for rows in table] == list(
        zip(table.t_starts().tolist(), table.t_ends().tolist()))
    # the segments a point's rows hold add up to the table's
    assert sum(len(rows.planar) for rows in table) == len(table.segments) == 6
    for j in (2, -3):
        with pytest.raises(IndexError):
            table[j]
