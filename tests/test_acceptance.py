"""Acceptance gate: one printed pass/fail line per shipped guarantee.

Each test exercises one user-facing guarantee end to end and prints a
single verdict line to the real stdout so the gate is readable straight
from the pytest log, captured or not.
"""

import math
import random
import time

import numpy as np
import pytest

from rallyforge.cinematography import (
    CUT_EPS_S,
    CameraAnchor,
    CameraMotion,
    evaluate_camera_pose,
)
from rallyforge.cli import main
from rallyforge.config import DEFAULT_CONFIG
from rallyforge.court import (
    COURT,
    CourtPoint,
    DepthBand,
    LateralBand,
    ZONES,
    Phase,
    classify_zone,
    reference_keypoints,
    zone_codes,
)
from rallyforge.ingest import EventKind, SpinType, clip_from_dict
from rallyforge.kinematics import (KIND_CODES, SEGMENT_FIELDS, SPIN_CODES, assemble_trajectories,
                                   evaluate_runs)
from rallyforge.pipeline import reconstruct_scene
from rallyforge.projection import (
    Correspondence,
    estimate_homography,
    reprojection_error,
)
from rallyforge.rng import SplitMix64
from rallyforge.scene_metrics import (
    EventRecord,
    MetricsWindow,
    compute_zone_metrics,
    zone_metrics_by_point,
)
from rallyforge.scoring import ScoringRules, advance_score, new_match, point_context_labels
from rallyforge.simulate import (
    DEFAULT_CAMERA,
    GroundTruthRally,
    SimConfig,
    round_trip_report,
    simulate_clip,
)

from scoring_oracle import oracle_advance, oracle_labels, oracle_new_match, oracle_snapshot
from test_scoring import _random_sequence, snapshot


def _verdict(capfd, criterion: str, passed: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    with capfd.disabled():
        print(line, flush=True)
    assert passed, line


# ------------------------------------------------------------
# 1. vertical kinematics
# ------------------------------------------------------------


def _contact_pairs(draws):
    """The clip table of one point per (h0, h1, duration, spin): a contact at
    height h0, then one at h1 ``duration`` later, each point starting as the
    one before ends."""
    h0, h1, duration = (np.array([d[i] for d in draws]) for i in range(3))
    starts = np.concatenate([[0.0], np.cumsum(duration)[:-1]])
    n = len(draws)
    spins = np.column_stack([[SPIN_CODES[d[3]] for d in draws], np.full(n, -1)])
    return assemble_trajectories(
        np.column_stack([starts, starts + duration]).ravel(), np.zeros(2 * n), np.zeros(2 * n),
        np.full(2 * n, KIND_CODES[EventKind.CONTACT]), np.column_stack([h0, h1]).ravel(),
        spins.ravel(), np.full(n, 2))


def test_vertical_kinematics_solver(capfd):
    t0 = time.perf_counter()
    rng = SplitMix64(2024)
    draws = []
    for _ in range(1000):
        h0 = rng.uniform(0.0, 3.0)
        h1 = rng.uniform(0.0, 3.0)
        dur = rng.uniform(0.15, 1.6)
        spin = SpinType.TOPSPIN if rng.uniform() < 0.5 else SpinType.BACKSPIN
        draws.append((h0, h1, dur, spin))
    table = _contact_pairs(draws)
    ends = np.column_stack([table.t_starts(), table.t_ends()]).ravel()
    z = evaluate_runs(table, ends, [2] * len(draws))[:, 2]
    worst = float(np.abs(z - np.array([d[:2] for d in draws]).ravel()).max())

    # worked examples: symmetric lob, pure drop, slow backspin riser
    sym, drop, riser = _contact_pairs([
        (1.0, 1.0, 1.0, SpinType.TOPSPIN),
        (3.0, 3.0 - 0.5 * 9.81 * 0.25, 0.5, SpinType.TOPSPIN),
        (2.0, 1.1, 0.5, SpinType.BACKSPIN),
    ]).segments[:, SEGMENT_FIELDS.index("v0")].tolist()
    examples_ok = (abs(sym - 4.905) <= 1e-12
                   and abs(drop) <= 1e-3
                   and abs(riser - 0.9025) <= 1e-12)
    elapsed = time.perf_counter() - t0
    _verdict(capfd, "vertical-kinematics",
             worst <= 1e-9 and examples_ok and elapsed < 1.0,
             f"1000 segments, max endpoint error {worst:.2e}, "
             f"v0 examples {sym:.3f}/{drop:.1e}/{riser:.4f}, {elapsed * 1e3:.0f} ms")


# ------------------------------------------------------------
# 2. court calibration
# ------------------------------------------------------------


def test_homography_fit_accuracy(capfd):
    h_true = DEFAULT_CAMERA.homography()
    points = reference_keypoints()
    # noiseless: the 14 reference keypoints pin the fit to numerical precision
    clean = [Correspondence(world=p, pixel=h_true.world_to_image(p.x, p.y))
             for p in points]
    fit = estimate_homography(clean)
    clean_max = reprojection_error(fit, clean)["max_px"]

    medians = []
    for trial in range(100):
        rng = SplitMix64(7000 + trial)
        noisy = [Correspondence(world=c.world,
                                pixel=(c.pixel[0] + rng.normal(0.0, 1.0),
                                       c.pixel[1] + rng.normal(0.0, 1.0)))
                 for c in clean]
        fit_n = estimate_homography(noisy)
        medians.append(reprojection_error(fit_n, noisy)["median_px"])
    worst_median = max(medians)
    _verdict(capfd, "court-calibration",
             clean_max <= 1e-9 and worst_median <= 2.0,
             f"noiseless max {clean_max:.2e} px, "
             f"worst noisy median {worst_median:.3f} px over 100 trials")


# ------------------------------------------------------------
# 3. simulator round trip
# ------------------------------------------------------------


def _round_trip(cfg: SimConfig):
    clip_doc, truth_doc = simulate_clip(cfg)
    scene = reconstruct_scene(clip_from_dict(clip_doc))
    return round_trip_report(GroundTruthRally.from_dict(truth_doc), scene)


def test_simulator_round_trip_error(capfd):
    clean = _round_trip(SimConfig(seed=0, points=3))
    clean_ok = clean["ball_rmse_m"] <= 1e-6 and clean["player_rmse_m"] <= 1e-6

    worst_ball = 0.0
    for seed in range(20):
        noisy = _round_trip(SimConfig(seed=seed, points=3,
                                      pixel_noise_sigma_px=1.0, quantize_pixels=True))
        worst_ball = max(worst_ball, noisy["ball_rmse_m"])
    _verdict(capfd, "simulator-round-trip",
             clean_ok and worst_ball <= 0.05,
             f"noiseless ball rmse {clean['ball_rmse_m']:.2e} m, "
             f"worst noisy ball rmse {worst_ball:.4f} m over seeds 0..19")


# The ball bound under the README's dropout flag, 4 points, 1 px noise,
# quantized pixels. It fails today: the ball's series-wide refine and kNN fill
# place a dropped keyframe sample far from the truth (ROADMAP item 1).
@pytest.mark.parametrize("dropout", [
    pytest.param(0.1, marks=pytest.mark.xfail(
        strict=True, reason="ball rmse over 0.05 m on 16 of 20 seeds, worst 0.304 m")),
    pytest.param(0.3, marks=pytest.mark.xfail(
        strict=True, reason="ball rmse over 0.05 m on 18 of 20 seeds, worst 0.521 m")),
])
def test_simulator_round_trip_error_under_dropout(capfd, dropout):
    errors = [_round_trip(SimConfig(seed=seed, points=4, pixel_noise_sigma_px=1.0,
                                    quantize_pixels=True, dropout_rate=dropout))["ball_rmse_m"]
              for seed in range(20)]
    over = sum(not e <= 0.05 for e in errors)
    _verdict(capfd, f"simulator-round-trip-dropout-{dropout:g}", over == 0,
             f"ball rmse over 0.05 m on {over} of 20 seeds, worst {max(errors):.4f} m")


# Both bounds with 30% of the players' foot samples missing, 4 points, 1 px
# noise, quantized pixels and every ball sample present. The simulator never
# drops a player, so the test nulls a seeded choice of foot_px entries itself.
def test_simulator_round_trip_error_under_player_dropout(capfd):
    worst_ball = worst_player = 0.0
    over = 0
    for seed in range(40):
        clip_doc, truth_doc = simulate_clip(SimConfig(seed=seed, points=4,
                                                      pixel_noise_sigma_px=1.0,
                                                      quantize_pixels=True))
        rng = random.Random(seed)
        for entry in (p for frame in clip_doc["frames"] for p in frame["players"]):
            if rng.random() < 0.3:
                entry["foot_px"] = None
        report = round_trip_report(GroundTruthRally.from_dict(truth_doc),
                                   reconstruct_scene(clip_from_dict(clip_doc)))
        over += not (report["ball_rmse_m"] <= 0.05 and report["player_rmse_m"] <= 0.05)
        worst_ball = max(worst_ball, report["ball_rmse_m"])
        worst_player = max(worst_player, report["player_rmse_m"])
    _verdict(capfd, "simulator-round-trip-player-dropout-0.3", over == 0,
             f"over a 0.05 m bound on {over} of 40 seeds, worst ball rmse "
             f"{worst_ball:.4f} m, worst player rmse {worst_player:.4f} m")


# ------------------------------------------------------------
# 4. scoring equivalence
# ------------------------------------------------------------


def test_scoring_matches_brute_force_oracle(capfd):
    t0 = time.perf_counter()
    rule_mix = [(5, "tiebreak_at_6"), (3, "tiebreak_at_6"), (3, "tiebreak_at_12")]
    rng = random.Random(20240819)
    sequences = 0
    steps = 0
    for i in range(10_000):
        best_of, final_rule = rule_mix[i % 3]
        ours = new_match(rules=ScoringRules(best_of=best_of, final_set_rule=final_rule))
        oracle = oracle_new_match(best_of=best_of, final_set_rule=final_rule)
        for winner in _random_sequence(rng):
            if ours.winner is not None:
                break
            assert point_context_labels(ours) == oracle_labels(oracle)
            ours = advance_score(ours, winner)
            oracle_advance(oracle, winner)
            assert snapshot(ours) == oracle_snapshot(oracle)
            steps += 1
        sequences += 1
    elapsed = time.perf_counter() - t0
    _verdict(capfd, "scoring-oracle",
             sequences == 10_000,
             f"{sequences} sequences, {steps} point states identical, {elapsed:.1f} s")


# ------------------------------------------------------------
# 5. zone metrics
# ------------------------------------------------------------


def test_zone_percentages_and_areas(capfd):
    # percentages: apportioned counts always total 100 per event kind
    zones = [classify_zone(CourtPoint(x, y), Phase.RALLY)
             for x in (-3.0, 0.0, 3.0) for y in (4.0, 8.0, 11.0, -4.0, -11.0)]
    rng = SplitMix64(99)
    worst_sum_err = 0.0
    for _ in range(50):
        records = [EventRecord(t=float(i), kind=EventKind.BOUNCE,
                               zone=zones[rng.randint(0, len(zones) - 1)],
                               player_id=None, point_index=0, position=CourtPoint(0.0, 0.0))
                   for i in range(rng.randint(1, 37))]
        zm = zone_metrics_by_point([compute_zone_metrics(records)],
                                   [new_match()])[0][MetricsWindow.MATCH_START]
        for per_zone in zm.percentages.values():
            worst_sum_err = max(worst_sum_err, abs(sum(per_zone.values()) - 100.0))

    # Monte-Carlo zone areas on the far half against the band geometry
    w = COURT.serve_band_width
    half_w = COURT.singles_half_width
    heights = {DepthBand.SHORT: COURT.service_line_y,
               DepthBand.MID: COURT.mid_depth_y - COURT.service_line_y,
               DepthBand.DEEP: COURT.baseline_y - COURT.mid_depth_y}
    widths = {LateralBand.CENTER: 2.0 * w,
              LateralBand.LEFT: half_w - w,
              LateralBand.RIGHT: half_w - w}
    total_area = 2.0 * half_w * COURT.baseline_y
    n = 400_000
    # the points of n (x, y) uniform draw pairs, classified in one pass
    u = SplitMix64(31415).uniform_many(2 * n)
    x = -half_w + (half_w - -half_w) * u[0::2]
    y = 1e-9 + (COURT.baseline_y - 1e-9) * u[1::2]
    codes = zone_codes(x, y, np.zeros(n, dtype=bool))
    hits = {}
    for code, count in enumerate(np.bincount(codes).tolist()):
        if count:
            z = ZONES[code]
            hits[(z.lateral, z.depth)] = hits.get((z.lateral, z.depth), 0) + count
    # the same first 1,000 points drawn and classified one at a time
    mc, prefix = SplitMix64(31415), {}
    for _ in range(1000):
        z = classify_zone(CourtPoint(mc.uniform(-half_w, half_w),
                                     mc.uniform(1e-9, COURT.baseline_y)), Phase.RALLY)
        prefix[z.key()] = prefix.get(z.key(), 0) + 1
    prefix_ok = prefix == {ZONES[code].key(): count
                           for code, count in enumerate(np.bincount(codes[:1000]).tolist())
                           if count}
    worst_rel = 0.0
    for (lat, dep), count in hits.items():
        analytic = widths[lat] * heights[dep]
        estimate = total_area * count / n
        worst_rel = max(worst_rel, abs(estimate - analytic) / analytic)

    _verdict(capfd, "zone-metrics",
             worst_sum_err <= 0.1 and worst_rel <= 0.02 and prefix_ok,
             f"worst percentage-sum error {worst_sum_err:.2e}, "
             f"worst MC area deviation {worst_rel * 100:.2f}% over {n} samples")


# ------------------------------------------------------------
# 6. camera discipline
# ------------------------------------------------------------


def _shot_peaks(scene, shot):
    """Peak speed (m/s) and turn rate (deg/s) inside one compiled shot, from
    finite differences of the evaluated pose at 120 Hz."""
    lo, hi = shot.t_start, shot.t_end - CUT_EPS_S
    if hi - lo < 1.0 / 120.0:
        return 0.0, 0.0
    ts = np.arange(lo, hi, 1.0 / 120.0)
    poses = [evaluate_camera_pose(scene.camera, float(t), scene) for t in ts]
    max_speed = max_rate = 0.0
    for a, b, ta, tb in zip(poses, poses[1:], ts, ts[1:]):
        dt = float(tb - ta)
        pa = np.array(a.position.as_xyz())
        pb = np.array(b.position.as_xyz())
        max_speed = max(max_speed, float(np.linalg.norm(pb - pa)) / dt)
        da = np.array(a.look_at.as_xyz()) - pa
        db = np.array(b.look_at.as_xyz()) - pb
        da /= np.linalg.norm(da)
        db /= np.linalg.norm(db)
        cos = float(np.clip(np.dot(da, db), -1.0, 1.0))
        max_rate = max(max_rate, math.degrees(math.acos(cos)) / dt)
    return max_speed, max_rate


def test_camera_timeline_discipline(capfd):
    # seed 3 plans only static replays; seed 6 adds Arc, Tracking and Dolly
    scenes = [reconstruct_scene(clip_from_dict(simulate_clip(SimConfig(seed=seed, points=3))[0]))
              for seed in (3, 6)]
    rig = DEFAULT_CONFIG.rig

    # totality: a pose exists at every millisecond of the span
    scene = scenes[0]
    t0, t1 = scene.span
    n_total = int(round((t1 - t0) * 1000.0)) + 1
    for i in range(n_total):
        pose = evaluate_camera_pose(scene.camera, min(t0 + i / 1000.0, t1), scene)
        assert math.isfinite(pose.position.x) and math.isfinite(pose.fov_deg)

    max_speed = 0.0
    max_rate = 0.0
    max_moving = 0
    motions = set()
    live_ok = True
    warps = []
    anchor = rig.anchor_pose(CameraAnchor.BASELINE)
    for scene in scenes:
        timeline = scene.camera
        # finite-difference caps inside every compiled shot at 120 Hz
        for shot in timeline.shots:
            motions.add(shot.spec.motion)
            speed, rate = _shot_peaks(scene, shot)
            max_speed = max(max_speed, speed)
            max_rate = max(max_rate, rate)

        # at most two moving shots per point
        moving = {}
        for shot in timeline.shots:
            if shot.spec.motion is not CameraMotion.STATIC:
                moving[shot.spec.point_index] = moving.get(shot.spec.point_index, 0) + 1
        max_moving = max([max_moving, *moving.values()])

        # live coverage holds the broadcast anchor bitwise
        for shot in timeline.shots:
            if shot.spec.purpose != "live":
                continue
            for u in (0.0, 0.25, 0.5, 0.75, 1.0):
                t = shot.t_start + u * (shot.t_end - CUT_EPS_S - shot.t_start)
                pose = evaluate_camera_pose(timeline, t, scene)
                live_ok &= pose.position.as_xyz() == anchor.position.as_xyz()
                live_ok &= pose.look_at.as_xyz() == anchor.look_at.as_xyz()

        # replay slow motion runs at exactly half speed inside its windows
        warps.extend((timeline, w) for w in timeline.time_warp)

    caps_ok = max_speed <= 2.0 + 1e-6 and 0.0 < max_rate <= 15.0 + 1e-6
    motions_ok = {CameraMotion.ARC, CameraMotion.TRACKING, CameraMotion.DOLLY} <= motions
    moving_ok = max_moving <= 2
    warps_ok = len(warps) > 0 and all(
        w.factor == 0.5 and timeline.playback_factor((w.t_start + w.t_end) / 2.0) == 0.5
        for timeline, w in warps)

    _verdict(capfd, "camera-discipline",
             caps_ok and motions_ok and moving_ok and live_ok and warps_ok,
             f"seed 3: {n_total} ms poses total; seeds 3, 6: max speed {max_speed:.3f} m/s, "
             f"max rate {max_rate:.2f} deg/s, "
             f"motions {'/'.join(sorted(m.value for m in motions))}, "
             f"moving/point {max_moving}, {len(warps)} half-speed warps")


# The same caps on degraded clips (1 px noise, quantized) that plan Tracking
# shots. They fail today: a Tracking keyframe looks at the target entity by
# name, so the view follows every jitter of the refined track with no limit
# on the turn (ROADMAP item 3). Seeds 3 and 6 above peak at 6.76 and 4.45
# deg/s under the same noise.
@pytest.mark.parametrize("seed", [
    pytest.param(1, marks=pytest.mark.xfail(
        strict=True, reason="a Tracking shot turns at 27.03 deg/s against the 15 deg/s cap")),
    pytest.param(20, marks=pytest.mark.xfail(
        strict=True, reason="a Tracking shot turns at 32.46 deg/s against the 15 deg/s cap")),
])
def test_camera_rate_cap_on_degraded_clips(capfd, seed):
    cfg = SimConfig(seed=seed, points=3, pixel_noise_sigma_px=1.0, quantize_pixels=True)
    scene = reconstruct_scene(clip_from_dict(simulate_clip(cfg)[0]))
    peaks = {}  # motion -> (peak speed, peak rate)
    for shot in scene.camera.shots:
        speed, rate = _shot_peaks(scene, shot)
        best = peaks.get(shot.spec.motion, (0.0, 0.0))
        peaks[shot.spec.motion] = (max(best[0], speed), max(best[1], rate))
    max_speed = max(speed for speed, _ in peaks.values())
    max_rate = max(rate for _, rate in peaks.values())
    _verdict(capfd, f"camera-caps-degraded-seed-{seed}",
             max_speed <= 2.0 + 1e-6 and max_rate <= 15.0 + 1e-6,
             ", ".join(f"{m.value} {speed:.2f} m/s {rate:.2f} deg/s"
                       for m, (speed, rate) in sorted(peaks.items(), key=lambda kv: kv[0].value)))


# ------------------------------------------------------------
# 7. throughput
# ------------------------------------------------------------


def test_reconstruction_throughput(capfd):
    clip_doc, _ = simulate_clip(SimConfig(seed=3, points=3))
    clip = clip_from_dict(clip_doc)
    assert clip.n_frames >= 503
    stats: dict = {}
    scene = reconstruct_scene(clip, stats=stats)
    pipeline_ms = 1000.0 * stats["total_s"]

    n_eval = 3000
    t0, t1 = scene.span
    start = time.perf_counter()
    for i in range(n_eval):
        evaluate_camera_pose(scene.camera, t0 + (t1 - t0) * i / (n_eval - 1), scene)
    rate = n_eval / (time.perf_counter() - start)
    _verdict(capfd, "throughput",
             pipeline_ms <= 200.0 and rate >= 2400.0,
             f"{clip.n_frames} frames reconstructed in {pipeline_ms:.1f} ms, "
             f"{rate:.0f} pose evaluations/s")


# ------------------------------------------------------------
# 8. determinism
# ------------------------------------------------------------


def test_end_to_end_determinism(tmp_path, capfd):
    outs = []
    for tag in ("a", "b"):
        clip = tmp_path / f"clip_{tag}.json"
        truth = tmp_path / f"truth_{tag}.json"
        scene = tmp_path / f"scene_{tag}.json"
        assert main(["simulate", "--seed", "42", "--points", "2",
                     "--out", str(clip), "--truth", str(truth)]) == 0
        assert main(["reconstruct", "--clip", str(clip), "--out", str(scene)]) == 0
        outs.append((clip.read_bytes(), truth.read_bytes(), scene.read_bytes()))
    same = outs[0] == outs[1]
    _verdict(capfd, "determinism",
             same,
             f"simulate and reconstruct byte-identical across runs, "
             f"scene {len(outs[0][2])} bytes")
