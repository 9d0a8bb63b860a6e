"""Refinement operator tests: gap filling, smoothing, stabilization, validation."""

import math
import tracemalloc

import numpy as np
import pytest

from rallyforge.errors import ConfigError, InsufficientData, ValidationError
from rallyforge.ingest import EventAnnotation, EventKind, clip_from_dict, to_court_space
from rallyforge.kinematics import reconstruct_planar
from rallyforge import refine
from rallyforge.projection import Homography
from rallyforge.refine import (
    RefinementConfig,
    _anchor_baseline,
    _pixel_scales,
    fill_gaps_knn,
    smooth_moving_average_piecewise,
    stabilize_resolution,
    validate_ball_planar,
)
from rallyforge.simulate import SimConfig, simulate_clip


def test_config_validation():
    RefinementConfig()  # defaults are legal
    with pytest.raises(ConfigError):
        RefinementConfig(knn_k=0)
    with pytest.raises(ConfigError):
        RefinementConfig(ma_window=4)
    with pytest.raises(ConfigError):
        RefinementConfig(stabilization_deadband_px=-1.0)


# ------------------------------------------------------------
# kNN gap fill
# ------------------------------------------------------------


def test_knn_fill_linear_ramp_gap():
    # x(i) = i with x(5) missing; the 5 nearest frames are {4, 6, 3, 7, 2}
    series = np.arange(10.0)
    series[5] = np.nan
    filled = fill_gaps_knn(series, k=5)
    assert filled[5] == pytest.approx(4.4)
    # everything else untouched
    assert np.array_equal(np.delete(filled, 5), np.delete(np.arange(10.0), 5))


def test_knn_fill_tie_prefers_earlier_frame():
    series = np.array([10.0, np.nan, 20.0])
    filled = fill_gaps_knn(series, k=1)
    assert filled[1] == 10.0


def test_knn_fill_planar_series():
    series = np.tile(np.arange(8.0)[:, None], (1, 2))
    series[3] = np.nan
    filled = fill_gaps_knn(series, k=3)
    # nearest three of frame 3: {2, 4, 1}
    assert filled[3] == pytest.approx([(2 + 4 + 1) / 3] * 2)


def test_knn_fill_requires_k_present():
    series = np.array([1.0, np.nan, np.nan, 2.0])
    with pytest.raises(InsufficientData):
        fill_gaps_knn(series, k=3)
    with pytest.raises(ConfigError):
        fill_gaps_knn(series, k=0)


def test_knn_fill_partial_row_counts_as_absent():
    series = np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 2.0], [4.0, 4.0]])
    filled = fill_gaps_knn(series, k=2)
    assert filled[1] == pytest.approx([1.0, 1.0])  # mean of frames 0 and 2


def test_knn_fill_everything_present_is_identity():
    rng = np.random.default_rng(3)
    series = rng.normal(size=(20, 2))
    assert np.array_equal(fill_gaps_knn(series, k=5), series)


def _loop_fill_gaps_knn(series, k):
    """The per-gap probe loop fill_gaps_knn replaced, kept as its reference."""
    arr = np.array(series, dtype=float)
    arr = arr[:, None] if arr.ndim == 1 else arr
    present_idx = np.flatnonzero(np.all(np.isfinite(arr), axis=1))
    for i in np.flatnonzero(~np.all(np.isfinite(arr), axis=1)):
        # probe outward from i; at equal distance the earlier frame wins
        pos = int(np.searchsorted(present_idx, i))
        lo, hi = pos - 1, pos
        chosen = []
        while len(chosen) < k:
            d_lo = i - present_idx[lo] if lo >= 0 else math.inf
            d_hi = present_idx[hi] - i if hi < len(present_idx) else math.inf
            if d_lo <= d_hi:
                chosen.append(present_idx[lo])
                lo -= 1
            else:
                chosen.append(present_idx[hi])
                hi += 1
        arr[i] = arr[chosen].mean(axis=0)
    return arr[:, 0] if np.ndim(series) == 1 else arr


@pytest.mark.parametrize("k", [*range(1, 8), 9, 16])
def test_knn_fill_is_bit_equal_to_the_loop(k):
    rng = np.random.default_rng(100 + k)
    for trial in range(40):
        n = int(rng.integers(k, 60))
        shape = (n,) if trial % 2 else (n, 2)
        series = rng.normal(size=shape) * 10
        absent = rng.random(n) < rng.uniform(0.05, 0.6)
        # runs of gaps at both ends, where one side runs out of candidates
        absent[:int(rng.integers(0, 4))] = True
        absent[n - int(rng.integers(0, 4)):] = True
        keep = rng.choice(n, size=k, replace=False)
        absent[keep] = False
        series[absent] = np.nan
        got = fill_gaps_knn(series, k)
        assert got.shape == series.shape
        assert np.array_equal(got, _loop_fill_gaps_knn(series, k))


def test_knn_fill_in_small_batches_is_bit_equal_to_the_loop(monkeypatch):
    # a large k gathers few gaps per batch; shrink the batch to see the seams
    monkeypatch.setattr(refine, "KNN_BATCH_CANDIDATES", 20)
    rng = np.random.default_rng(77)
    series = rng.normal(size=(300, 2))
    series[rng.random(300) < 0.4] = np.nan
    for k in (1, 3, 7, 11):
        assert np.array_equal(fill_gaps_knn(series, k), _loop_fill_gaps_knn(series, k))


@pytest.mark.parametrize("k", range(1, 8))
def test_knn_fill_breaks_distance_ties_like_the_loop(k):
    # every other frame present: each gap has two neighbours at each distance
    series = np.arange(40.0) ** 1.5
    series[1::2] = np.nan
    got = fill_gaps_knn(series, k)
    assert np.array_equal(got, _loop_fill_gaps_knn(series, k))


# ------------------------------------------------------------
# Moving average
# ------------------------------------------------------------


def test_moving_average_impulse():
    series = np.array([0.0, 0, 0, 5, 0, 0, 0])
    smoothed = smooth_moving_average_piecewise(series, 5, ())
    assert smoothed[3] == pytest.approx(1.0)
    assert smoothed.tolist() == pytest.approx([0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0])


def test_moving_average_preserves_affine_series():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.normal(size=2)
        series = a * np.arange(30.0) + b
        assert smooth_moving_average_piecewise(series, 5, ()) == pytest.approx(series, abs=1e-12)


def test_moving_average_shrinks_at_boundaries():
    series = np.array([4.0, 0.0, 0.0, 0.0, 0.0])
    smoothed = smooth_moving_average_piecewise(series, 5, ())
    assert smoothed[0] == 4.0  # window of one at the ends
    assert smoothed[1] == pytest.approx(4.0 / 3.0)


def _loop_moving_average(series, window):
    """The per-sample loop of the moving average without boundaries, kept as its reference."""
    arr = np.asarray(series, dtype=float)
    arr = arr[:, None] if arr.ndim == 1 else arr
    n = len(arr)
    out = arr.copy()
    max_half = window // 2
    prefix = np.vstack([np.zeros((1, arr.shape[1])), np.cumsum(arr, axis=0)])
    for i in range(n):
        half = min(i, n - 1 - i, max_half)
        if half:
            out[i] = (prefix[i + half + 1] - prefix[i - half]) / (2 * half + 1)
    return out[:, 0] if np.ndim(series) == 1 else out


@pytest.mark.parametrize("window", [1, 3, 5, 7])
def test_moving_average_is_bit_equal_to_the_loop(window):
    rng = np.random.default_rng(window)
    for n in range(1, 13):
        for series in (rng.normal(size=n) * 10, rng.normal(size=(n, 2)) * 10):
            got = smooth_moving_average_piecewise(series, window, ())
            assert got.shape == series.shape
            assert np.array_equal(got, _loop_moving_average(series, window))


def test_moving_average_rejects_even_window_and_gaps():
    with pytest.raises(ConfigError):
        smooth_moving_average_piecewise(np.zeros(5), 4, ())
    with pytest.raises(ValidationError):
        smooth_moving_average_piecewise(np.array([1.0, np.nan, 2.0]), 3, ())


def test_piecewise_smoothing_preserves_kinked_path():
    # piecewise-affine with a genuine velocity kink at frame 10
    t = np.arange(21.0)
    series = np.where(t <= 10, 2.0 * t, 20.0 - 3.0 * (t - 10))
    smoothed = smooth_moving_average_piecewise(series, 5, boundaries=[0, 10, 20])
    assert smoothed == pytest.approx(series, abs=1e-12)
    # a plain global window drags values near the kink
    plain = smooth_moving_average_piecewise(series, 5, ())
    assert abs(plain[10] - series[10]) > 0.5


def test_piecewise_smoothing_still_smooths_inside_segments():
    series = np.zeros(11)
    series[5] = 5.0
    smoothed = smooth_moving_average_piecewise(series, 5, boundaries=[0, 10])
    assert smoothed[5] == pytest.approx(1.0)


def _loop_piecewise(series, window, boundaries):
    """The per-piece loop smooth_moving_average_piecewise replaced, kept as its reference."""
    arr = np.array(series, dtype=float)
    n = len(arr)
    edges = [0] + sorted({int(b) for b in boundaries if 0 <= int(b) < n}) + [n - 1]
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            arr[a:b + 1] = _loop_moving_average(series[a:b + 1], window)
    return arr


@pytest.mark.parametrize("window", [1, 3, 5, 7])
def test_piecewise_smoothing_is_bit_equal_to_the_loop(window):
    rng = np.random.default_rng(200 + window)
    for trial in range(30):
        n = int(rng.integers(1, 400))
        series = rng.normal(size=(n, 2) if trial % 2 else n) * 10
        # many short pieces, one long one, duplicates and out-of-range boundaries
        short = np.cumsum(rng.integers(1, 12, size=40))
        boundaries = np.concatenate([short, short[-1] + rng.integers(50, 300, size=1),
                                     rng.integers(-5, n + 5, size=3), [0, n - 1]])
        got = smooth_moving_average_piecewise(series, window, boundaries.tolist())
        assert got.shape == series.shape
        assert np.array_equal(got, _loop_piecewise(series, window, boundaries.tolist()))


def test_piecewise_smoothing_memory_is_linear_in_the_series():
    # one long piece among many short ones: padding every piece to the
    # longest would take pieces x longest samples
    n = 20_000
    series = np.random.default_rng(9).normal(size=(n, 2))
    boundaries = list(range(0, n // 2, 50))
    tracemalloc.start()
    try:
        smooth_moving_average_piecewise(series, 5, boundaries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * series.nbytes


def test_piecewise_smoothing_checks_its_input_up_front():
    with pytest.raises(ConfigError):
        smooth_moving_average_piecewise(np.zeros((1, 2)), 4, [])
    with pytest.raises(ValidationError):
        smooth_moving_average_piecewise(np.full((1, 2), np.nan), 5, [])
    with pytest.raises(ValidationError):
        smooth_moving_average_piecewise(np.array([1.0, np.nan, 2.0]), 3, [1])


# ------------------------------------------------------------
# Stabilization
# ------------------------------------------------------------


def test_stabilize_suppresses_subpixel_jitter():
    # identity calibration: one pixel is one metre of court space
    h = Homography.identity()
    rng = np.random.default_rng(5)
    base = np.array([2.0, -7.0])
    series = base + rng.uniform(-0.3, 0.3, size=(40, 2))
    out = stabilize_resolution(series, h, deadband_px=1.0)
    assert np.array_equal(out, np.tile(series[0], (40, 1)))


def test_stabilize_zero_deadband_is_identity():
    h = Homography.identity()
    rng = np.random.default_rng(6)
    series = rng.normal(size=(30, 2))
    assert np.array_equal(stabilize_resolution(series, h, deadband_px=0.0), series)


def test_stabilize_passes_real_motion():
    h = Homography.identity()
    series = np.column_stack([np.arange(10.0) * 2.0, np.zeros(10)])
    out = stabilize_resolution(series, h, deadband_px=1.0)
    assert np.array_equal(out, series)


def test_stabilize_threshold_scales_with_calibration():
    # this calibration maps 1 m to 2 px, so one pixel is half a metre
    h = Homography(np.diag([2.0, 2.0, 1.0]))
    series = np.zeros((3, 2))
    series[1] = (0.7, 0.0)   # above the 0.5 m threshold: kept
    series[2] = (0.9, 0.0)   # 0.2 m from the held point: suppressed
    out = stabilize_resolution(series, h, deadband_px=1.0)
    assert out[1].tolist() == [0.7, 0.0]
    assert out[2].tolist() == [0.7, 0.0]


def test_stabilize_rejects_negative_deadband():
    with pytest.raises(ConfigError):
        stabilize_resolution(np.zeros((3, 2)), Homography.identity(), deadband_px=-0.5)


def test_stabilize_rejects_nan_deadband():
    # a NaN deadband would hold nothing, since no distance compares below it
    with pytest.raises(ConfigError):
        stabilize_resolution(np.zeros((3, 2)), Homography.identity(), deadband_px=math.nan)


def _pixel_scale_at(h: Homography, point) -> float:
    """Court-space length of one pixel near the given court point (metres/px).

    The scalar definition; ``refine._pixel_scales`` computes it for a whole
    series.
    """
    u, v = h.world_to_image(point[0], point[1])
    x0, y0 = h.image_to_world(u, v)
    x1, y1 = h.image_to_world(u + 1.0, v)
    x2, y2 = h.image_to_world(u, v + 1.0)
    return (math.hypot(x1 - x0, y1 - y0) + math.hypot(x2 - x0, y2 - y0)) / 2.0


def _rotated_calibration() -> Homography:
    # both pixel steps move x and y alike; there np.hypot and math.hypot
    # round differently
    c, s = math.cos(0.7), math.sin(0.7)
    return Homography(np.array([[40.0 * c, -40.0 * s, 960.0],
                                [40.0 * s, 40.0 * c, 540.0],
                                [0.001, 0.002, 1.0]]))


def _lifted_players(seed=3):
    cfg = SimConfig(seed=seed, points=2, pixel_noise_sigma_px=1.0, quantize_pixels=True)
    tracks = to_court_space(clip_from_dict(simulate_clip(cfg)[0]))
    return tracks.homography, [tracks.players[pid] for pid in sorted(tracks.players)]


def test_stabilize_thresholds_equal_the_scalar_pixel_scale():
    h, players = _lifted_players()
    oblique = _rotated_calibration()
    rng = np.random.default_rng(8)
    points = np.vstack(players + [rng.uniform(-6, 6, size=(4000, 2)) * (1.0, 2.5)])
    for calibration in (h, oblique):
        scalar = np.array([_pixel_scale_at(calibration, p) for p in points])
        assert np.array_equal(_pixel_scales(calibration, points), scalar)


def _loop_stabilize(series, h, deadband_px):
    """The per-sample loop stabilize_resolution replaced, kept as its reference."""
    arr = np.array(series, dtype=float)
    out = arr.copy()
    held = arr[0]
    threshold = deadband_px * _pixel_scale_at(h, held)
    for i in range(1, len(arr)):
        if float(np.hypot(*(arr[i] - held))) < threshold:
            out[i] = held
        else:
            held = arr[i]
            threshold = deadband_px * _pixel_scale_at(h, held)
    return out


@pytest.mark.parametrize("deadband", [0.5, 1.0, 3.0])
def test_stabilize_is_bit_equal_to_the_loop(deadband):
    h, players = _lifted_players()
    for series in players:
        smooth = smooth_moving_average_piecewise(series, 5, ())
        got = stabilize_resolution(smooth, h, deadband)
        assert np.array_equal(got, _loop_stabilize(smooth, h, deadband))
        # the deadband really holds some samples and passes others
        assert 0 < np.count_nonzero(np.any(got != smooth, axis=1)) < len(smooth) - 1


def _steps_at_the_threshold(h, deadband_px, n=3000, seed=11):
    """A series whose every step lies a few ulps from the held point's threshold.

    Each sample sits at the threshold distance, scaled by 1 + k * 2**-52 for
    k in -6..6, from the point the loop holds at that moment, in a random
    direction; a quarter of the steps repeat the held point exactly.
    """
    rng = np.random.default_rng(seed)
    held = np.array([1.5, -4.0])
    threshold = deadband_px * _pixel_scale_at(h, held)
    rows = [held]
    for _ in range(n - 1):
        if rng.random() < 0.25:
            point = held.copy()
        else:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            radius = threshold * (1.0 + int(rng.integers(-6, 7)) * 2.0 ** -52)
            point = held + radius * np.array([math.cos(angle), math.sin(angle)])
        rows.append(point)
        if not float(np.hypot(*(point - held))) < threshold:
            held = point
            threshold = deadband_px * _pixel_scale_at(h, held)
    return np.array(rows)


@pytest.mark.parametrize("calibration", ["lifted", "rotated"])
def test_stabilize_is_bit_equal_to_the_loop_at_the_threshold(calibration):
    h = _lifted_players()[0] if calibration == "lifted" else _rotated_calibration()
    series = _steps_at_the_threshold(h, 1.0)
    got = stabilize_resolution(series, h, 1.0)
    assert got.tobytes() == _loop_stabilize(series, h, 1.0).tobytes()
    # the ulp-close steps go both ways, and zero steps are held
    d = np.hypot(*np.diff(series, axis=0).T)
    moved = np.any(got[1:] != got[:-1], axis=1)
    assert moved.any() and (~moved[d > 0]).any()
    assert not moved[d == 0].any()


def test_stabilize_is_bit_equal_to_the_loop_on_zero_steps():
    h = _rotated_calibration()
    series = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [0.0, 0.0], [3.0, 1.0],
                       [3.0, 1.0], [3.0, 1.0], [-2.0, 5.0], [-2.0, 5.0]])
    got = stabilize_resolution(series, h, 1.0)
    assert got.tobytes() == _loop_stabilize(series, h, 1.0).tobytes()
    assert got.tolist() == [[0.0, 0.0]] * 4 + [[3.0, 1.0]] * 3 + [[-2.0, 5.0]] * 2


@pytest.mark.parametrize("deadband", [1e-160, math.inf])
def test_stabilize_is_bit_equal_to_the_loop_where_the_square_is_not_normal(deadband):
    # a threshold near 1e-162 squares to zero or a subnormal, and an infinite
    # one to infinity: there only np.hypot can decide
    h, players = _lifted_players()
    scale = _pixel_scale_at(h, (0.0, 0.0))
    rng = np.random.default_rng(4)
    tiny = np.cumsum(rng.uniform(-2.0, 2.0, size=(400, 2)) * 1e-160 * scale, axis=0)
    for series in (players[0], _steps_at_the_threshold(h, 1.0, n=400), tiny):
        got = stabilize_resolution(series, h, deadband)
        assert got.tobytes() == _loop_stabilize(series, h, deadband).tobytes()
    moves = np.count_nonzero(np.any(got[1:] != got[:-1], axis=1))
    if deadband == math.inf:
        assert moves == 0
    else:
        assert 0 < moves < len(tiny) - 1


# ------------------------------------------------------------
# Ball validation
# ------------------------------------------------------------


def _ramp_ball(n=11):
    """y climbs 0..n-1 linearly, x is zero; bounces anchor both ends."""
    series = np.column_stack([np.zeros(n), np.arange(float(n))])
    events = [
        EventAnnotation(frame=0, kind=EventKind.BOUNCE),
        EventAnnotation(frame=n - 1, kind=EventKind.BOUNCE),
    ]
    return series, events


def test_validate_refills_longitudinal_outlier():
    series, events = _ramp_ball()
    series[5, 1] = 9.5  # 4.5 m off the bounce-to-bounce baseline
    stats = {}
    out = validate_ball_planar(series, events, stats=stats)
    assert stats["ball_outliers"] == 1
    # refilled from neighbours {4, 6, 3, 7, 2}
    assert out[5, 1] == pytest.approx((4 + 6 + 3 + 7 + 2) / 5)
    assert np.array_equal(out[:5], series[:5])


def test_validate_keeps_inliers():
    series, events = _ramp_ball()
    out = validate_ball_planar(series.copy(), events)
    assert np.array_equal(out, series)


def test_validate_is_idempotent():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = 40
        series = np.column_stack([rng.normal(0, 1, n), np.linspace(-11, 11, n)])
        series[:, 1] += rng.normal(0, 0.4, n)
        for i in rng.choice(np.arange(1, n - 1), size=6, replace=False):
            series[i, 1] += rng.choice([-1, 1]) * rng.uniform(3.5, 15.0)
        events = [
            EventAnnotation(frame=0, kind=EventKind.BOUNCE),
            EventAnnotation(frame=n // 2, kind=EventKind.BOUNCE),
            EventAnnotation(frame=n - 1, kind=EventKind.BOUNCE),
            EventAnnotation(frame=10, kind=EventKind.CONTACT, player_id="p1"),
        ]
        once = validate_ball_planar(series.copy(), events)
        twice = validate_ball_planar(once.copy(), events)
        assert np.array_equal(once, twice)


def _loop_anchor_baseline(arr, bounce_frames):
    """The per-anchor loop _anchor_baseline replaced, kept as its reference."""
    y = np.empty(len(arr))
    y[:] = arr[bounce_frames[0], 1]
    for f0, f1 in zip(bounce_frames[:-1], bounce_frames[1:]):
        span = np.arange(f0, f1 + 1)
        y[span] = np.interp(span, [f0, f1], [arr[f0, 1], arr[f1, 1]])
    y[bounce_frames[-1]:] = arr[bounce_frames[-1], 1]
    return y


def test_anchor_baseline_is_bit_equal_to_the_loop():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(2, 200))
        arr = rng.normal(size=(n, 2)) * 10
        # sorted, possibly repeated bounce frames, as validation collects them
        frames = sorted(rng.integers(0, n, size=int(rng.integers(2, 12))).tolist())
        assert np.array_equal(_anchor_baseline(arr, frames), _loop_anchor_baseline(arr, frames))


@pytest.mark.parametrize("kind", [EventKind.BOUNCE, EventKind.CONTACT])
@pytest.mark.parametrize("frame", [-1, 11])
def test_validate_rejects_event_outside_the_series(kind, frame):
    series, events = _ramp_ball()
    events = events + [EventAnnotation(frame=frame, kind=kind, player_id="p1")]
    with pytest.raises(ValidationError):
        validate_ball_planar(series, events)


def test_validate_requires_complete_series():
    series, events = _ramp_ball()
    series[4] = np.nan
    with pytest.raises(ValidationError):
        validate_ball_planar(series, events)


# ------------------------------------------------------------
# Planar segments
# ------------------------------------------------------------


def test_reconstruct_planar_velocity():
    segments = reconstruct_planar([(0.0, (0.0, 0.0)), (2.0, (4.0, -2.0))])
    assert len(segments) == 1
    seg = segments[0]
    assert (seg.vx, seg.vy) == (2.0, -1.0)
    assert seg.position_at(1.0) == (2.0, -1.0)
    assert seg.position_at(2.0) == (4.0, -2.0)


def test_reconstruct_planar_validates_input():
    with pytest.raises(ValidationError):
        reconstruct_planar([(0.0, (0.0, 0.0))])
    with pytest.raises(ValidationError):
        reconstruct_planar([(0.0, (0.0, 0.0)), (0.0, (1.0, 1.0))])
