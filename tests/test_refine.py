"""Refinement operator tests: gap filling, smoothing, stabilization, validation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rallyforge.errors import ConfigError, InsufficientData, ValidationError
from rallyforge.ingest import (EventAnnotation, EventKind, SpinType, _lift_series, clip_from_dict,
                               to_court_space)
from rallyforge.kinematics import SEGMENT_FIELDS, evaluate_runs
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
from rallyforge.pipeline import refine_tracks
from rallyforge.simulate import SimConfig, simulate_clip

from kinematics_reference import BallKeyframe, table_of

# derandomized and bounded, so the suite stays deterministic
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _same_bits(a, b) -> bool:
    """Equal shapes and equal bits: -0.0 differs from 0.0, and NaN payloads count."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


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
    with pytest.raises(ValidationError, match="non-empty"):
        smooth_moving_average_piecewise(np.empty((0, 2)), 5, [])


@settings(PROPERTY, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300), cols=st.integers(1, 6),
       window=st.sampled_from([1, 3, 5, 7, 9]),
       boundaries=st.lists(st.integers(-5, 305), max_size=40))
def test_grouped_smoothing_is_bit_equal_to_each_piece_alone(seed, n, cols, window, boundaries):
    # pieces of many lengths share a power-of-two group; boundaries repeat,
    # sit next to each other and fall outside the series
    series = np.random.default_rng(seed).normal(size=(n, cols)) * 10
    boundaries = boundaries + [b + 1 for b in boundaries[:5]] + boundaries[:3]
    got = smooth_moving_average_piecewise(series, window, boundaries)
    assert _same_bits(got, _loop_piecewise(series, window, boundaries))


def test_grouped_smoothing_memory_is_linear_with_one_long_piece_among_many_short():
    # padding every piece to the longest would take 10,001 x 20,000 samples;
    # padding to the next power of two at most doubles each piece
    long_piece, short_pieces = 20_000, 10_000
    n = long_piece + 2 * short_pieces
    series = np.random.default_rng(12).normal(size=(n, 2))
    boundaries = list(range(long_piece - 1, n, 2))
    tracemalloc.start()
    try:
        got = smooth_moving_average_piecewise(series, 5, boundaries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * series.nbytes
    assert _same_bits(got, _loop_piecewise(series, 5, boundaries))


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


def test_stabilize_requires_a_complete_series():
    with pytest.raises(ValidationError, match="complete series"):
        stabilize_resolution(np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]]),
                             Homography.identity(), 1.0)


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


def test_pixel_scales_and_two_player_stabilize_equal_the_scalar_loop():
    h, players = _lifted_players()
    points = np.vstack(players)[:100]
    scalar = np.array([_pixel_scale_at(h, p) for p in points])
    assert np.array_equal(_pixel_scales(h, points), scalar)
    smooth = smooth_moving_average_piecewise(np.hstack(players), 5, ())
    assert _same_bits(stabilize_resolution(smooth, h, 1.0),
                      np.hstack([_loop_stabilize(smooth[:, :2], h, 1.0),
                                 _loop_stabilize(smooth[:, 2:], h, 1.0)]))


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


def _wandering(rng, n):
    """An (n, 2) court track that jitters below a pixel and now and then moves."""
    steps = rng.normal(scale=0.02, size=(n, 2))
    steps[rng.random(n) < 0.2] *= 20.0
    return rng.uniform(-5.0, 5.0, size=2) * (1.0, 2.0) + np.cumsum(steps, axis=0)


@settings(PROPERTY, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 200), k=st.integers(1, 4),
       deadband=st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e-160, math.inf]),
       calibration=st.sampled_from(["lifted", "rotated"]))
def test_stabilize_side_by_side_is_bit_equal_to_each_track_alone(seed, n, k, deadband,
                                                                  calibration):
    h = _lifted_players()[0] if calibration == "lifted" else _rotated_calibration()
    rng = np.random.default_rng(seed)
    tracks = [_steps_at_the_threshold(h, 1.0, n=n, seed=seed % 1000)]
    tracks += [_wandering(rng, n) for _ in range(k - 1)]
    got = stabilize_resolution(np.hstack(tracks), h, deadband)
    for i, track in enumerate(tracks):
        assert _same_bits(got[:, 2 * i:2 * i + 2], stabilize_resolution(track, h, deadband))


@pytest.mark.parametrize("shape", [(6,), (6, 1), (6, 3), (6, 5)])
def test_stabilize_rejects_an_odd_column_count(shape):
    with pytest.raises(ValidationError, match="planar"):
        stabilize_resolution(np.zeros(shape), Homography.identity(), 1.0)


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


def _set_validate_ball_planar(ball_series, events, knn_k=5):
    """The frozenset loop validate_ball_planar replaced, kept as its reference.

    Returns the validated series and the count of flagged samples.
    """
    arr = np.array(ball_series, dtype=float)
    n = len(arr)
    bounce_frames = sorted(e.frame for e in events if e.kind is EventKind.BOUNCE)
    flagged: set = set()
    if len(bounce_frames) >= 2:
        baseline_y = _anchor_baseline(arr, bounce_frames)
        checked = np.zeros(n, dtype=bool)
        checked[bounce_frames[0]:bounce_frames[-1] + 1] = True
        checked[bounce_frames] = False

        def current_outliers() -> frozenset:
            deviation = np.abs(arr[:, 1] - baseline_y)
            return frozenset(np.flatnonzero(checked & (deviation > refine.BALL_OUTLIER_THRESHOLD_M)))

        previous = None
        for _ in range(refine.MAX_REFILL_PASSES):
            outliers = current_outliers()
            flagged |= outliers
            if not outliers or outliers == previous:
                break
            previous = outliers
            holes = arr.copy()
            holes[list(outliers)] = np.nan
            arr = fill_gaps_knn(holes, knn_k)
        for i in current_outliers():
            arr[i, 1] = baseline_y[i]
    return arr, len(flagged)


@settings(PROPERTY, max_examples=120)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 80),
       bounces=st.lists(st.integers(0, 10 ** 6), max_size=6), runs=st.integers(0, 6),
       knn_k=st.integers(1, 5))
def test_validate_is_bit_equal_to_the_frozenset_loop(seed, n, bounces, runs, knn_k):
    rng = np.random.default_rng(seed)
    series = np.column_stack([rng.normal(0, 1, n), np.linspace(-11, 11, n)])
    series[:, 1] += rng.normal(0, 0.4, n)
    # runs of outliers: a long run refills from its own samples and takes
    # several passes, or is pinned to the baseline
    for _ in range(runs):
        start = int(rng.integers(0, n))
        series[start:start + int(rng.integers(1, 12)), 1] += rng.choice([-1, 1]) * rng.uniform(3.5, 15)
    events = [EventAnnotation(frame=b % n, kind=EventKind.BOUNCE) for b in bounces]
    events.append(EventAnnotation(frame=int(rng.integers(0, n)), kind=EventKind.CONTACT,
                                  player_id="p1"))
    try:
        want, want_flagged = _set_validate_ball_planar(series, events, knn_k)
    except InsufficientData as e:
        with pytest.raises(InsufficientData, match=str(e)):
            validate_ball_planar(series, events, knn_k)
        return
    stats = {}
    got = validate_ball_planar(series, events, knn_k, stats=stats)
    assert _same_bits(got, want)
    assert stats == {"ball_outliers": want_flagged}


# ------------------------------------------------------------
# Planar segments
# ------------------------------------------------------------


def _planar(*keyframes):
    """The one-point table through (time, position) keyframes: a serve, then bounces."""
    return table_of([
        BallKeyframe(t, position, EventKind.CONTACT, 1.0, SpinType.TOPSPIN) if i == 0
        else BallKeyframe(t, position, EventKind.BOUNCE)
        for i, (t, position) in enumerate(keyframes)
    ])


def test_reconstruct_planar_velocity():
    table = _planar((0.0, (0.0, 0.0)), (2.0, (4.0, -2.0)))
    assert len(table.segments) == 1
    vx, vy = (table.segments[0, SEGMENT_FIELDS.index(name)] for name in ("vx", "vy"))
    assert (vx, vy) == (2.0, -1.0)
    xy = evaluate_runs(table, [1.0, 2.0], [2])[:, :2]
    assert xy.tolist() == [[2.0, -1.0], [4.0, -2.0]]


def test_reconstruct_planar_validates_input():
    with pytest.raises(ValidationError):
        _planar((0.0, (0.0, 0.0)))
    with pytest.raises(ValidationError):
        _planar((0.0, (0.0, 0.0)), (0.0, (1.0, 1.0)))


# ------------------------------------------------------------
# Tracks side by side
# ------------------------------------------------------------


@settings(PROPERTY, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 150), players=st.integers(1, 3),
       dropout=st.floats(0.0, 0.6), window=st.sampled_from([1, 3, 5, 7, 9]),
       events=st.lists(st.integers(-3, 155), max_size=12),
       deadband=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
def test_players_refined_side_by_side_equal_each_refined_alone(seed, n, players, dropout,
                                                               window, events, deadband):
    h = _lifted_players()[0]
    rng = np.random.default_rng(seed)
    raw = []
    for _ in range(players):
        track = _wandering(rng, n)
        absent = rng.random(n) < dropout
        absent[rng.choice(n, size=5, replace=False)] = False  # k = 5 present samples
        track[absent] = np.nan
        raw.append(track)
    # event frames that repeat, sit next to each other and fall outside the series
    events = events + [e + 1 for e in events[:3]] + events[:2]
    filled = [fill_gaps_knn(track, 5) for track in raw]
    together = stabilize_resolution(
        smooth_moving_average_piecewise(np.hstack(filled), window, events), h, deadband)
    for i, track in enumerate(filled):
        alone = stabilize_resolution(smooth_moving_average_piecewise(track, window, events),
                                     h, deadband)
        assert _same_bits(together[:, 2 * i:2 * i + 2], alone)


def _refine_each_alone(tracks, clip, ref):
    """The per-player loop refine_tracks replaced, kept as its reference."""
    event_frames = sorted({e.frame for e in clip.events})
    players = {}
    for pid in sorted(tracks.players):
        series = fill_gaps_knn(tracks.players[pid], ref.knn_k)
        series = smooth_moving_average_piecewise(series, ref.ma_window, event_frames)
        players[pid] = stabilize_resolution(series, tracks.homography,
                                            ref.stabilization_deadband_px)
    ball = validate_ball_planar(fill_gaps_knn(tracks.ball, ref.knn_k), clip.events, ref.knn_k)
    return ball, players


@settings(PROPERTY, max_examples=10)
@given(seed=st.integers(0, 100), points=st.integers(1, 3),
       dropout=st.sampled_from([0.0, 0.1, 0.3]))
def test_refine_tracks_refines_each_player_as_if_alone(seed, points, dropout):
    clip = clip_from_dict(simulate_clip(SimConfig(
        seed=seed, points=points, pixel_noise_sigma_px=1.0, quantize_pixels=True,
        dropout_rate=dropout))[0])
    ref = RefinementConfig()
    ball, players = _refine_each_alone(to_court_space(clip), clip, ref)
    tracks = refine_tracks(to_court_space(clip), clip)
    assert list(tracks.players) == list(clip.foot_px)
    assert _same_bits(tracks.ball, ball)
    for pid, series in players.items():
        assert _same_bits(tracks.players[pid], series)


@settings(PROPERTY, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 150), tracks=st.integers(1, 4),
       dropout=st.floats(0.0, 1.0), quantized=st.booleans(), empty=st.booleans())
def test_lifting_tracks_together_is_bit_equal_to_lifting_each(seed, n, tracks, dropout,
                                                              quantized, empty):
    # Each track keeps two present samples, or none: numpy hands a product
    # of one row to BLAS's matrix-vector routine, which rounds differently,
    # so a track with one present sample lifts differently alone.
    minv = np.linalg.inv(_lifted_players()[0].matrix)
    rng = np.random.default_rng(seed)
    pixels = []
    for _ in range(tracks):
        px = rng.uniform((0.0, 0.0), (1920.0, 1080.0), size=(n, 2))
        px = np.round(px) if quantized else px
        absent = rng.random((n, 2)) < dropout / 2  # a sample missing one coordinate is absent
        absent[rng.choice(n, size=2, replace=False)] = False
        px[absent] = np.nan
        pixels.append(px)
    if empty:
        pixels[-1][:] = np.nan
    together = _lift_series(minv, np.vstack(pixels))
    for i, px in enumerate(pixels):
        assert _same_bits(together[i * n:(i + 1) * n], _lift_series(minv, px))


def test_to_court_space_lifts_every_track_as_alone():
    clip = clip_from_dict(simulate_clip(SimConfig(
        seed=7, points=2, pixel_noise_sigma_px=1.0, quantize_pixels=True, dropout_rate=0.2))[0])
    tracks = to_court_space(clip)
    minv = np.linalg.inv(tracks.homography.matrix)
    assert _same_bits(tracks.ball, _lift_series(minv, clip.ball_px))
    assert list(tracks.players) == list(clip.foot_px)
    for pid, foot in clip.foot_px.items():
        assert _same_bits(tracks.players[pid], _lift_series(minv, foot))
