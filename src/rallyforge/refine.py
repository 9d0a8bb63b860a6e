"""Time-series refinement for planar court-space tracks.

Series are numpy arrays of shape (n, 2) (or (n,) for scalar series); absent
samples are NaN. The pipeline applies, in order:

* players: gap fill -> moving average -> resolution stabilization
* ball:    gap fill -> planar validation (bounce-baseline outliers)

Gap fill runs per track. The moving average and the stabilization also take
k tracks side by side as one (n, 2k) array, each column pair refined as if
it were alone, so the pipeline refines all players in one call of each.

The ball is not smoothed: the pipeline reads it only at Bounce and NetCord
keyframe frames (a Contact keyframe sits at the hitter's refined foot), and a
moving average cut at every contact and bounce (genuine velocity
discontinuities) never alters the samples at its cuts.

Every step is array code with work and memory linear in the samples, and is
bit-identical to its scalar definition: the kNN fill to probing outward from
each gap, the piecewise moving average to smoothing each piece alone, and the
stabilization thresholds to mapping one-pixel steps through the calibration
at each sample alone. Only the deadband compare, where each sample depends on
the one held before it, runs sample by sample, per player.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, InsufficientData, ValidationError
from .ingest import EventAnnotation, EventKind
from .projection import Homography

# A ball sample further than this along the court from the bounce baseline is an outlier.
BALL_OUTLIER_THRESHOLD_M = 3.0

# Stage-one outlier refill is iterated to a fixed point; this caps pathological inputs.
MAX_REFILL_PASSES = 8

# Neighbour candidates that gap filling gathers at once (two per gap and unit of k).
KNN_BATCH_CANDIDATES = 1 << 16

# Samples whose pixel scales are computed at once: a short clip's players in
# one block, and a long clip's in blocks whose arrays stay in cache (one block
# of all 34k player samples of an 80-point clip took about 10% longer).
PIXEL_SCALE_BLOCK = 1 << 13


@dataclass(frozen=True)
class RefinementConfig:
    knn_k: int = 5
    ma_window: int = 5
    stabilization_deadband_px: float = 1.0

    def __post_init__(self):
        if not isinstance(self.knn_k, int) or self.knn_k < 1:
            raise ConfigError(f"knn_k must be a positive integer, got {self.knn_k!r}")
        if not isinstance(self.ma_window, int) or self.ma_window < 1 or self.ma_window % 2 == 0:
            raise ConfigError(f"ma_window must be a positive odd integer, got {self.ma_window!r}")
        if not self.stabilization_deadband_px >= 0:
            raise ConfigError("stabilization_deadband_px must be >= 0")


def _as_series(series) -> Tuple[np.ndarray, bool]:
    arr = np.asarray(series, dtype=float)
    scalar = arr.ndim == 1
    if scalar:
        arr = arr[:, None]
    if arr.ndim != 2 or len(arr) == 0:
        raise ValidationError("series must be a non-empty 1-D or 2-D array")
    return arr.copy(), scalar


def _present_mask(arr: np.ndarray) -> np.ndarray:
    # a sample missing any coordinate counts as absent; and-ing the columns
    # is several times faster than a reduction along the short row axis
    return functools.reduce(np.logical_and, np.isfinite(arr).T, np.ones(len(arr), dtype=bool))


def count_absent(series) -> int:
    """Samples missing a coordinate: the rows ``fill_gaps_knn`` fills."""
    arr, _ = _as_series(series)
    return int(np.count_nonzero(~_present_mask(arr)))


def fill_gaps_knn(series, k: int = 5):
    """Fill absent samples with the unweighted mean of the k nearest present ones.

    Distance is temporal (frame index difference); ties prefer the earlier
    frame. Present samples pass through untouched.

    Raises InsufficientData when fewer than k samples are present, ConfigError
    for a non-positive k.
    """
    if not isinstance(k, int) or k < 1:
        raise ConfigError(f"k must be a positive integer, got {k!r}")
    arr, scalar = _as_series(series)
    present = _present_mask(arr)
    present_idx = np.flatnonzero(present)
    if len(present_idx) < k:
        raise InsufficientData(
            f"gap filling needs at least k={k} present samples, got {len(present_idx)}"
        )
    gaps = np.flatnonzero(~present)
    steps = np.arange(k)
    # a batch of gaps holds at most KNN_BATCH_CANDIDATES candidates, so a large k
    # cannot make the candidate arrays outgrow memory
    batch = max(1, KNN_BATCH_CANDIDATES // (2 * k))
    for first in range(0, len(gaps), batch):
        at = gaps[first:first + batch, None]
        # the k nearest are among the k present frames below and the k above;
        # a stable sort with the below side first lets the earlier frame win
        # ties, and keeps the order in which a probe outward would meet them
        pos = np.searchsorted(present_idx, at)
        rank = np.concatenate([pos - 1 - steps, pos + steps], axis=1)
        valid = (rank >= 0) & (rank < len(present_idx))
        frames = present_idx[np.where(valid, rank, 0)]
        # len(arr) exceeds every real distance, so missing candidates sort
        # last; at least k candidates are real, so none is ever taken
        distance = np.where(valid, np.abs(frames - at), len(arr))
        nearest = np.argsort(distance, axis=1, kind="stable")[:, :k]
        arr[at[:, 0]] = arr[frames[np.arange(len(at))[:, None], nearest]].mean(axis=1)
    return arr[:, 0] if scalar else arr


def _cuts(boundaries: Iterable[int], n: int) -> np.ndarray:
    """The distinct boundary indices inside a series of n samples, sorted."""
    return np.array(sorted({int(b) for b in boundaries if 0 <= int(b) < n}), dtype=np.intp)


def _pieces(boundaries: Iterable[int], n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the pieces that the boundaries cut a series of n samples into.

    A piece runs from one boundary to the next, both included, so neighbours
    share their boundary sample; the series ends count as boundaries.
    """
    edges = np.concatenate([[0], _cuts(boundaries, n), [n - 1]])
    starts, lengths = edges[:-1], np.diff(edges) + 1
    keep = lengths > 1
    return starts[keep], lengths[keep]


def _smooth_pieces(arr: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                   window: int) -> np.ndarray:
    """Centred moving average of each piece ``arr[s:s + length]`` on its own.

    Pieces are smoothed in groups by their length rounded up to a power of
    two, so padding at most doubles the work and there are at most log2(n)
    groups. Each piece gets its own prefix sum that starts from zero and adds
    in frame order, so every piece is smoothed bit for bit as if it were the
    whole series; one cumsum over the series would round differently, and the
    padding after a piece never reaches its prefix. Work and memory are
    linear in the samples.
    """
    out = arr.copy()
    m = window // 2
    # a window of one keeps every sample, and so does a piece shorter than
    # three samples, all of whose samples are end samples
    keep = (lengths >= 3) & (m > 0)
    starts, lengths = starts[keep], lengths[keep]
    widths = np.int64(1) << np.frexp(lengths - 1)[1]  # the least power of two >= length
    for width in sorted(set(widths.tolist())):
        group = widths == width
        first, length = starts[group], lengths[group]
        last = first + length - 1
        # a piece's padding repeats its last sample, whose value is restored below
        rows = np.minimum(first[:, None] + np.arange(width), last[:, None])
        prefix = np.zeros((len(rows), width + 1, arr.shape[1]))
        np.cumsum(arr[rows], axis=1, out=prefix[:, 1:])
        # the full window, at least m samples from both ends; this also
        # writes the last m samples of each piece, which are rewritten below
        if width > 2 * m:
            full = prefix[:, 2 * m + 1:] - prefix[:, :width - 2 * m]
            full /= window
            out[rows[:, m:width - m]] = full
        # the window shrinks to a half-width h < m at the h-th sample from
        # either end, in the pieces long enough to have one
        for h in range(1, min(m, (width + 1) // 2)):
            wide = np.flatnonzero(length >= 2 * h + 1)
            span = length[wide]
            left = prefix[wide, 2 * h + 1] - prefix[wide, 0]
            right = prefix[wide, span] - prefix[wide, span - 1 - 2 * h]
            out[first[wide] + h] = left / (2 * h + 1)
            out[last[wide] - h] = right / (2 * h + 1)
        out[last] = arr[last]  # a half-width of 0 keeps the input value
    return out


def smooth_moving_average_piecewise(series, window: int, boundaries: Iterable[int]):
    """Moving average applied independently between consecutive boundary indices.

    Boundary samples fall at the shrunken window of one on both sides, so they
    are never altered, and no window mixes samples across a boundary. Used for
    the players, cut at event frames, where their direction changes cluster.
    Requires a complete series (fill gaps first) and an odd window.
    """
    if not isinstance(window, int) or window < 1 or window % 2 == 0:
        raise ConfigError(f"window must be a positive odd integer, got {window!r}")
    arr, scalar = _as_series(series)
    if not _present_mask(arr).all():
        raise ValidationError("smoothing requires a complete series; fill gaps first")
    out = _smooth_pieces(arr, *_pieces(boundaries, len(arr)), window)
    return out[:, 0] if scalar else out


def stabilize_resolution(series, homography: Homography, deadband_px: float = 1.0):
    """Suppress sub-pixel oscillation of an otherwise stationary track.

    A step from the currently held position smaller than the court-space
    length of ``deadband_px`` at that position is discarded (the held position
    repeats); larger steps pass through and become the new held position. The
    local pixel length is measured by mapping one-pixel offsets through the
    calibration at the held point.

    The series is (n, 2k): k planar tracks side by side, each stabilized on
    its own. The pixel lengths of all samples of all tracks are computed
    together, in blocks of ``PIXEL_SCALE_BLOCK`` samples; only the deadband
    compare runs sample by sample, per track.
    """
    if not deadband_px >= 0:
        raise ConfigError("deadband_px must be >= 0")
    arr, _ = _as_series(series)
    n, cols = arr.shape
    if cols % 2:
        raise ValidationError(f"stabilization needs planar (n, 2k) series, got {cols} columns")
    if not _present_mask(arr).all():
        raise ValidationError("stabilization requires a complete series; fill gaps first")
    if deadband_px == 0.0:
        return arr

    tracks = cols // 2
    # track by track: (k * n, 2) rows, then (k, n) scales
    points = arr.reshape(n, tracks, 2).swapaxes(0, 1).reshape(-1, 2)
    thresholds = (deadband_px * _pixel_scales(homography, points)).reshape(tracks, n)
    out = np.empty_like(arr)
    for track in range(tracks):
        xy = arr[:, 2 * track:2 * track + 2]
        held_rows = _deadband_holds(xy[:, 0].tolist(), xy[:, 1].tolist(),
                                    thresholds[track].tolist())
        out[:, 2 * track:2 * track + 2] = xy[held_rows]
    return out


def _deadband_holds(xs: List[float], ys: List[float], thresholds: List[float]) -> List[int]:
    """For each sample of one track, the index of the sample the deadband holds there."""
    # The compare is np.hypot(dx, dy) < t (not math.hypot: the two can differ
    # in the last bit). dx*dx + dy*dy is within a few ulps of np.hypot's
    # square, so outside a band of 1e-9 relative around t*t it decides the
    # same way, and np.hypot runs only inside the band, or when t*t is not a
    # finite normal float and the band means nothing.
    hypot = np.hypot
    normal = sys.float_info.min
    held_rows = [0] * len(xs)
    held = 0
    # d2 from a NaN held point compares false both ways, so sample 0 becomes
    # the first held point
    hx = hy = math.nan
    hold_below = move_above = t = 0.0
    for i in range(len(xs)):
        dx, dy = xs[i] - hx, ys[i] - hy
        d2 = dx * dx + dy * dy
        if d2 < hold_below or (d2 <= move_above and hypot(dx, dy) < t):
            held_rows[i] = held
            continue
        held = held_rows[i] = i
        hx, hy, t = xs[i], ys[i], thresholds[i]
        t2 = t * t
        hold_below, move_above = ((t2 * (1.0 - 1e-9), t2 * (1.0 + 1e-9))
                                  if normal <= t2 < math.inf else (-1.0, math.inf))
    return held_rows


def _pixel_scales(h: Homography, points: np.ndarray) -> np.ndarray:
    """Court-space length of one pixel near each row of an (n, 2) array (metres/px).

    The mean of the ``math.hypot`` lengths that steps of one pixel in u and
    in v, taken at the row's own pixel, map to; bit for bit what mapping each
    row alone through ``image_to_world`` gives. Each block of rows maps its
    base pixels and both steps back in one call.
    """
    return np.concatenate([_block_pixel_scales(h, points[first:first + PIXEL_SCALE_BLOCK])
                           for first in range(0, len(points), PIXEL_SCALE_BLOCK)])


def _block_pixel_scales(h: Homography, points: np.ndarray) -> np.ndarray:
    n = len(points)
    uv = h.world_to_image_many(points)
    pixels = np.vstack([uv, uv, uv])
    pixels[n:2 * n, 0] += 1.0
    pixels[2 * n:, 1] += 1.0
    world = h.image_to_world_many(pixels)
    base = world[:n]
    du = world[n:2 * n] - base
    dv = world[2 * n:] - base
    # math.hypot, as the scalar definition uses; np.hypot rounds differently
    length_u = np.fromiter(map(math.hypot, du[:, 0].tolist(), du[:, 1].tolist()), float, n)
    length_v = np.fromiter(map(math.hypot, dv[:, 0].tolist(), dv[:, 1].tolist()), float, n)
    return (length_u + length_v) / 2.0


# ============================================================
# Ball-specific validation
# ============================================================


def validate_ball_planar(ball_series, events: Sequence[EventAnnotation], knn_k: int = 5,
                         stats: Optional[dict] = None) -> np.ndarray:
    """Outlier pass over a complete planar ball series.

    The longitudinal coordinate is anchored at Bounce frames (bounce
    detections are trusted) and linearly interpolated between consecutive
    anchors; samples deviating more than ``BALL_OUTLIER_THRESHOLD_M`` from
    that baseline are discarded and refilled from their temporal neighbours.
    The refill is iterated to a fixed point, with any stubborn sample pinned
    to the anchor baseline, which makes the whole pass idempotent.

    Pass ``stats`` to collect the outlier count.
    """
    arr, scalar = _as_series(ball_series)
    if scalar:
        raise ValidationError("ball validation operates on planar (n, 2) series")
    if not _present_mask(arr).all():
        raise ValidationError("ball validation requires a complete series; fill gaps first")
    n = len(arr)
    for e in events:
        if not 0 <= e.frame < n:
            raise ValidationError(f"{e.kind.value} event frame {e.frame} is outside the series")
    bounce_frames = sorted(e.frame for e in events if e.kind is EventKind.BOUNCE)

    flagged = np.zeros(n, dtype=bool)
    if len(bounce_frames) >= 2:
        baseline_y = _anchor_baseline(arr, bounce_frames)
        checked = np.zeros(n, dtype=bool)
        checked[bounce_frames[0]:bounce_frames[-1] + 1] = True
        checked[bounce_frames] = False  # anchors are trusted by definition

        def current_outliers() -> np.ndarray:
            return checked & (np.abs(arr[:, 1] - baseline_y) > BALL_OUTLIER_THRESHOLD_M)

        previous = np.zeros(n, dtype=bool)
        for _ in range(MAX_REFILL_PASSES):
            outliers = current_outliers()
            flagged |= outliers
            if not outliers.any() or np.array_equal(outliers, previous):
                break
            previous = outliers
            holes = arr.copy()
            holes[outliers] = np.nan
            arr = fill_gaps_knn(holes, knn_k)
        # pin anything still deviating to the anchor baseline so the pass
        # reaches a fixed point (and is therefore idempotent)
        stubborn = current_outliers()
        arr[stubborn, 1] = baseline_y[stubborn]

    if stats is not None:
        stats["ball_outliers"] = int(np.count_nonzero(flagged))
    return arr


def _anchor_baseline(arr: np.ndarray, bounce_frames: List[int]) -> np.ndarray:
    """Longitudinal baseline: linear in time through the bounce-frame values.

    Outside the first/last anchor the nearest anchor value extends flat; those
    regions are never checked, so the extension only keeps the array total.
    """
    anchors = _cuts(bounce_frames, len(arr))
    return np.interp(np.arange(len(arr)), anchors, arr[anchors, 1])

