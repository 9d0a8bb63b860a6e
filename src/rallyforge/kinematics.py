"""Piecewise ballistic reconstruction of the ball's vertical motion.

Between consecutive keyframes the planar path has constant velocity and the
height follows h(tau) = h0 + v0*tau + a*tau^2/2 with a spin-dependent
effective vertical acceleration: -9.81 m/s^2 under topspin, -10.81 m/s^2
under backspin (backspin carry makes the drop read heavier). Given both
endpoint heights and the duration, the launch velocity is

    v0 = (h1 - h0 - a*t^2/2) / t

which reproduces both endpoints exactly by construction.

A clip's trajectories are one table. ``assemble_trajectories`` turns every
point's keyframe columns into one ``BallTrajectories``, with a row of
``SEGMENT_FIELDS`` per segment, in array passes; each point's
``BallTrajectory3D`` is a view of its rows, and ``assemble_ball_trajectory``
is the same assembler on one point. ``evaluate_runs`` evaluates a whole
clip's ball in one array pass over that table: the samples of every point's
trajectory go through one segment lookup and one closed form, row for row
equal to ``BallTrajectory3D.evaluate``.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .court import COURT, CourtPoint
from .errors import RangeError, ValidationError
from .ingest import EventKind, SpinType

TOPSPIN_ACCEL = -9.81
BACKSPIN_ACCEL = -10.81

BOUNCE_HEIGHT = 0.0


def spin_acceleration(spin: SpinType) -> float:
    return TOPSPIN_ACCEL if spin is SpinType.TOPSPIN else BACKSPIN_ACCEL


@dataclass(frozen=True)
class VerticalSegment:
    """Closed-form vertical motion over one keyframe interval."""

    duration: float
    h0: float
    h1: float
    accel: float
    v0: float

    def height_at(self, tau: float) -> float:
        return self.h0 + self.v0 * tau + 0.5 * self.accel * tau * tau


def solve_vertical_segment(h0: float, h1: float, t_dur: float, spin: SpinType) -> VerticalSegment:
    """Solve the launch velocity connecting two known heights over a duration."""
    if not (math.isfinite(t_dur) and t_dur > 0):
        raise ValidationError(f"segment duration must be positive, got {t_dur!r}")
    for name, h in (("h0", h0), ("h1", h1)):
        if not (math.isfinite(h) and h >= 0):
            raise ValidationError(f"{name} must be a non-negative height, got {h!r}")
    a = spin_acceleration(spin)
    v0 = (h1 - h0 - 0.5 * a * t_dur * t_dur) / t_dur
    return VerticalSegment(duration=t_dur, h0=h0, h1=h1, accel=a, v0=v0)


@dataclass(frozen=True)
class PlanarSegment:
    """Constant-velocity planar motion between two keyframes."""

    t_start: float
    t_end: float
    x0: float
    y0: float
    vx: float
    vy: float

    def position_at(self, t: float) -> Tuple[float, float]:
        tau = t - self.t_start
        return (self.x0 + self.vx * tau, self.y0 + self.vy * tau)


@dataclass(frozen=True)
class BallKeyframe:
    """One annotated instant of the ball's flight."""

    t: float
    position: Tuple[float, float]
    kind: EventKind
    height: Optional[float] = None
    spin: Optional[SpinType] = None


KINDS: Tuple[EventKind, ...] = tuple(EventKind)
SPINS: Tuple[SpinType, ...] = tuple(SpinType)
KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}
SPIN_CODES = {None: -1, **{spin: code for code, spin in enumerate(SPINS)}}
_CONTACT, _BOUNCE, _NET_CORD = (KIND_CODES[EventKind.CONTACT], KIND_CODES[EventKind.BOUNCE],
                                KIND_CODES[EventKind.NET_CORD])

# a segment table row: the planar segment's fields, then the vertical segment's
SEGMENT_FIELDS = ("t_start", "t_end", "x0", "y0", "vx", "vy", "duration", "h0", "h1", "accel", "v0")


class _Rows(SequenceABC):
    """A read-only sequence of ``n`` items; item ``i`` is ``make(i)``, built on access."""

    def __init__(self, n: int, make: Callable):
        self._n, self._make = n, make

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        # a range checks the index and resolves negative ones and slices
        rows = range(self._n)[i]
        return tuple(map(self._make, rows)) if isinstance(i, slice) else self._make(rows)

    def __iter__(self):
        return map(self._make, range(self._n))


class BallTrajectories(SequenceABC):
    """Every point's ball trajectory of a clip as one table; item ``j`` is point ``j``'s.

    The keyframe columns hold the points' keyframes one after another,
    ``counts[j]`` of them for point ``j``: ``t``, ``x``, ``y``, ``kind`` (an
    index into ``KINDS``), ``height`` (NaN where none is annotated) and
    ``spin`` (an index into ``SPINS``, -1 where none is annotated).
    ``segments`` holds one row of ``SEGMENT_FIELDS`` per two consecutive
    keyframes of a point, so point ``j``'s segments start at its first
    keyframe's row less ``j``. ``assemble_trajectories`` builds a table and
    ``of`` joins trajectories into one.
    """

    def __init__(self, t, x, y, kind, height, spin, counts, segments):
        self.t, self.x, self.y, self.kind, self.height, self.spin = t, x, y, kind, height, spin
        self.counts, self.segments = counts, segments
        # point j's keyframes are the rows [_offsets[j], _offsets[j + 1])
        self._offsets = [0, *np.cumsum(counts).tolist()]
        self._starts = np.array(self._offsets[:-1], dtype=np.intp)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, j):
        points = range(len(self.counts))[j]
        if isinstance(j, slice):
            return [BallTrajectory3D(self, i) for i in points]
        return BallTrajectory3D(self, points)

    def __iter__(self):
        return (BallTrajectory3D(self, j) for j in range(len(self.counts)))

    def keyframe(self, row: int) -> BallKeyframe:
        height, spin = float(self.height[row]), int(self.spin[row])
        return BallKeyframe(float(self.t[row]), (float(self.x[row]), float(self.y[row])),
                            KINDS[self.kind[row]], None if math.isnan(height) else height,
                            SPINS[spin] if spin >= 0 else None)

    def t_starts(self) -> np.ndarray:
        return self.t[self._starts]

    def t_ends(self) -> np.ndarray:
        return self.t[self._starts + self.counts - 1]

    def clamp(self, ts) -> Tuple[np.ndarray, np.ndarray]:
        """``(owner, at)`` for the sorted times ``ts``: each time's point, the
        last that starts at or before it (point 0 before any starts, and the
        later point where one ends as the next starts), and the time clipped
        into that point's span, as ``evaluate_runs`` takes them with
        ``np.bincount(owner, minlength=len(self))`` as its counts."""
        starts = self.t_starts()
        owner = np.maximum(np.searchsorted(starts, ts, side="right") - 1, 0)
        return owner, np.clip(ts, starts[owner], self.t_ends()[owner])

    def first_segments(self) -> np.ndarray:
        return self._starts - np.arange(len(self.counts))

    def keyframe_segments(self) -> np.ndarray:
        """Segment row of each keyframe row: the segment it starts, or for a
        point's last keyframe the segment it ends, as ``evaluate`` picks at
        the keyframe's time."""
        owner = np.repeat(np.arange(len(self.counts)), self.counts)
        local = np.arange(len(self.t)) - self._starts[owner]
        return self.first_segments()[owner] + np.minimum(local, self.counts[owner] - 2)

    def evaluate_segments(self, index, ts) -> np.ndarray:
        """(n, 3) positions at the times ``ts``, time ``i`` on segment row
        ``index[i]``: the segments' own closed forms run once over every time."""
        # one planar and one vertical segment whose fields are per-time columns
        columns = self.segments.take(index, axis=0).T
        planar, vertical = PlanarSegment(*columns[:6]), VerticalSegment(*columns[6:])
        out = np.empty((len(ts), 3))
        out[:, 0], out[:, 1] = planar.position_at(ts)
        z = vertical.height_at(ts - planar.t_start)
        # max(0.0, z) as evaluate takes it: -0.0 becomes 0.0 too
        z[~(z > 0.0)] = 0.0
        out[:, 2] = z
        return out

    @staticmethod
    def of(trajectories: Sequence["BallTrajectory3D"]) -> "BallTrajectories":
        """``trajectories`` as one table: the table itself, or their rows joined in order."""
        if isinstance(trajectories, BallTrajectories):
            return trajectories
        if not len(trajectories):
            return assemble_trajectories(*[()] * 6, ())
        views = [(traj._table, traj._k0, traj._k1, traj._s0) for traj in trajectories]
        keyframes = [np.concatenate([getattr(table, name)[k0:k1] for table, k0, k1, _ in views])
                     for name in ("t", "x", "y", "kind", "height", "spin")]
        segments = np.concatenate([table.segments[s0:s0 + k1 - k0 - 1]
                                   for table, k0, k1, s0 in views])
        return BallTrajectories(*keyframes, np.array([k1 - k0 for _, k0, k1, _ in views]),
                                segments)


class BallTrajectory3D:
    """One point's assembled trajectory, with closed-form evaluation.

    It is a view of the point's rows of a ``BallTrajectories`` table.
    ``keyframes``, ``planar`` and ``vertical`` are read-only sequences of
    ``BallKeyframe``, ``PlanarSegment`` and ``VerticalSegment``: ``len`` is
    O(1), and each item is built from its row on access. Two trajectories
    are equal when their keyframes and segments are.
    """

    def __init__(self, table: BallTrajectories, index: int):
        self._table = table
        self._k0, self._k1 = table._offsets[index], table._offsets[index + 1]
        self._s0 = self._k0 - index

    @property
    def keyframes(self) -> Sequence[BallKeyframe]:
        return _Rows(self._k1 - self._k0, lambda i: self._table.keyframe(self._k0 + i))

    @property
    def planar(self) -> Sequence[PlanarSegment]:
        return _Rows(self._k1 - self._k0 - 1,
                     lambda i: PlanarSegment(*self._table.segments[self._s0 + i, :6].tolist()))

    @property
    def vertical(self) -> Sequence[VerticalSegment]:
        return _Rows(self._k1 - self._k0 - 1,
                     lambda i: VerticalSegment(*self._table.segments[self._s0 + i, 6:].tolist()))

    def __eq__(self, other):
        if not isinstance(other, BallTrajectory3D):
            return NotImplemented
        return ((tuple(self.keyframes), tuple(self.planar), tuple(self.vertical))
                == (tuple(other.keyframes), tuple(other.planar), tuple(other.vertical)))

    @cached_property
    def _times(self) -> Tuple[float, ...]:
        return tuple(self._table.t[self._k0:self._k1].tolist())

    @property
    def t_start(self) -> float:
        return self._times[0]

    @property
    def t_end(self) -> float:
        return self._times[-1]

    def segment_index_at(self, t: float) -> int:
        if not (self.t_start <= t <= self.t_end):
            raise RangeError(
                f"t={t} outside trajectory span [{self.t_start}, {self.t_end}]")
        return min(max(bisect.bisect_right(self._times, t) - 1, 0), len(self.planar) - 1)

    def evaluate(self, t: float) -> CourtPoint:
        i = self.segment_index_at(t)
        x, y = self.planar[i].position_at(t)
        z = self.vertical[i].height_at(t - self.planar[i].t_start)
        # both endpoints are >= 0 and the parabola opens downward, so any
        # negative height is float noise at a bounce
        return CourtPoint(x, y, max(0.0, z))

    def evaluate_many(self, ts) -> np.ndarray:
        """(n, 3) positions at the times ``ts``; equal to ``evaluate`` bit for bit."""
        ts = np.asarray(ts, dtype=float)
        return evaluate_runs((self,), ts, (len(ts),))


def evaluate_runs(trajectories: Sequence[BallTrajectory3D], ts, counts) -> np.ndarray:
    """(n, 3) positions: the first ``counts[0]`` times of ``ts`` on the first
    trajectory, the next ``counts[1]`` on the second, and so on.

    Every row equals ``trajectory.evaluate(t)`` bit for bit. The trajectories
    must follow one another in time (each starts at or after the previous one
    ends), so their knots concatenate in order and one ``searchsorted`` finds
    every sample's segment; a time outside its own trajectory's span raises
    RangeError. A ``BallTrajectories`` table is read as it is; any other
    sequence of trajectories is joined into one first.
    """
    ts = np.asarray(ts, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    if (counts.shape != (len(trajectories),) or (counts < 0).any()
            or int(counts.sum()) != len(ts)):
        raise ValidationError(f"counts {counts.tolist()} must give each of the "
                              f"{len(trajectories)} trajectories a run of the {len(ts)} times")
    table = BallTrajectories.of(trajectories)
    starts, ends = table.t_starts(), table.t_ends()
    late = np.flatnonzero(~(starts[1:] >= ends[:-1]))
    if len(late):
        j = int(late[0]) + 1
        raise ValidationError(f"trajectory {j} starts at {float(starts[j])}, before "
                              f"trajectory {j - 1} ends at {float(ends[j - 1])}")
    if not len(ts):
        return np.empty((0, 3))
    owner = np.repeat(np.arange(len(table)), counts)
    t_start, t_end = starts[owner], ends[owner]
    outside = np.flatnonzero(~((ts >= t_start) & (ts <= t_end)))
    if len(outside):
        i = outside[0]
        raise RangeError(f"t={float(ts[i])} outside trajectory span "
                         f"[{float(t_start[i])}, {float(t_end[i])}]")

    # a time of trajectory j counts every knot of trajectories 0..j-1, one more
    # than their segments, so less j it indexes the segment table; the clip
    # keeps it inside j's own segments at a span end or a shared knot
    first_segment = table.first_segments()
    index = np.searchsorted(table.t, ts, side="right") - 1 - owner
    np.clip(index, first_segment[owner], (first_segment + table.counts - 2)[owner], out=index)
    return table.evaluate_segments(index, ts)


def assemble_trajectories(t, x, y, kind, height, spin, counts) -> BallTrajectories:
    """Every point's trajectory through its keyframe columns, as one table.

    The columns and ``counts`` are those a ``BallTrajectories`` holds. Each
    point is assembled as ``assemble_ball_trajectory`` describes, from its
    own keyframes alone: no spin carries over from the point before. Every
    rule is checked on every point in one pass, and the first point that
    breaks any rule raises a ValidationError that names it and the first rule
    it breaks, as in ``point 4: keyframe 0 (Contact) has no height annotation``.
    """
    t, x, y, height = (np.asarray(c, dtype=float) for c in (t, x, y, height))
    kind, spin = np.asarray(kind, dtype=np.int8), np.asarray(spin, dtype=np.int8)
    counts = np.asarray(counts, dtype=np.int64)
    first = np.cumsum(counts) - counts
    # a segment starts at every keyframe row but the last of its point
    i0 = np.delete(np.arange(len(t)), (first + counts - 1)[counts > 0])
    i1 = i0 + 1
    owner = np.repeat(np.arange(len(counts)), np.maximum(counts - 1, 0))
    h = height.copy()
    h[kind == _BOUNCE] = BOUNCE_HEIGHT
    h[kind == _NET_CORD] = COURT.net_cord_height
    # each segment's spin is that of its point's latest contact at or before its start
    latest = np.maximum.accumulate(np.where(kind == _CONTACT, np.arange(len(t)), -1))[i0]
    latest_spin = spin[latest]
    t0, t1 = t[i0], t[i1]
    placed = np.isfinite(x) & np.isfinite(y) & np.isfinite(h) & (h >= 0)
    with np.errstate(invalid="ignore", over="ignore"):
        dt = t1 - t0
        ok = ((t1 > t0) & np.isfinite(dt) & (latest >= first[owner]) & (latest_spin >= 0)
              & placed[i0] & placed[i1])
    broken = counts < 2
    broken[owner[~ok]] = True
    if broken.any():
        j = int(broken.argmax())
        rows = slice(int(first[j]), int(first[j] + counts[j]))
        try:
            _raise_point_problem(t[rows], x[rows], y[rows], kind[rows], height[rows], spin[rows])
        except ValidationError as e:
            raise ValidationError(f"point {j}: {e}") from None

    accel = np.array([spin_acceleration(s) for s in SPINS])[latest_spin]
    x0, y0, h0, h1 = x[i0], y[i0], h[i0], h[i1]
    with np.errstate(invalid="ignore", over="ignore"):
        segments = np.column_stack([t0, t1, x0, y0, (x[i1] - x0) / dt, (y[i1] - y0) / dt,
                                    dt, h0, h1, accel, (h1 - h0 - 0.5 * accel * dt * dt) / dt])
    return BallTrajectories(t, x, y, kind, height, spin, counts, segments)


def _raise_point_problem(t, x, y, kind, height, spin) -> None:
    """Raise the ValidationError for the first rule one point's keyframe columns break."""
    if not len(t):
        raise ValidationError("cannot assemble a trajectory from no keyframes")
    if len(t) < 2:
        raise ValidationError("a trajectory needs at least two keyframes")
    if not (t[1:] > t[:-1]).all():
        raise ValidationError("keyframe times must be strictly increasing")
    kinds = [KINDS[code] for code in kind]
    for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
        if not (math.isfinite(xi) and math.isfinite(yi)):
            raise ValidationError(f"keyframe {i} ({kinds[i].value}) has a non-finite "
                                  f"position ({xi!r}, {yi!r})")
    heights = [BOUNCE_HEIGHT if k is EventKind.BOUNCE
               else COURT.net_cord_height if k is EventKind.NET_CORD else h
               for k, h in zip(kinds, height.tolist())]
    for i, h in enumerate(heights):
        if math.isnan(h):
            raise ValidationError(f"keyframe {i} ({kinds[i].value}) has no height annotation")
    times, spins = t.tolist(), spin.tolist()
    segment_spin = -1
    for i in range(len(times) - 1):
        if kinds[i] is EventKind.CONTACT:
            if spins[i] < 0:
                raise ValidationError(f"contact keyframe {i} has no spin annotation")
            segment_spin = spins[i]
        if segment_spin < 0:
            raise ValidationError(
                "the first segment has no spin to inherit; trajectories must start at a contact")
        solve_vertical_segment(heights[i], heights[i + 1], times[i + 1] - times[i],
                               SPINS[segment_spin])


def assemble_ball_trajectory(keyframes: Sequence[BallKeyframe]) -> BallTrajectory3D:
    """Connect annotated keyframes into a full 3D trajectory.

    Bounce keyframes are pinned to height 0 and net-cord keyframes to
    ``COURT``'s cord height regardless of any annotated value; those constants
    are more trustworthy than a detector estimate. Every keyframe needs a
    finite position. Contact keyframes need an annotated height and spin;
    segments inherit spin from the most recent contact at or before their
    start. A NaN height counts as none. This is ``assemble_trajectories`` on
    one point, so its errors name point 0.
    """
    columns = list(zip(*((k.t, *k.position, KIND_CODES[k.kind],
                          math.nan if k.height is None else k.height, SPIN_CODES[k.spin])
                         for k in keyframes))) or [()] * 6
    return assemble_trajectories(*columns, [len(columns[0])])[0]
