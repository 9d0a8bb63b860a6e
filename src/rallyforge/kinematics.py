"""Piecewise ballistic reconstruction of the ball's vertical motion.

Between consecutive keyframes the planar path has constant velocity and the
height follows h(tau) = h0 + v0*tau + a*tau^2/2 with a spin-dependent
effective vertical acceleration: -9.81 m/s^2 under topspin, -10.81 m/s^2
under backspin (backspin carry makes the drop read heavier). Given both
endpoint heights and the duration, the launch velocity is

    v0 = (h1 - h0 - a*t^2/2) / t

which reproduces both endpoints exactly by construction.

``evaluate_runs`` evaluates a whole clip's ball in one array pass: the
samples of every point's trajectory go through one segment lookup and one
closed form, row for row equal to ``BallTrajectory3D.evaluate``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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


def reconstruct_planar(keyframes: Sequence[Tuple[float, Tuple[float, float]]]) -> List[PlanarSegment]:
    """Piecewise constant-velocity segments through (time, position) keyframes.

    Velocity on each segment is displacement over duration. Times must be
    strictly increasing; at least two keyframes are required.
    """
    if len(keyframes) < 2:
        raise ValidationError("planar reconstruction needs at least two keyframes")
    segments = []
    for (t0, p0), (t1, p1) in zip(keyframes[:-1], keyframes[1:]):
        if not (t1 > t0):
            raise ValidationError("keyframe times must be strictly increasing")
        dt = t1 - t0
        segments.append(PlanarSegment(
            t_start=t0, t_end=t1, x0=p0[0], y0=p0[1],
            vx=(p1[0] - p0[0]) / dt, vy=(p1[1] - p0[1]) / dt,
        ))
    return segments


@dataclass(frozen=True)
class BallKeyframe:
    """One annotated instant of the ball's flight."""

    t: float
    position: Tuple[float, float]
    kind: EventKind
    height: Optional[float] = None
    spin: Optional[SpinType] = None


@dataclass(frozen=True)
class BallTrajectory3D:
    """Assembled piecewise trajectory with closed-form evaluation."""

    keyframes: Tuple[BallKeyframe, ...]
    planar: Tuple[PlanarSegment, ...]
    vertical: Tuple[VerticalSegment, ...]
    _times: Tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_times", tuple(k.t for k in self.keyframes))

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
    RangeError.
    """
    ts = np.asarray(ts, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    if (counts.shape != (len(trajectories),) or (counts < 0).any()
            or int(counts.sum()) != len(ts)):
        raise ValidationError(f"counts {counts.tolist()} must give each of the "
                              f"{len(trajectories)} trajectories a run of the {len(ts)} times")
    for j, (before, after) in enumerate(zip(trajectories, trajectories[1:]), 1):
        if not (after.t_start >= before.t_end):
            raise ValidationError(f"trajectory {j} starts at {after.t_start}, before "
                                  f"trajectory {j - 1} ends at {before.t_end}")
    out = np.empty((len(ts), 3))
    if not len(ts):
        return out
    owner = np.repeat(np.arange(len(trajectories)), counts)
    t_start = np.array([traj.t_start for traj in trajectories])[owner]
    t_end = np.array([traj.t_end for traj in trajectories])[owner]
    outside = np.flatnonzero(~((ts >= t_start) & (ts <= t_end)))
    if len(outside):
        i = outside[0]
        raise RangeError(f"t={float(ts[i])} outside trajectory span "
                         f"[{float(t_start[i])}, {float(t_end[i])}]")

    # a time of trajectory j counts every knot of trajectories 0..j-1, one more
    # than their segments, so less j it indexes the flat segment table; the
    # clip keeps it inside j's own segments at a span end or a shared knot
    n_segments = np.array([len(traj.planar) for traj in trajectories])
    first_segment = np.cumsum(n_segments) - n_segments
    knots = np.concatenate([traj._times for traj in trajectories])
    index = np.searchsorted(knots, ts, side="right") - 1 - owner
    np.clip(index, first_segment[owner], (first_segment + n_segments - 1)[owner], out=index)
    # one planar and one vertical segment whose fields are per-sample columns:
    # the segments' own closed forms run once over every sample
    columns = np.array([
        (p.t_start, p.t_end, p.x0, p.y0, p.vx, p.vy, v.duration, v.h0, v.h1, v.accel, v.v0)
        for traj in trajectories for p, v in zip(traj.planar, traj.vertical)
    ]).T.take(index, axis=1)
    planar, vertical = PlanarSegment(*columns[:6]), VerticalSegment(*columns[6:])
    out[:, 0], out[:, 1] = planar.position_at(ts)
    z = vertical.height_at(ts - planar.t_start)
    # max(0.0, z) as evaluate takes it: -0.0 becomes 0.0 too
    z[~(z > 0.0)] = 0.0
    out[:, 2] = z
    return out


def assemble_ball_trajectory(keyframes: Sequence[BallKeyframe]) -> BallTrajectory3D:
    """Connect annotated keyframes into a full 3D trajectory.

    Bounce keyframes are pinned to height 0 and net-cord keyframes to
    ``COURT``'s cord height regardless of any annotated value; those constants
    are more trustworthy than a detector estimate. Contact keyframes need an annotated
    height and spin; segments inherit spin from the most recent contact at or
    before their start.
    """
    if not keyframes:
        raise ValidationError("cannot assemble a trajectory from no keyframes")
    if len(keyframes) < 2:
        raise ValidationError("a trajectory needs at least two keyframes")
    for k0, k1 in zip(keyframes[:-1], keyframes[1:]):
        if not (k1.t > k0.t):
            raise ValidationError("keyframe times must be strictly increasing")

    heights: List[float] = []
    for i, k in enumerate(keyframes):
        if k.kind is EventKind.BOUNCE:
            heights.append(BOUNCE_HEIGHT)
        elif k.kind is EventKind.NET_CORD:
            heights.append(COURT.net_cord_height)
        elif k.height is not None:
            heights.append(k.height)
        else:
            raise ValidationError(f"keyframe {i} ({k.kind.value}) has no height annotation")

    planar = reconstruct_planar([(k.t, k.position) for k in keyframes])

    vertical: List[VerticalSegment] = []
    spin: Optional[SpinType] = None
    for i, k in enumerate(keyframes[:-1]):
        if k.kind is EventKind.CONTACT:
            if k.spin is None:
                raise ValidationError(f"contact keyframe {i} has no spin annotation")
            spin = k.spin
        if spin is None:
            raise ValidationError(
                "the first segment has no spin to inherit; trajectories must start at a contact")
        vertical.append(solve_vertical_segment(heights[i], heights[i + 1],
                                               keyframes[i + 1].t - k.t, spin))

    return BallTrajectory3D(
        keyframes=tuple(keyframes),
        planar=tuple(planar),
        vertical=tuple(vertical),
    )

