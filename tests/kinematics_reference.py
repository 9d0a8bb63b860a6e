"""Scalar, per-point ball kinematics used to cross-check the kinematics module.

Deliberately written apart from ``rallyforge.kinematics``' clip table: one
keyframe object per annotated instant, one planar and one vertical segment
object per interval, an assembler that walks one point's keyframes and
raises on the first rule it finds broken, and an ``evaluate`` that finds one
time's segment with ``bisect``. The table must equal it bit for bit. It
shares only the constants (spin accelerations, the cord height, the kind and
spin codes) with the package.
"""

import bisect
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from rallyforge.court import COURT, CourtPoint
from rallyforge.errors import RangeError, ValidationError
from rallyforge.ingest import EventKind, SpinType
from rallyforge.kinematics import (
    KIND_CODES,
    KINDS,
    SEGMENT_FIELDS,
    SPIN_CODES,
    SPINS,
    BallTrajectories,
    assemble_trajectories,
    spin_acceleration,
)


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


@dataclass(frozen=True)
class BallTrajectory:
    """One point's assembled trajectory, with scalar closed-form evaluation."""

    keyframes: Tuple[BallKeyframe, ...]
    planar: Tuple[PlanarSegment, ...]
    vertical: Tuple[VerticalSegment, ...]

    @property
    def t_start(self) -> float:
        return self.keyframes[0].t

    @property
    def t_end(self) -> float:
        return self.keyframes[-1].t

    def segment_index_at(self, t: float) -> int:
        if not (self.t_start <= t <= self.t_end):
            raise RangeError(f"t={t} outside trajectory span [{self.t_start}, {self.t_end}]")
        times = [k.t for k in self.keyframes]
        return min(max(bisect.bisect_right(times, t) - 1, 0), len(self.planar) - 1)

    def evaluate(self, t: float) -> CourtPoint:
        i = self.segment_index_at(t)
        x, y = self.planar[i].position_at(t)
        z = self.vertical[i].height_at(t - self.planar[i].t_start)
        # any negative height is float noise at a bounce
        return CourtPoint(x, y, max(0.0, z))


def assemble_ball_trajectory(keyframes: Sequence[BallKeyframe]) -> BallTrajectory:
    """Connect one point's keyframes, checking each rule in turn.

    Bounce keyframes are pinned to height 0 and net-cord keyframes to the
    cord height; a Contact needs a height and, unless last, a spin; each
    segment inherits the spin of the latest contact at or before its start.
    """
    if not keyframes:
        raise ValidationError("cannot assemble a trajectory from no keyframes")
    if len(keyframes) < 2:
        raise ValidationError("a trajectory needs at least two keyframes")
    for k0, k1 in zip(keyframes[:-1], keyframes[1:]):
        if not (k1.t > k0.t):
            raise ValidationError("keyframe times must be strictly increasing")
    for i, k in enumerate(keyframes):
        if not (math.isfinite(k.position[0]) and math.isfinite(k.position[1])):
            raise ValidationError(f"keyframe {i} ({k.kind.value}) has a non-finite "
                                  f"position ({k.position[0]!r}, {k.position[1]!r})")
    heights = []
    for i, k in enumerate(keyframes):
        if k.kind is EventKind.BOUNCE:
            heights.append(0.0)
        elif k.kind is EventKind.NET_CORD:
            heights.append(COURT.net_cord_height)
        elif k.height is not None and not math.isnan(k.height):
            heights.append(k.height)
        else:
            raise ValidationError(f"keyframe {i} ({k.kind.value}) has no height annotation")
    planar, vertical = [], []
    spin = None
    for i, (k0, k1) in enumerate(zip(keyframes[:-1], keyframes[1:])):
        if k0.kind is EventKind.CONTACT:
            if k0.spin is None:
                raise ValidationError(f"contact keyframe {i} has no spin annotation")
            spin = k0.spin
        if spin is None:
            raise ValidationError(
                "the first segment has no spin to inherit; trajectories must start at a contact")
        dt = k1.t - k0.t
        vertical.append(solve_vertical_segment(heights[i], heights[i + 1], dt, spin))
        planar.append(PlanarSegment(
            t_start=k0.t, t_end=k1.t, x0=k0.position[0], y0=k0.position[1],
            vx=(k1.position[0] - k0.position[0]) / dt, vy=(k1.position[1] - k0.position[1]) / dt))
        for name, value in zip(SEGMENT_FIELDS, _row(planar[-1], vertical[-1])):
            if not math.isfinite(value):
                raise ValidationError(f"keyframe {i} ({k0.kind.value}) starts a segment whose "
                                      f"{name} is not finite ({value!r})")
    return BallTrajectory(tuple(keyframes), tuple(planar), tuple(vertical))


def _row(p: PlanarSegment, v: VerticalSegment) -> tuple:
    return (p.t_start, p.t_end, p.x0, p.y0, p.vx, p.vy, v.duration, v.h0, v.h1, v.accel, v.v0)


def loop_table(points: Sequence[Sequence[BallKeyframe]]) -> np.ndarray:
    """The (segments, 11) table of ``SEGMENT_FIELDS`` of every point's segment
    objects, point after point."""
    trajectories = [assemble_ball_trajectory(keyframes) for keyframes in points]
    return np.array([_row(p, v) for traj in trajectories
                     for p, v in zip(traj.planar, traj.vertical)]).reshape(-1, len(SEGMENT_FIELDS))


def columns(keyframes: Sequence[BallKeyframe]) -> tuple:
    """The ``t``, ``x``, ``y``, ``kind``, ``height`` and ``spin`` columns of keyframes."""
    return ([k.t for k in keyframes], [k.position[0] for k in keyframes],
            [k.position[1] for k in keyframes], [KIND_CODES[k.kind] for k in keyframes],
            [math.nan if k.height is None else k.height for k in keyframes],
            [SPIN_CODES[k.spin] for k in keyframes])


def table_of(*points: Sequence[BallKeyframe]) -> BallTrajectories:
    """The package's clip table of the points, each a list of keyframes."""
    return assemble_trajectories(*columns([k for keyframes in points for k in keyframes]),
                                 [len(keyframes) for keyframes in points])


def keyframes_of(table: BallTrajectories) -> List[List[BallKeyframe]]:
    """Each point's keyframes as a table holds them, with plain floats."""
    rows = zip(table.t.tolist(), table.x.tolist(), table.y.tolist(), table.kind.tolist(),
               table.height.tolist(), table.spin.tolist())
    keyframes = [BallKeyframe(t, (x, y), KINDS[kind], None if math.isnan(h) else h,
                              SPINS[spin] if spin >= 0 else None)
                 for t, x, y, kind, h, spin in rows]
    ends = [0, *accumulate(table.counts.tolist())]
    return [keyframes[a:b] for a, b in zip(ends[:-1], ends[1:])]


def trajectories_of(table: BallTrajectories) -> List[BallTrajectory]:
    """Each point of a table assembled again, one point at a time."""
    return [assemble_ball_trajectory(keyframes) for keyframes in keyframes_of(table)]
