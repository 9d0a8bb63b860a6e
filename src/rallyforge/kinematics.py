"""Piecewise ballistic reconstruction of the ball's vertical motion.

Between consecutive keyframes the planar path has constant velocity and the
height follows h(tau) = h0 + v0*tau + a*tau^2/2 with a spin-dependent
effective vertical acceleration: -9.81 m/s^2 under topspin, -10.81 m/s^2
under backspin (backspin carry makes the drop read heavier). Given both
endpoint heights and the duration, the launch velocity is

    v0 = (h1 - h0 - a*t^2/2) / t

which reproduces both endpoints exactly by construction.

A clip's trajectories are one table, the only trajectory type:
``assemble_trajectories`` builds a ``BallTrajectories`` with a row of
``SEGMENT_FIELDS`` per segment and checks every keyframe rule in the same
array pass, and ``evaluate_runs`` evaluates a whole clip's ball over it. The
tests check both, bit for bit, against a scalar per-point reference
(``tests/kinematics_reference.py``).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from typing import NamedTuple, Tuple

import numpy as np

from .court import COURT
from .errors import RangeError, ValidationError
from .ingest import EventKind, SpinType

TOPSPIN_ACCEL = -9.81
BACKSPIN_ACCEL = -10.81

BOUNCE_HEIGHT = 0.0


def spin_acceleration(spin: SpinType) -> float:
    return TOPSPIN_ACCEL if spin is SpinType.TOPSPIN else BACKSPIN_ACCEL


KINDS: Tuple[EventKind, ...] = tuple(EventKind)
SPINS: Tuple[SpinType, ...] = tuple(SpinType)
KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}
SPIN_CODES = {None: -1, **{spin: code for code, spin in enumerate(SPINS)}}
_CONTACT, _BOUNCE, _NET_CORD = (KIND_CODES[EventKind.CONTACT], KIND_CODES[EventKind.BOUNCE],
                                KIND_CODES[EventKind.NET_CORD])

# a segment table row: the planar segment's six fields, then the vertical segment's five
SEGMENT_FIELDS = ("t_start", "t_end", "x0", "y0", "vx", "vy", "duration", "h0", "h1", "accel", "v0")


class TrajectoryRows(NamedTuple):
    """One point's rows of a ``BallTrajectories`` table: its keyframe span and
    read-only views of its segments' planar (k, 6) and vertical (k, 5) fields."""

    t_start: float
    t_end: float
    planar: np.ndarray
    vertical: np.ndarray


class BallTrajectories(SequenceABC):
    """Every point's ball trajectory of a clip as one table; item ``j`` is point ``j``'s rows.

    The keyframe columns hold the points' keyframes one after another,
    ``counts[j]`` of them for point ``j``: ``t``, ``x``, ``y``, ``kind`` (an
    index into ``KINDS``), ``height`` (NaN where none is annotated) and
    ``spin`` (an index into ``SPINS``, -1 where none is annotated).
    ``segments`` holds one read-only row of ``SEGMENT_FIELDS`` per two
    consecutive keyframes of a point, so point ``j``'s segments start at its
    first keyframe's row less ``j``. ``assemble_trajectories`` builds a table.
    """

    def __init__(self, t, x, y, kind, height, spin, counts, segments):
        self.t, self.x, self.y, self.kind, self.height, self.spin = t, x, y, kind, height, spin
        self.counts, self.segments = counts, segments
        segments.flags.writeable = False
        # point j's keyframes are the rows [_starts[j], _starts[j] + counts[j])
        self._starts = (np.cumsum(counts) - counts).astype(np.intp)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, j: int) -> TrajectoryRows:
        j = range(len(self.counts))[j]
        k0 = int(self._starts[j])
        k1 = k0 + int(self.counts[j])
        rows = self.segments[k0 - j:k1 - 1 - j]
        return TrajectoryRows(float(self.t[k0]), float(self.t[k1 - 1]), rows[:, :6], rows[:, 6:])

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
        point's last keyframe the segment it ends, as ``evaluate_runs`` picks
        at the keyframe's time."""
        owner = np.repeat(np.arange(len(self.counts)), self.counts)
        local = np.arange(len(self.t)) - self._starts[owner]
        return self.first_segments()[owner] + np.minimum(local, self.counts[owner] - 2)

    def evaluate_segments(self, index, ts) -> np.ndarray:
        """(n, 3) positions at the times ``ts``, time ``i`` on segment row
        ``index[i]``: the planar and vertical closed forms over per-time columns."""
        t_start, _, x0, y0, vx, vy, _, h0, _, accel, v0 = self.segments.take(index, axis=0).T
        tau = ts - t_start
        out = np.empty((len(ts), 3))
        out[:, 0], out[:, 1] = x0 + vx * tau, y0 + vy * tau
        z = h0 + v0 * tau + 0.5 * accel * tau * tau
        # both endpoints are >= 0 and the parabola opens downward, so a
        # negative height is float noise at a bounce; -0.0 becomes 0.0 too
        z[~(z > 0.0)] = 0.0
        out[:, 2] = z
        return out


def evaluate_runs(table: BallTrajectories, ts, counts) -> np.ndarray:
    """(n, 3) positions: the first ``counts[0]`` times of ``ts`` on the
    table's first point, the next ``counts[1]`` on the second, and so on.

    The points must follow one another in time (each starts at or after the
    previous one ends), so their knots are in order and one ``searchsorted``
    finds every sample's segment; a time outside its own point's span raises
    RangeError.
    """
    ts = np.asarray(ts, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    if (counts.shape != (len(table),) or (counts < 0).any()
            or int(counts.sum()) != len(ts)):
        raise ValidationError(f"counts {counts.tolist()} must give each of the "
                              f"{len(table)} trajectories a run of the {len(ts)} times")
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

    # a time of point j counts every knot of points 0..j-1, one more than
    # their segments, so less j it indexes the segment table; the clip keeps
    # it inside j's own segments at a span end or a shared knot
    first_segment = table.first_segments()
    index = np.searchsorted(table.t, ts, side="right") - 1 - owner
    np.clip(index, first_segment[owner], (first_segment + table.counts - 2)[owner], out=index)
    return table.evaluate_segments(index, ts)


def assemble_trajectories(t, x, y, kind, height, spin, counts) -> BallTrajectories:
    """Every point's trajectory through its keyframe columns, as one table.

    The columns and ``counts`` are those a ``BallTrajectories`` holds. Bounce
    keyframes are pinned to height 0 and net-cord keyframes to ``COURT``'s
    cord height regardless of any annotated value; those constants are more
    trustworthy than a detector estimate. Every keyframe needs a finite
    position. Contact keyframes need an annotated height and, unless last,
    a spin; each segment takes the spin of its point's latest contact at or
    before its start, and no spin carries over from the point before.

    Every rule is checked on every point in one pass, and the first point
    that breaks any rule raises a ValidationError that names it and the
    first rule it breaks, as in ``point 4: keyframe 0 (Contact) has no height
    annotation``. A point's rules go in this order: at least one keyframe,
    at least two, strictly increasing times, finite positions, a height for
    every keyframe, then segment by segment a spin to inherit, a positive
    finite duration, non-negative finite end heights and finite fields.
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
    # each segment's spin is that of the clip's latest contact at or before its start
    latest = np.maximum.accumulate(np.where(kind == _CONTACT, np.arange(len(t)), -1))[i0]
    latest_spin = spin[latest]
    accel = np.array([spin_acceleration(s) for s in SPINS])[latest_spin]
    t0, t1, x0, y0, h0, h1 = t[i0], t[i1], x[i0], y[i0], h[i0], h[i1]
    with np.errstate(all="ignore"):
        dt = t1 - t0
        segments = np.column_stack([t0, t1, x0, y0, (x[i1] - x0) / dt, (y[i1] - y0) / dt,
                                    dt, h0, h1, accel, (h1 - h0 - 0.5 * accel * dt * dt) / dt])
        # one mask per segment rule, True where a segment breaks it, in the order checked
        segment_rules = np.column_stack([
            (latest < first[owner]) | (latest_spin < 0), ~(np.isfinite(dt) & (dt > 0)),
            ~(np.isfinite(h0) & (h0 >= 0)), ~(np.isfinite(h1) & (h1 >= 0)),
            ~np.isfinite(segments).all(axis=1)])
    misplaced, unheighted = ~(np.isfinite(x) & np.isfinite(y)), np.isnan(h)
    # one column per point rule, True where a point breaks it, in the order checked
    keyframe_owner = np.repeat(np.arange(len(counts)), counts)
    point_rules = np.column_stack([counts == 0, counts == 1] + [
        np.bincount(rows[broken], minlength=len(counts)) > 0 for rows, broken in (
            (owner, ~(t1 > t0)), (keyframe_owner, misplaced), (keyframe_owner, unheighted),
            (owner, segment_rules.any(axis=1)))])
    broken = point_rules.any(axis=1)
    if broken.any():
        j = int(broken.argmax())
        raise ValidationError(f"point {j}: " + _first_problem(
            int(point_rules[j].argmax()), int(first[j]), int(first[j]) - j, kind, x, y,
            misplaced, unheighted, segment_rules, segments))
    return BallTrajectories(t, x, y, kind, height, spin, counts, segments)


def _first_problem(rule, k0, s0, kind, x, y, misplaced, unheighted, segment_rules,
                   segments) -> str:
    """The message for a point's first broken rule, ``rule`` an index into the
    point rules; the point's keyframes start at row ``k0``, its segments at ``s0``."""
    if rule < 3:
        return ("cannot assemble a trajectory from no keyframes",
                "a trajectory needs at least two keyframes",
                "keyframe times must be strictly increasing")[rule]
    # the first broken keyframe or segment is the point's own: an earlier
    # point breaks no rule, and the point breaks this one
    if rule < 5:
        i = int((misplaced if rule == 3 else unheighted)[k0:].argmax())
        named = f"keyframe {i} ({KINDS[kind[k0 + i]].value})"
        if rule == 3:
            return f"{named} has a non-finite position ({float(x[k0 + i])!r}, {float(y[k0 + i])!r})"
        return f"{named} has no height annotation"
    i = int(segment_rules[s0:].any(axis=1).argmax())
    row, k = segments[s0 + i].tolist(), k0 + i
    rule = int(segment_rules[s0 + i].argmax())
    if rule == 0:
        if kind[k] == _CONTACT:
            return f"contact keyframe {i} has no spin annotation"
        return "the first segment has no spin to inherit; trajectories must start at a contact"
    if rule == 1:
        return f"segment duration must be positive, got {row[SEGMENT_FIELDS.index('duration')]!r}"
    if rule < 4:
        name = ("h0", "h1")[rule - 2]
        return f"{name} must be a non-negative height, got {row[SEGMENT_FIELDS.index(name)]!r}"
    f = int((~np.isfinite(row)).argmax())
    return (f"keyframe {i} ({KINDS[kind[k]].value}) starts a segment whose "
            f"{SEGMENT_FIELDS[f]} is not finite ({row[f]!r})")
