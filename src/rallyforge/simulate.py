"""Closed-loop rally synthesis: ground truth, projection, and round-trip scoring.

The simulator builds rallies from the same closed forms the reconstruction
solves (piecewise-ballistic ball between integer-frame keyframes, piecewise
constant-velocity players with direction changes only at event frames), then
projects them through a pinhole ground-plane camera into the clip format the
ingest layer reads. Because every generated motion lies exactly in the model
class the refinement stages preserve, a noiseless projection must reconstruct
to within numerical error; anything larger is a pipeline defect, not a
modelling gap.

Player legs run either at zero velocity or fast enough that every per-frame
step clears the resolution-stabilization deadband at the default calibration,
so stabilization passes clean tracks through unchanged.

The ground-truth document is written and read through one field list per
record, built from the codecs in ``fields`` that the scene and the config
also use. The reader checks the JSON type of every value, and the records'
own constructors check the rules that join fields: a positive fps, every
frame inside the clip, points indexed by their position, each point's
keyframe frames strictly increasing inside its [start_frame, end_frame], and
each player's knot frames increasing. A value or rule the document breaks
raises ValidationError naming its path, as in ``malformed ground-truth
document: points[0].keyframes[3].spin must be one of Topspin, Backspin, got 0``.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .court import COURT, DepthBand, LateralBand, reference_keypoints
from .errors import ConfigError, ValidationError
from .fields import (INTEGER, NUMBER, STRING, XYZ, collector_paused, defaulted, enum_of,
                     field_list, floats, list_of, map_of, optional, read_document, record, row,
                     write_fields)
from .ingest import OUTCOME, EventKind, PointOutcome, SpinType, check_fps
from .kinematics import (KIND_CODES, SPIN_CODES, BallTrajectories, assemble_trajectories,
                         evaluate_runs)
from .projection import Homography
from .rng import SplitMix64
from .scoring import SCORE_STATE, ScoreState, ScoringRules, advance_score, new_match

# Players are driven at walking-to-jogging speeds. The floor keeps every
# per-frame step above the stabilization deadband (~0.88 m/s at the default
# camera's worst on-court pixel scale); the ceiling keeps motion plausible
# and trackable.
LEG_SPEED_MIN = 1.0
LEG_SPEED_MAX = 1.28
PAD_SPEED_TARGET = 1.8
PAD_FRAMES_MIN = 50
PAD_FRAMES_MAX = 110

HOP_FRAMES = 4            # bounce -> following contact
SERVE_WINDUP_FRAMES = 8   # PointStart -> serve contact
LEAD_IN_FRAMES = 25
TAIL_FRAMES = 30
NET_CORD_PROBABILITY = 0.07

# Relative preference for where rally balls are aimed, by landing zone.
# Baseline play: deep corners dominate, drop shots are rare.
RALLY_ZONE_WEIGHTS: Dict[Tuple[LateralBand, DepthBand], float] = {
    (LateralBand.LEFT, DepthBand.DEEP): 3.0,
    (LateralBand.CENTER, DepthBand.DEEP): 2.1,
    (LateralBand.RIGHT, DepthBand.DEEP): 3.0,
    (LateralBand.LEFT, DepthBand.MID): 1.2,
    (LateralBand.CENTER, DepthBand.MID): 0.7,
    (LateralBand.RIGHT, DepthBand.MID): 1.2,
    (LateralBand.LEFT, DepthBand.SHORT): 0.25,
    (LateralBand.CENTER, DepthBand.SHORT): 0.12,
    (LateralBand.RIGHT, DepthBand.SHORT): 0.25,
}

SERVE_BAND_WEIGHTS = (("T", 0.40), ("Body", 0.22), ("Wide", 0.38))

SHOT_COUNT_WEIGHTS = (
    (2, 0.21), (3, 0.17), (4, 0.14), (5, 0.11), (6, 0.08), (7, 0.07),
    (8, 0.05), (9, 0.045), (10, 0.035), (11, 0.025), (12, 0.02),
    (13, 0.015), (14, 0.01), (15, 0.01),
)

RALLY_OUTCOME_WEIGHTS = (("Winner", 0.42), ("ForcedError", 0.30), ("UnforcedError", 0.28))


# ============================================================
# Camera and configuration
# ============================================================


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera whose ground-plane restriction is an exact homography."""

    position: Tuple[float, float, float] = (0.0, -45.0, 30.0)
    look_at: Tuple[float, float, float] = (0.0, -1.5, 0.0)
    focal_px: float = 3000.0
    principal: Tuple[float, float] = (960.0, 540.0)

    def __post_init__(self):
        if not (math.isfinite(self.focal_px) and self.focal_px > 0):
            raise ConfigError(f"focal_px must be positive, got {self.focal_px!r}")
        if self.position[2] <= 0:
            raise ConfigError("camera must sit above the ground plane")
        fx, fy = self.look_at[0] - self.position[0], self.look_at[1] - self.position[1]
        if math.hypot(fx, fy) < 1e-9:
            raise ConfigError("camera cannot look straight down; the image frame is degenerate")

    def homography(self) -> Homography:
        c = np.asarray(self.position, dtype=float)
        forward = np.asarray(self.look_at, dtype=float) - c
        forward /= np.linalg.norm(forward)
        right = np.cross(forward, (0.0, 0.0, 1.0))
        right /= np.linalg.norm(right)
        down = np.cross(forward, right)
        rot = np.stack([right, down, forward])
        t = -rot @ c
        k = np.array([
            [self.focal_px, 0.0, self.principal[0]],
            [0.0, self.focal_px, self.principal[1]],
            [0.0, 0.0, 1.0],
        ])
        return Homography(k @ np.column_stack([rot[:, 0], rot[:, 1], t]))


# every key may be left out, in a truth document's camera and in the config's
# simulator.camera, which reads the same codecs
CAMERA_FIELDS = field_list(
    position=defaulted(XYZ), look_at=defaulted(XYZ), focal_px=defaulted(NUMBER),
    principal=defaulted(floats(2, "[u, v] of finite numbers")))


DEFAULT_CAMERA = CameraModel()


@dataclass(frozen=True)
class SimConfig:
    """Everything that determines a simulated clip, bit for bit."""

    seed: int = 0
    points: int = 3
    pixel_noise_sigma_px: float = 0.0
    dropout_rate: float = 0.0
    quantize_pixels: bool = False
    fps: float = 25.0
    width: int = 1920
    height: int = 1080
    camera: CameraModel = DEFAULT_CAMERA

    def __post_init__(self):
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.points, int) or self.points < 1:
            raise ConfigError("points must be >= 1")
        if not (math.isfinite(self.pixel_noise_sigma_px) and self.pixel_noise_sigma_px >= 0):
            raise ConfigError("pixel_noise_sigma_px must be >= 0")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate must lie in [0, 1)")
        # the clips reconstruct reads; far above them the simulator's
        # fps-scaled arithmetic overflows
        check_fps(self.fps, ConfigError)
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("image dimensions must be positive")


# ============================================================
# Ground truth containers
# ============================================================


@dataclass(frozen=True)
class TruthKeyframe:
    """One exact ball keyframe at an integer frame index."""

    frame: int
    kind: EventKind
    x: float
    y: float
    z: float
    player_id: Optional[str] = None
    spin: Optional[SpinType] = None


# A truth document holds fewer frames than this: frame / fps is exact below
# it, and a longer clip cannot be simulated anyway.
_MAX_TRUTH_FRAMES = 1 << 53


@dataclass(frozen=True)
class SimulatedPoint:
    """One point: its keyframe frames increase strictly inside [start_frame, end_frame]."""

    index: int
    start_frame: int
    end_frame: int
    keyframes: Tuple[TruthKeyframe, ...]
    outcome: PointOutcome
    score_before: ScoreState

    def __post_init__(self):
        frames = [k.frame for k in self.keyframes]
        if len(frames) < 2:
            raise ValidationError("a point needs at least two keyframes")
        if not all(map(operator.lt, frames, frames[1:])):
            raise ValidationError("keyframe frames must increase strictly")
        if not self.start_frame <= frames[0] <= frames[-1] <= self.end_frame:
            raise ValidationError(
                f"keyframe frames [{frames[0]}, {frames[-1]}] must lie in "
                f"[start_frame, end_frame] = [{self.start_frame}, {self.end_frame}]")


@dataclass(frozen=True)
class GroundTruthRally:
    """Exact description of a simulated clip, independent of any projection."""

    fps: float
    n_frames: int
    points: Tuple[SimulatedPoint, ...]
    players: Dict[str, Tuple[Tuple[int, float, float], ...]]  # (frame, x, y) knots per player
    final_score: ScoreState
    camera: CameraModel = DEFAULT_CAMERA
    seed: int = 0
    # per player: knot frames, xs and ys as arrays
    _knot_arrays: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        """What ``round_trip_report`` relies on beyond each field's own type."""
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ValidationError(f"fps must be positive, got {self.fps!r}")
        if not 0 < self.n_frames < _MAX_TRUTH_FRAMES:
            raise ValidationError(f"n_frames must lie in [1, 2**53), got {self.n_frames!r}")
        if not self.points:
            raise ValidationError("there must be at least one point")
        for i, p in enumerate(self.points):
            if p.index != i:
                raise ValidationError(f"points[{i}] has index {p.index}; an index is its position")
            if not 0 <= p.start_frame <= p.end_frame < self.n_frames:
                raise ValidationError(f"points[{i}] frames [{p.start_frame}, {p.end_frame}] "
                                      f"must lie in the clip's [0, {self.n_frames})")
        if not self.players:
            raise ValidationError("there must be at least one player")
        for pid, knots in self.players.items():
            frames = [k[0] for k in knots]
            if not (frames and 0 <= frames[0] and frames[-1] < self.n_frames
                    and all(map(operator.lt, frames, frames[1:]))):
                raise ValidationError(f"players[{json.dumps(pid)}] needs knot frames that "
                                      f"increase inside the clip's [0, {self.n_frames})")
        object.__setattr__(self, "_knot_arrays", {
            pid: tuple(np.array(column, dtype=float) for column in zip(*kn))
            for pid, kn in self.players.items()
        })

    # ---- player tracks ----

    def player_ids(self) -> List[str]:
        return sorted(self.players)

    def player_track(self, player_id: str) -> np.ndarray:
        """(n_frames, 2) planar positions, linearly interpolated between knots."""
        frames, xs, ys = self._knot_arrays[player_id]
        grid = np.arange(self.n_frames, dtype=float)
        return np.column_stack([np.interp(grid, frames, xs), np.interp(grid, frames, ys)])

    def player_position(self, player_id: str, ts) -> np.ndarray:
        """(n, 2) planar positions at the times ``ts`` (seconds)."""
        frames, xs, ys = self._knot_arrays[player_id]
        f = np.asarray(ts, dtype=float) * self.fps
        return np.column_stack([np.interp(f, frames, xs), np.interp(f, frames, ys)])

    # ---- ball ----

    @cached_property
    def trajectories(self) -> BallTrajectories:
        """Every point's trajectory in one table, assembled on first use; a
        Contact keyframe's height is its z."""
        keyframes = [k for point in self.points for k in point.keyframes]
        return assemble_trajectories(
            np.array([k.frame for k in keyframes], dtype=np.int64) / self.fps,
            [k.x for k in keyframes], [k.y for k in keyframes],
            [KIND_CODES[k.kind] for k in keyframes],
            [k.z if k.kind is EventKind.CONTACT else math.nan for k in keyframes],
            [SPIN_CODES[k.spin] for k in keyframes],
            [len(point.keyframes) for point in self.points])

    def ball_planar_track(self) -> np.ndarray:
        """(n_frames, 2) planar ball positions.

        Every frame is clamped into its point's span
        (``BallTrajectories.clamp``) and evaluated in one ``evaluate_runs``
        pass. A frame outside the spans holds the raw keyframe, not its
        evaluation: the first point's first before it starts, and the last
        keyframe of the point before between points and after the last.
        """
        table = self.trajectories
        ts = np.arange(self.n_frames) / self.fps
        owner, at = table.clamp(ts)
        out = evaluate_runs(table, at, np.bincount(owner, minlength=len(table)))[:, :2]
        # only point 0 has frames before its span; its first row is row 0
        held = np.flatnonzero(at != ts)
        rows = np.where(ts[held] < at[held], 0, np.cumsum(table.counts)[owner[held]] - 1)
        out[held, 0], out[held, 1] = table.x[rows], table.y[rows]
        return out

    # ---- serialization ----

    def to_dict(self) -> dict:
        return write_fields(_TRUTH, self)

    @staticmethod
    def from_dict(obj) -> "GroundTruthRally":
        """Read a truth document; any value or rule it breaks raises ValidationError."""
        return read_document("ground-truth document", GroundTruthRally, _TRUTH, obj)


_KEYFRAME = record(TruthKeyframe, field_list(
    frame=INTEGER, kind=enum_of(EventKind), x=NUMBER, y=NUMBER, z=NUMBER,
    player_id=defaulted(optional(STRING)), spin=defaulted(optional(enum_of(SpinType)))))
_POINT = record(SimulatedPoint, field_list(
    index=INTEGER, start_frame=INTEGER, end_frame=INTEGER, keyframes=list_of(_KEYFRAME),
    outcome=OUTCOME, score_before=SCORE_STATE))
_TRUTH = field_list(
    fps=NUMBER, n_frames=INTEGER, seed=defaulted(INTEGER),
    camera=defaulted(record(CameraModel, CAMERA_FIELDS)),
    players=map_of(list_of(row("[frame, x, y]", INTEGER, NUMBER, NUMBER))),
    points=list_of(_POINT), final_score=SCORE_STATE)


# ============================================================
# Rally synthesis
# ============================================================


def _zone_box(lateral: LateralBand,
              depth: DepthBand) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """(x_range, y_range) of a rally zone on the far half, shrunk off the lines."""
    w = COURT.serve_band_width
    sx = COURT.singles_half_width
    pad = 0.12
    ranges = {
        LateralBand.LEFT: (-sx + pad, -w),
        LateralBand.CENTER: (-w + pad, w - pad),
        LateralBand.RIGHT: (w, sx - pad),
    }
    depths = {
        DepthBand.SHORT: (0.4, COURT.service_line_y - pad),
        DepthBand.MID: (COURT.service_line_y + pad, COURT.mid_depth_y - pad),
        DepthBand.DEEP: (COURT.mid_depth_y + pad, COURT.baseline_y - pad),
    }
    return ranges[lateral], depths[depth]


def _sample_rally_target(rng: SplitMix64, side_sign: float) -> np.ndarray:
    """A landing position on the given half, biased by the zone-preference table."""
    zones = list(RALLY_ZONE_WEIGHTS)
    zone = rng.choice_weighted(zones, [RALLY_ZONE_WEIGHTS[z] for z in zones])
    (x0, x1), (y0, y1) = _zone_box(zone[0], zone[1])
    return np.array([rng.uniform(x0, x1), side_sign * rng.uniform(y0, y1)])


def _sample_serve_bounce(rng: SplitMix64, receiver_sign: float, deuce: bool,
                         fault: bool) -> np.ndarray:
    """A serve landing spot: in the correct box, or long when the serve faults."""
    w = COURT.serve_band_width
    band = rng.choice_weighted([b for b, _ in SERVE_BAND_WEIGHTS],
                               [wt for _, wt in SERVE_BAND_WEIGHTS])
    mag = {
        "T": rng.uniform(0.25, w - 0.1),
        "Body": rng.uniform(w + 0.1, 2 * w - 0.1),
        "Wide": rng.uniform(2 * w + 0.1, COURT.singles_half_width - 0.2),
    }[band]
    # cross-court: the deuce box on the far half has x <= 0 (and mirrored on
    # the near half), matching the zone classification convention
    box_sign = (-1.0 if deuce else 1.0) * (1.0 if receiver_sign > 0 else -1.0)
    y = rng.uniform(7.0, 7.9) if fault else rng.uniform(3.4, 6.2)
    return np.array([box_sign * mag, receiver_sign * y])


class _PlayerMotion:
    """Knot bookkeeping for one player: corners only at event frames."""

    def __init__(self, start_pos: np.ndarray):
        self.knots: List[Tuple[int, float, float]] = [(0, float(start_pos[0]), float(start_pos[1]))]

    @property
    def frame(self) -> int:
        return self.knots[-1][0]

    @property
    def pos(self) -> np.ndarray:
        return np.array(self.knots[-1][1:])

    def hold(self, frame: int):
        """Stand still through the given frame."""
        if frame < self.frame:
            raise ValidationError("player knots must advance in time")
        if frame > self.frame:
            _, x, y = self.knots[-1]
            self.knots.append((frame, x, y))

    def leg_to(self, frame: int, aim: np.ndarray, event_frames: Sequence[int],
               fps: float) -> np.ndarray:
        """Move toward ``aim``, arriving at ``frame``; returns the reached position.

        One constant-velocity run whose speed stays inside
        [LEG_SPEED_MIN, LEG_SPEED_MAX]. When the full interval would be too
        slow the start is delayed to a later event frame, and when no event
        frame admits a legal speed the player stands instead.
        """
        f0 = self.frame
        p0 = self.pos
        if frame <= f0:
            raise ValidationError("player legs must advance in time")
        disp = np.asarray(aim, dtype=float) - p0
        dist = float(np.hypot(*disp))
        if dist < 0.18:
            self.hold(frame)
            return self.pos
        t_full = (frame - f0) / fps
        v_full = dist / t_full
        if v_full >= LEG_SPEED_MIN:
            reach = min(v_full, LEG_SPEED_MAX) * t_full
            end = p0 + disp / dist * reach
            self.knots.append((frame, float(end[0]), float(end[1])))
            return end
        for split in sorted((f for f in event_frames if f0 < f < frame), reverse=True):
            v = dist / ((frame - split) / fps)
            if LEG_SPEED_MIN <= v <= LEG_SPEED_MAX:
                self.hold(split)
                self.knots.append((frame, float(aim[0]), float(aim[1])))
                return self.pos
        self.hold(frame)
        return self.pos


def _pad_walk(motions: Dict[str, _PlayerMotion], targets: Dict[str, np.ndarray],
              start_frame: int, fps: float) -> int:
    """Walk both players to their stands over one shared pad; returns its end frame.

    Pads contain no events, so each walk must be a single constant-velocity
    run. Too-short walks are extended sideways until the speed clears the
    stabilization floor.
    """
    dists = {pid: float(np.hypot(*(targets[pid] - motions[pid].pos))) for pid in targets}
    frames = int(min(PAD_FRAMES_MAX,
                     max(PAD_FRAMES_MIN,
                         math.ceil(fps * max(dists.values()) / PAD_SPEED_TARGET))))
    t_pad = frames / fps
    end = start_frame + frames
    for pid in sorted(targets):
        motion = motions[pid]
        target = targets[pid].copy()
        if dists[pid] < LEG_SPEED_MIN * t_pad:
            # lengthen the walk laterally so the speed clears the floor
            need = 1.15 * t_pad
            dy = float(target[1] - motion.pos[1])
            dx = math.sqrt(max(need * need - dy * dy, 0.0))
            base = float(motion.pos[0])
            for sign in ((-1.0, 1.0) if base > 0 else (1.0, -1.0)):
                if abs(base + sign * dx) <= 5.3:
                    target[0] = base + sign * dx
                    break
            else:
                target[0] = math.copysign(5.3, base)
        motion.knots.append((end, float(target[0]), float(target[1])))
    return end


def _maybe_net_cord(rng: SplitMix64, contact: TruthKeyframe, f_bounce: int,
                    bounce: np.ndarray) -> Optional[TruthKeyframe]:
    """A net-cord keyframe on the flight's net crossing, kept on the planar line.

    The clipped ball stays on the contact-to-bounce chord (so the planar track
    keeps a single constant velocity across the cord) while the solved height
    is forced through the cord; only flights whose crossing rounds to a frame
    at least two frames clear of both endpoints qualify.
    """
    if rng.uniform() >= NET_CORD_PROBABILITY:
        return None
    y0, y1 = contact.y, float(bounce[1])
    if y0 == y1 or (y0 > 0) == (y1 > 0):
        return None
    frac = (0.0 - y0) / (y1 - y0)
    f_net = int(round(contact.frame + frac * (f_bounce - contact.frame)))
    if not (contact.frame + 2 <= f_net <= f_bounce - 2):
        return None
    lerp = (f_net - contact.frame) / (f_bounce - contact.frame)
    x = contact.x + lerp * (float(bounce[0]) - contact.x)
    y = y0 + lerp * (y1 - y0)
    return TruthKeyframe(frame=f_net, kind=EventKind.NET_CORD,
                         x=float(x), y=float(y), z=COURT.net_cord_height)


def simulate_rally(config: SimConfig,
                   rules: ScoringRules = ScoringRules()) -> GroundTruthRally:
    """Generate an exact multi-point rally under the given configuration.

    All randomness comes from per-point substreams of the seed, so inserting
    extra draws into one point never shifts any other point's geometry. The
    simulation stops early only if the match completes.
    """
    fps = config.fps
    master = SplitMix64(config.seed)
    state = new_match(rules=rules)
    p_near, p_far = state.players
    side_signs = {p_near: -1.0, p_far: 1.0}

    motions: Dict[str, _PlayerMotion] = {}
    points: List[SimulatedPoint] = []
    cursor: Optional[int] = None  # frame of the previous PointEnd

    for index in range(config.points):
        if state.winner is not None:
            break
        rng = master.substream(index)
        server = state.server
        receiver = state.opponent(server)
        s_sign = side_signs[server]
        r_sign = side_signs[receiver]

        in_game = sum(state.tiebreak_points) if state.in_tiebreak else sum(state.points)
        deuce = in_game % 2 == 0

        # outcome and rally length are drawn up front so the point's geometry
        # can be built toward them
        roll = rng.uniform()
        if roll < 0.045:
            how, shots = "Ace", 1
        elif roll < 0.085:
            how, shots = "DoubleFault", 1
        else:
            shots = rng.choice_weighted([s for s, _ in SHOT_COUNT_WEIGHTS],
                                        [w for _, w in SHOT_COUNT_WEIGHTS])
            how = rng.choice_weighted([o for o, _ in RALLY_OUTCOME_WEIGHTS],
                                      [w for _, w in RALLY_OUTCOME_WEIGHTS])
        last_hitter = server if shots % 2 == 1 else receiver
        if how in ("Winner", "Ace"):
            winner = last_hitter
        elif how == "DoubleFault":
            winner = receiver
        else:
            winner = state.opponent(last_hitter)

        serve_bounce = _sample_serve_bounce(rng, r_sign, deuce,
                                            fault=(how == "DoubleFault"))

        stand_x_sign = s_sign * (-1.0 if deuce else 1.0)
        serve_stand = np.array([stand_x_sign * rng.uniform(0.4, 1.8),
                                s_sign * rng.uniform(12.1, 12.6)])
        return_stand = np.array([
            float(np.clip(serve_bounce[0] + rng.uniform(-0.5, 0.5), -4.6, 4.6)),
            r_sign * rng.uniform(11.2, 12.2),
        ])

        if cursor is None:
            # first point: both players start the clip already on their marks
            motions[server] = _PlayerMotion(serve_stand)
            motions[receiver] = _PlayerMotion(return_stand)
            f_start = LEAD_IN_FRAMES
            for m in motions.values():
                m.hold(f_start)
        else:
            f_start = _pad_walk(motions,
                                {server: serve_stand, receiver: return_stand},
                                cursor, fps)

        event_frames: List[int] = [f_start]
        keyframes: List[TruthKeyframe] = []
        prepared: Optional[Tuple[int, np.ndarray]] = None  # pre-run leg result

        hitter = server
        f_contact = f_start + SERVE_WINDUP_FRAMES
        for shot in range(1, shots + 1):
            # ---- contact ----
            if shot <= 2:
                # serve and return are struck from the prepared stands
                motions[hitter].hold(f_contact)
                contact = motions[hitter].pos
            else:
                if prepared is None or prepared[0] != f_contact:
                    raise ValidationError("rally builder lost a prepared contact")
                contact = prepared[1]
            other = receiver if hitter == server else server
            motions[other].hold(f_contact)
            event_frames.append(f_contact)
            contact_kf = TruthKeyframe(
                frame=f_contact, kind=EventKind.CONTACT,
                x=float(contact[0]), y=float(contact[1]),
                z=rng.uniform(2.55, 3.0) if shot == 1 else rng.uniform(0.75, 1.45),
                player_id=hitter,
                spin=rng.choice_weighted([SpinType.TOPSPIN, SpinType.BACKSPIN],
                                         [0.75 if shot == 1 else 0.7,
                                          0.25 if shot == 1 else 0.3]),
            )
            keyframes.append(contact_kf)

            # ---- flight to the next landing ----
            flight = rng.randint(17, 21) if shot == 1 else rng.randint(22, 30)
            f_bounce = f_contact + flight
            event_frames.append(f_bounce)
            next_hitter = receiver if hitter == server else server

            if shot == 1:
                bounce = serve_bounce
            elif shot < shots:
                # land one short hop before wherever the next hitter's legs
                # put them at their contact frame
                f_next = f_bounce + HOP_FRAMES
                target = _sample_rally_target(rng, side_signs[next_hitter])
                home = np.array([0.0, side_signs[next_hitter] * 10.6])
                aim = 0.62 * target + 0.38 * home
                aim[0] += rng.uniform(-0.3, 0.3)
                next_contact = motions[next_hitter].leg_to(f_next, aim, event_frames, fps)
                direction = next_contact - contact
                norm = float(np.hypot(*direction))
                if norm > 1e-9:
                    direction = direction / norm
                else:
                    direction = np.array([0.0, side_signs[next_hitter]])
                bounce = next_contact - direction * rng.uniform(0.55, 1.05)
                bounce[0] = float(np.clip(bounce[0], -4.05, 4.05))
                sgn = side_signs[next_hitter]
                bounce[1] = sgn * float(np.clip(bounce[1] * sgn, 0.35, COURT.baseline_y - 0.1))
                prepared = (f_next, next_contact)
            else:
                # terminal landing: the purest use of the preference table
                bounce = _sample_rally_target(rng, side_signs[next_hitter])

            if shot > 2:
                # serve and return flights never clip the cord: their
                # preceding landing sits far from the striker, which would
                # push the cord outside the longitudinal plausibility gate
                cord = _maybe_net_cord(rng, contact_kf, f_bounce, bounce)
                if cord is not None:
                    event_frames.append(cord.frame)
                    keyframes.append(cord)
            keyframes.append(TruthKeyframe(
                frame=f_bounce, kind=EventKind.BOUNCE,
                x=float(bounce[0]), y=float(bounce[1]), z=0.0,
            ))

            hitter = next_hitter
            if shot < shots:
                # the next hitter strikes one short hop after this landing
                f_contact = f_bounce + HOP_FRAMES

        f_end = f_bounce + rng.randint(10, 16)
        for m in motions.values():
            m.hold(f_end)
        event_frames.append(f_end)

        outcome = PointOutcome(winner=winner, how=how)
        points.append(SimulatedPoint(
            index=index, start_frame=f_start, end_frame=f_end,
            keyframes=tuple(keyframes), outcome=outcome, score_before=state,
        ))
        state = advance_score(state, winner)
        cursor = f_end

    n_frames = points[-1].end_frame + TAIL_FRAMES + 1
    for m in motions.values():
        m.hold(n_frames - 1)

    return GroundTruthRally(
        fps=fps,
        n_frames=n_frames,
        points=tuple(points),
        players={pid: tuple(m.knots) for pid, m in motions.items()},
        final_score=state,
        camera=config.camera,
        seed=config.seed & ((1 << 64) - 1),
    )


# ============================================================
# Projection into the clip format
# ============================================================


def _pixel_rows(uv: np.ndarray, quantize: bool) -> list:
    """(n, 2) pixels as JSON rows; quantizing rounds half up, ``floor(u + 0.5)``."""
    if not quantize:
        return uv.tolist()
    q = np.floor(uv + 0.5)
    if np.all(np.abs(q) < 2.0 ** 63):
        return q.astype(np.int64).tolist()
    # nan, inf or past int64: int() of each float is exact and fails like math.floor
    return [[int(u), int(v)] for u, v in q.tolist()]


# Pixel offsets of a plausible hitting arm, relative to the foot anchor.
_JOINT_OFFSETS_PX = {
    "shoulder": (-6.0, -38.0),
    "elbow": (8.0, -28.0),
    "wrist": (22.0, -21.0),
}


@collector_paused
def project_clip(rally: GroundTruthRally, config: SimConfig) -> Tuple[dict, dict]:
    """Render ground truth into an ingest-format clip plus its truth document.

    Detector noise applies to the tracked samples (ball, feet, joints); events,
    keyframe annotations, and calibration keypoints are emitted exactly, the
    way a human-verified annotation pass would be.

    The projection is array code: the ball track and each foot track go
    through one ``world_to_image_many`` call, and both random streams are
    drawn in bulk, in the order a frame-by-frame loop would draw them. The
    noise stream (only when sigma > 0) gives, per frame, ball u and v; then u
    and v for each player in ``player_ids()`` order, where the player with a
    Contact on that frame is followed at once by six joint draws (shoulder,
    elbow, wrist, u then v each). A Contact by a player without knots gets no
    joints and draws nothing. The dropout stream (only when the rate is
    positive) gives one uniform per frame, including frames whose ball is then
    dropped. The clip is therefore byte-identical to the frame loop's.
    """
    h = config.camera.homography()
    sigma = config.pixel_noise_sigma_px
    n = rally.n_frames
    pids = rally.player_ids()
    slot = {pid: i for i, pid in enumerate(pids)}
    hitter_at: Dict[int, str] = {
        k.frame: k.player_id
        for p in rally.points for k in p.keyframes
        if k.kind is EventKind.CONTACT and k.player_id
    }
    # (frame, player slot) of every Contact that gets arm joints, in frame order
    hits = sorted((f, slot[pid]) for f, pid in hitter_at.items() if 0 <= f < n and pid in slot)
    hit_frames = np.array([f for f, _ in hits], dtype=np.intp)
    hitters = np.array([i for _, i in hits], dtype=np.intp)

    ball_uv = h.world_to_image_many(rally.ball_planar_track())
    foot_uv = [h.world_to_image_many(rally.player_track(pid)) for pid in pids]
    joints = len(_JOINT_OFFSETS_PX)
    # (hits, joints, 2): offsets from the unjittered foot pixel
    joint_uv = (np.array([foot_uv[i][f] for f, i in hits]).reshape(-1, 1, 2)
                + np.array(list(_JOINT_OFFSETS_PX.values())))

    if sigma > 0:
        per_frame = np.full(n, 2 + 2 * len(pids), dtype=np.intp)
        per_frame[hit_frames] += 2 * joints
        first = np.cumsum(per_frame) - per_frame  # each frame's first draw
        noise = SplitMix64(config.seed).substream(1_000_003).normal_many(
            int(per_frame.sum()), 0.0, sigma)
        uv = np.arange(2)
        ball_uv = ball_uv + noise[first[:, None] + uv]
        for i in range(len(pids)):
            at = first + 2 + 2 * i
            at[hit_frames[hitters < i]] += 2 * joints  # after an earlier hitter's joints
            foot_uv[i] = foot_uv[i] + noise[at[:, None] + uv]
        joint_at = first[hit_frames] + 2 + 2 * hitters + 2  # after the hitter's own foot
        joint_uv = joint_uv + noise[joint_at[:, None, None] + np.arange(2 * joints).reshape(-1, 2)]

    quantize = config.quantize_pixels
    ball_px: List[Optional[list]] = _pixel_rows(ball_uv, quantize)
    if config.dropout_rate > 0:
        drops = SplitMix64(config.seed).substream(1_000_033).uniform_many(n)
        for f in np.flatnonzero(drops < config.dropout_rate).tolist():
            ball_px[f] = None
    entries = [[{"id": pid, "foot_px": px} for px in _pixel_rows(uv, quantize)]
               for pid, uv in zip(pids, foot_uv)]
    players_at = zip(*entries) if entries else itertools.repeat(())
    frames = [{"index": f, "ball_px": ball, "players": list(players)}
              for f, ball, players in zip(range(n), ball_px, players_at)]
    joint_px = _pixel_rows(joint_uv.reshape(-1, 2), quantize)
    for k, (f, i) in enumerate(hits):
        frames[f]["players"][i]["joints_px"] = dict(
            zip(_JOINT_OFFSETS_PX, joint_px[k * joints:(k + 1) * joints]))

    events: List[dict] = []
    annotations: List[dict] = []
    for p in rally.points:
        events.append({"frame": p.start_frame, "kind": EventKind.POINT_START.value})
        for k in p.keyframes:
            e: dict = {"frame": k.frame, "kind": k.kind.value}
            if k.kind is EventKind.CONTACT:
                e["player_id"] = k.player_id
                annotations.append({
                    "frame": k.frame,
                    "height_m": k.z,
                    "spin": k.spin.value if k.spin else None,
                })
            events.append(e)
        events.append({"frame": p.end_frame, "kind": EventKind.POINT_END.value})

    clip_doc = {
        "header": {
            "clip_id": f"sim-{rally.seed:016x}-{len(rally.points)}pt",
            "fps": rally.fps,
            "width": config.width,
            "height": config.height,
            "court_keypoints_px": [
                [*h.world_to_image(p.x, p.y)] for p in reference_keypoints()
            ],
            "score_before": rally.points[0].score_before.to_dict(),
            "point_outcomes": [OUTCOME.write(p.outcome) for p in rally.points],
        },
        "frames": frames,
        "events": events,
        "keyframe_annotations": annotations,
    }
    return clip_doc, rally.to_dict()


def simulate_clip(config: SimConfig,
                  rules: ScoringRules = ScoringRules()) -> Tuple[dict, dict]:
    """Convenience: simulate and project in one call."""
    return project_clip(simulate_rally(config, rules), config)


# ============================================================
# Round-trip comparison
# ============================================================


def _rms(squares: np.ndarray) -> float:
    """Root of the mean of ``squares``, summed left to right; 0 for no samples.

    np.sum adds pairwise, and Python's sum() of floats is compensated from
    3.12 on; either would move the last digits of a report.
    """
    return math.sqrt(np.add.accumulate(squares)[-1] / len(squares)) if len(squares) else 0.0


def round_trip_report(truth: GroundTruthRally, scene,
                      sample_rate_hz: float = 50.0) -> dict:
    """Compare a reconstruction against the ground truth it was rendered from.

    ``scene`` needs ``span`` (t0, t1), ``tracks`` mapping each entity name to
    a track with ``positions_at(ts)`` returning (n, 3) court positions, and
    ``point_spans()`` in seconds. Players are compared across the whole clip
    on one time grid; the ball is compared on the export grid's samples
    inside each point's keyframe span, where its trajectory is defined: the
    samples of every point are built as one array, and evaluated in one
    ``evaluate_runs`` pass on the truth's trajectory table
    (``GroundTruthRally.trajectories``). Every lookup takes a whole grid at
    once, so the cost is linear in the number of samples. Mismatched
    spans or entity sets are an error, not a large RMSE or a pass on part of
    the evidence; the scene may end less than one sample after the truth,
    where its export grid overshoots the last frame. The truth's table is
    assembled before any point's keyframe span is compared with the scene's,
    so a truth point that cannot be assembled raises first.
    """
    t0, scene_t1 = scene.span
    t1 = (truth.n_frames - 1) / truth.fps
    if abs(t0 - 0.0) > 1e-9 or not (t1 - 1e-9 <= scene_t1 < t1 + 1.0 / sample_rate_hz):
        raise ValidationError(
            f"scene span ({t0}, {scene_t1}) does not match truth span (0.0, {t1})")

    scene_spans = scene.point_spans()
    if len(scene_spans) != len(truth.points):
        raise ValidationError(
            f"scene has {len(scene_spans)} points, truth has {len(truth.points)}")

    want, have = {"ball", *truth.player_ids()}, set(scene.tracks)
    if have != want:
        raise ValidationError(f"scene and truth entities differ: not in the scene "
                              f"{sorted(want - have)}, not in the truth {sorted(have - want)}")

    step = 1.0 / sample_rate_hz

    def grid(a: float, b: float) -> np.ndarray:
        n = int(math.floor((b - a) * sample_rate_hz + 1e-9)) + 1
        return np.minimum(a + np.arange(n) * step, b)

    # scene minus truth, one row per sample
    trajectories = truth.trajectories
    k0, k1 = trajectories.t_starts(), trajectories.t_ends()
    s0, s1 = np.array(scene_spans, dtype=float).reshape(-1, 2).T
    escapes = np.flatnonzero(~((s0 - 1e-9 <= k0) & (k1 <= s1 + 1e-9)))
    if len(escapes):
        j = int(escapes[0])
        raise ValidationError(f"point {truth.points[j].index} keyframe span [{float(k0[j])}, "
                              f"{float(k1[j])}] escapes scene span [{scene_spans[j][0]}, "
                              f"{scene_spans[j][1]}]")
    # each point's samples start on a sample of the export grid: between
    # samples the scene interpolates, and across a keyframe that blends two
    # flight segments
    first = np.ceil(k0 * sample_rate_hz - 1e-9) / sample_rate_hz
    counts = np.maximum(np.floor((k1 - first) * sample_rate_hz + 1e-9).astype(np.int64) + 1, 0)
    owner = np.repeat(np.arange(len(counts)), counts)
    local = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    ts = np.minimum(first[owner] + local * step, k1[owner])
    # an error too large for a float is reported as Infinity, without a warning
    with np.errstate(over="ignore"):
        ball_d = (scene.tracks["ball"].positions_at(ts)
                  - evaluate_runs(trajectories, ts, counts))
        ball_sq_axes = ball_d * ball_d
        ball_err = np.sqrt(ball_sq_axes[:, 0] + ball_sq_axes[:, 1] + ball_sq_axes[:, 2])

        ts = grid(t0, t1)
        player_diffs = [scene.tracks[pid].positions_at(ts)[:, :2] - truth.player_position(pid, ts)
                        for pid in truth.player_ids()]
        player_d = np.concatenate(player_diffs) if player_diffs else np.empty((0, 2))
        player_sq_axes = player_d * player_d
        # math.hypot, not np.hypot: the two may round differently
        player_err = np.array(list(map(math.hypot, player_d[:, 0].tolist(),
                                       player_d[:, 1].tolist())))

        return {
            "ball_rmse_m": _rms(ball_err * ball_err),
            "ball_max_m": float(ball_err.max()) if len(ball_err) else 0.0,
            "player_rmse_m": _rms(player_err * player_err),
            "player_max_m": float(player_err.max()) if len(player_err) else 0.0,
            "per_axis": {
                "ball": {axis: _rms(ball_sq_axes[:, j]) for j, axis in enumerate("xyz")},
                "players": {axis: _rms(player_sq_axes[:, j]) for j, axis in enumerate("xy")},
            },
            "ball_samples": len(ball_err),
            "player_samples": len(player_err),
        }
