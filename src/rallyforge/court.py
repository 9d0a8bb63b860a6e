"""Court geometry: dimensions, reference keypoints, and zone classification.

Coordinate frame used everywhere in this package:

* x runs laterally (positive toward the broadcast-right sideline),
* y runs along the court (net at y = 0, baselines at y = +/-11.885),
* z is height above the ground plane.

The "near" half is y < 0, the "far" half is y > 0.

``COURT``, the ITF regulation court, is the one court the library computes
with: calibration keypoints, zones, heatmap grids and net-cord heights all
read it. ``CourtModel`` is the record a scene document's ``court`` holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .errors import ValidationError

# ============================================================
# Points and dimensions
# ============================================================


@dataclass(frozen=True)
class CourtPoint:
    """A point in court coordinates (metres)."""

    x: float
    y: float
    z: float = 0.0

    def as_xyz(self) -> tuple:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class CourtModel:
    """Regulation court dimensions in metres.

    All values are half-extents or distances from the net plane, so the
    geometry is symmetric in both axes by construction.
    """

    length: float = 23.77
    singles_half_width: float = 4.115
    doubles_half_width: float = 5.485
    service_line_y: float = 6.40
    net_y: float = 0.0
    net_cord_height: float = 0.9
    ground_z: float = 0.0

    def __post_init__(self):
        if self.length <= 0 or self.singles_half_width <= 0:
            raise ValidationError("court dimensions must be positive")
        if self.doubles_half_width < self.singles_half_width:
            raise ValidationError("doubles half-width must not be smaller than singles")
        if not (0 < self.service_line_y < self.baseline_y):
            raise ValidationError("service line must sit between net and baseline")

    @property
    def baseline_y(self) -> float:
        return self.length / 2.0

    @property
    def serve_band_width(self) -> float:
        """Width of one Wide/Body/T band (a service box split in equal thirds)."""
        return self.singles_half_width / 3.0

    @property
    def mid_depth_y(self) -> float:
        """Boundary between the Mid and Deep bands, halfway from service line to baseline."""
        return (self.service_line_y + self.baseline_y) / 2.0


COURT = CourtModel()


# ============================================================
# Zones
# ============================================================


class Phase(Enum):
    SERVE = "Serve"
    RALLY = "Rally"


class ServeBox(Enum):
    DEUCE = "Deuce"
    AD = "Ad"


class ServeBand(Enum):
    WIDE = "Wide"
    BODY = "Body"
    T = "T"


class LateralBand(Enum):
    LEFT = "Left"
    CENTER = "Center"
    RIGHT = "Right"


class DepthBand(Enum):
    SHORT = "Short"
    MID = "Mid"
    DEEP = "Deep"


class CourtSide(Enum):
    NEAR = "Near"
    FAR = "Far"


@dataclass(frozen=True)
class ZoneId:
    """Identity of one landing zone.

    Exactly one of the three shapes is populated:

    * serve zone: ``box`` and ``serve_band``
    * rally zone: ``lateral``, ``depth``, ``side``
    * out of bounds: all fields empty
    """

    phase: Optional[Phase] = None
    box: Optional[ServeBox] = None
    serve_band: Optional[ServeBand] = None
    lateral: Optional[LateralBand] = None
    depth: Optional[DepthBand] = None
    side: Optional[CourtSide] = None

    @staticmethod
    def serve(box: ServeBox, band: ServeBand) -> "ZoneId":
        return ZoneId(phase=Phase.SERVE, box=box, serve_band=band)

    @staticmethod
    def rally(lateral: LateralBand, depth: DepthBand, side: CourtSide) -> "ZoneId":
        return ZoneId(phase=Phase.RALLY, lateral=lateral, depth=depth, side=side)

    @staticmethod
    def out_of_bounds() -> "ZoneId":
        return ZoneId()

    @property
    def is_out_of_bounds(self) -> bool:
        return self.phase is None

    def key(self) -> str:
        """Stable string form used in serialized metrics."""
        return self._key

    @cached_property
    def _key(self) -> str:
        if self.is_out_of_bounds:
            return "out_of_bounds"
        if self.phase is Phase.SERVE:
            return f"serve:{self.box.value}:{self.serve_band.value}"
        return f"rally:{self.lateral.value}:{self.depth.value}:{self.side.value}"


# every zone, indexed by the codes ``zone_codes`` returns: out of bounds,
# then the serve zones by box and band outward from the centre line, then the
# rally zones by side, depth and lateral band
_SERVE_BANDS = (ServeBand.T, ServeBand.BODY, ServeBand.WIDE)
ZONES: Tuple[ZoneId, ...] = (
    ZoneId.out_of_bounds(),
    *(ZoneId.serve(box, band) for box in (ServeBox.DEUCE, ServeBox.AD) for band in _SERVE_BANDS),
    *(ZoneId.rally(lateral, depth, side)
      for side in (CourtSide.NEAR, CourtSide.FAR) for depth in DepthBand
      for lateral in LateralBand),
)
for _zone in ZONES:  # each key is built once, here
    _zone.key()
del _zone


def zone_codes(x, y, serve) -> np.ndarray:
    """Index into ``ZONES`` of each planar landing position on ``COURT``.

    ``serve`` marks the positions classified under serve rules; the others
    follow rally rules. Points on a shared boundary belong to the zone nearer
    the court centre; anything outside the singles court (the doubles alleys
    included) is OutOfBounds. In a serve box, Deuce is to the right of the
    centre line from the occupant's own perspective facing the net, and x = 0
    resolves to Deuce.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("zone classification needs finite coordinates")
    ax, ay = np.abs(x), np.abs(y)
    w = COURT.serve_band_width
    # Ad lies left of the centre line as the box's occupant faces the net; a
    # band's index counts the band edges the distance lies beyond
    ad = np.where(y < 0.0, x < 0.0, x > 0.0)
    serve_zone = 1 + 3 * ad + (ax > w) + (ax > 2.0 * w)
    serve_out = (ax > COURT.singles_half_width) | (ay > COURT.service_line_y) | (y == 0.0)
    lateral = np.where(ax <= w, 1, np.where(x < 0, 0, 2))
    depth = (ay > COURT.service_line_y).astype(int) + (ay > COURT.mid_depth_y)
    rally_zone = 7 + 9 * (y > 0) + 3 * depth + lateral
    rally_out = (ax > COURT.singles_half_width) | (ay > COURT.baseline_y)
    return np.where(serve, np.where(serve_out, 0, serve_zone), np.where(rally_out, 0, rally_zone))


def classify_zone(point: CourtPoint, phase: Phase) -> ZoneId:
    """Map a planar landing position on ``COURT`` to its zone for the given phase.

    One position's ``zone_codes``.
    """
    code = zone_codes([point.x], [point.y], [phase is Phase.SERVE])[0]
    if phase is not Phase.SERVE and phase is not Phase.RALLY:
        raise ValidationError(f"unknown phase: {phase!r}")
    return ZONES[code]


def all_zones(phase: Phase) -> List[ZoneId]:
    """Every non-OutOfBounds zone of a phase, in a fixed order."""
    if phase is Phase.SERVE:
        return [ZoneId.serve(b, d) for b in ServeBox for d in ServeBand]
    return [
        ZoneId.rally(lat, dep, side)
        for side in CourtSide
        for dep in DepthBand
        for lat in LateralBand
    ]


# ============================================================
# Reference keypoints
# ============================================================

def reference_keypoints() -> List[CourtPoint]:
    """The 14 keypoints of ``COURT`` that detectors report, in a fixed documented order.

    Order (z = 0 throughout, near half first within each group, left before
    right):

    * 0-3   doubles-court corners
    * 4-7   singles sideline x baseline intersections
    * 8-11  singles sideline x service line intersections
    * 12-13 centre service line x service line intersections
    """
    dw = COURT.doubles_half_width
    sw = COURT.singles_half_width
    bl = COURT.baseline_y
    sl = COURT.service_line_y
    pts = []
    for half_width, yy in ((dw, bl), (sw, bl), (sw, sl)):
        for y_signed in (-yy, yy):
            for x_signed in (-half_width, half_width):
                pts.append(CourtPoint(x_signed, y_signed))
    pts.append(CourtPoint(0.0, -sl))
    pts.append(CourtPoint(0.0, sl))
    return pts
