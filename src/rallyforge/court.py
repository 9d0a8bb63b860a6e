"""Court geometry: dimensions, reference keypoints, and zone classification.

Coordinate frame used everywhere in this package:

* x runs laterally (positive toward the broadcast-right sideline),
* y runs along the court (net at y = 0, baselines at y = +/-11.885),
* z is height above the ground plane.

The "near" half is y < 0, the "far" half is y > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

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
        if self.is_out_of_bounds:
            return "out_of_bounds"
        if self.phase is Phase.SERVE:
            return f"serve:{self.box.value}:{self.serve_band.value}"
        return f"rally:{self.lateral.value}:{self.depth.value}:{self.side.value}"


def _band_index(distance: float, edges: List[float]) -> int:
    """Index of the half-open band (edges[i-1], edges[i]] containing distance.

    The innermost band is closed at zero. Ties on a shared edge therefore go
    to the band nearer the court centre. Returns len(edges) when the distance
    lies beyond the last edge.
    """
    for i, edge in enumerate(edges):
        if distance <= edge:
            return i
    return len(edges)


def classify_zone(point: CourtPoint, phase: Phase, court: CourtModel = COURT) -> ZoneId:
    """Map a planar landing position to its zone for the given phase.

    Points on a shared boundary belong to the zone nearer the court centre;
    anything outside the singles court (the doubles alleys included) is
    OutOfBounds.
    """
    x, y = point.x, point.y
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValidationError("zone classification needs finite coordinates")

    ax, ay = abs(x), abs(y)
    if phase is Phase.SERVE:
        if ax > court.singles_half_width or ay > court.service_line_y or y == 0.0:
            return ZoneId.out_of_bounds()
        # Deuce is to the right of the centre line from the occupant's own
        # perspective facing the net; x = 0 resolves to Deuce.
        deuce = x >= 0.0 if y < 0.0 else x <= 0.0
        box = ServeBox.DEUCE if deuce else ServeBox.AD
        w = court.serve_band_width
        band = [ServeBand.T, ServeBand.BODY, ServeBand.WIDE][
            _band_index(ax, [w, 2.0 * w, court.singles_half_width])
        ]
        return ZoneId.serve(box, band)

    if phase is Phase.RALLY:
        if ax > court.singles_half_width or ay > court.baseline_y:
            return ZoneId.out_of_bounds()
        if ax <= court.serve_band_width:
            lateral = LateralBand.CENTER
        else:
            lateral = LateralBand.LEFT if x < 0 else LateralBand.RIGHT
        depth = [DepthBand.SHORT, DepthBand.MID, DepthBand.DEEP][
            _band_index(ay, [court.service_line_y, court.mid_depth_y, court.baseline_y])
        ]
        side = CourtSide.FAR if y > 0 else CourtSide.NEAR
        return ZoneId.rally(lateral, depth, side)

    raise ValidationError(f"unknown phase: {phase!r}")


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

def reference_keypoints(court: CourtModel = COURT) -> List[CourtPoint]:
    """The 14 court keypoints detectors report, in a fixed documented order.

    Order (z = 0 throughout, near half first within each group, left before
    right):

    * 0-3   doubles-court corners
    * 4-7   singles sideline x baseline intersections
    * 8-11  singles sideline x service line intersections
    * 12-13 centre service line x service line intersections
    """
    dw = court.doubles_half_width
    sw = court.singles_half_width
    bl = court.baseline_y
    sl = court.service_line_y
    pts = []
    for half_width, yy in ((dw, bl), (sw, bl), (sw, sl)):
        for y_signed in (-yy, yy):
            for x_signed in (-half_width, half_width):
                pts.append(CourtPoint(x_signed, y_signed))
    pts.append(CourtPoint(0.0, -sl))
    pts.append(CourtPoint(0.0, sl))
    return pts
