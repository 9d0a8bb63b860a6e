"""One JSON config file drives every pipeline stage.

Sections map one-to-one onto stage configs (refinement, cinematography,
scoring, export, simulator, verify). ``_FORMAT`` below is the whole config
format: every section, the dataclass it builds, and a typed reader for each
key, taken from the codecs in ``fields`` that the scene and truth documents
read with too (the ``simulator.camera`` keys are ``CameraModel``'s own field
list, and the ``scoring`` keys the rules' field list a score state reads).
Loading walks that one table. Keys it does not list are never applied and are
reported in a warning list, so a typo like "ma_windw" surfaces instead of
silently running with defaults; a value of the wrong type raises ConfigError
naming its ``section.key``, as in ``simulator.camera.focal_px must be a
finite number, got '3000'``. Range checks live in each dataclass's
``__post_init__``, so library callers get them too; one a section breaks is
reported under that section, as in ``export is invalid: sample_rate_hz must
lie in (0, 1000] Hz, got 10000000.0``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Mapping, NamedTuple, Tuple

from .cinematography import CameraAnchor, RigPose, RigTable, ShotSize
from .errors import ConfigError, ValidationError
from .fields import BOOL, INTEGER, NUMBER, OBJECT, POINT, Malformed, field_list, record
from .refine import RefinementConfig
from .scoring import RULES_FIELDS, ScoringRules
from .simulate import CAMERA_FIELDS, CameraModel, SimConfig


# 40 samples per frame of a 25 fps clip; a finer grid only grows the scene
# (at 1e7 Hz a 6 s clip exhausts memory).
MAX_SAMPLE_RATE_HZ = 1000.0


@dataclass(frozen=True)
class ExportConfig:
    sample_rate_hz: float = 50.0

    def __post_init__(self):
        if not 0 < self.sample_rate_hz <= MAX_SAMPLE_RATE_HZ:
            raise ConfigError(f"sample_rate_hz must lie in (0, {MAX_SAMPLE_RATE_HZ:g}] Hz, "
                              f"got {self.sample_rate_hz!r}")


@dataclass(frozen=True)
class VerifyBounds:
    """Round-trip error bounds the verify command enforces."""

    ball_rmse_m: float = 0.05
    player_rmse_m: float = 0.05

    def __post_init__(self):
        for name in ("ball_rmse_m", "player_rmse_m"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} bound must be positive")


@dataclass(frozen=True)
class PipelineConfig:
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    rig: RigTable = field(default_factory=RigTable)
    scoring: ScoringRules = field(default_factory=ScoringRules)
    export: ExportConfig = field(default_factory=ExportConfig)
    simulator: SimConfig = field(default_factory=SimConfig)
    verify: VerifyBounds = field(default_factory=VerifyBounds)


DEFAULT_CONFIG = PipelineConfig()


Reader = Callable[[object], object]  # JSON value -> config value; raises Malformed

_POSE = record(RigPose, field_list(position=POINT, look_at=POINT)).read


def _enum_map(enum: type[Enum], read: Reader, defaults: Mapping) -> Reader:
    """A map keyed by ``enum`` values; entries left out keep their defaults."""
    members = {m.value: m for m in enum}

    def read_map(value) -> dict:
        mapping = dict(defaults)
        for name, item in OBJECT.read(value).items():
            if name not in members:
                raise Malformed(f"has no entry {name!r}; expected one of {list(members)}")
            try:
                mapping[members[name]] = read(item)
            except Malformed as e:
                e.path.append("." + name)
                raise
        return mapping
    return read_map


class _Object(NamedTuple):
    """A JSON object of the format: what it builds, and a reader per accepted key."""

    build: Callable[..., object]
    keys: Dict[str, object]  # key -> Reader or nested _Object


def _record(cls, fields: tuple) -> _Object:
    """A record of the documents, read key by key through its field list."""
    return _Object(cls, {key: codec.read for key, _, codec in fields})


def _pipeline(cinematography: RigTable = DEFAULT_CONFIG.rig, **sections) -> PipelineConfig:
    return PipelineConfig(rig=cinematography, **sections)


_FORMAT = _Object(_pipeline, {
    "refinement": _Object(RefinementConfig, {
        "knn_k": INTEGER.read,
        "ma_window": INTEGER.read,
        "stabilization_deadband_px": NUMBER.read,
        "ball_outlier_threshold_m": NUMBER.read,
    }),
    "cinematography": _Object(RigTable, {
        "anchors": _enum_map(CameraAnchor, _POSE, DEFAULT_CONFIG.rig.anchors),
        "fov_deg": _enum_map(ShotSize, NUMBER.read, DEFAULT_CONFIG.rig.fov_deg),
        "follow_behind_m": NUMBER.read,
        "follow_height_m": NUMBER.read,
        "linear_speed_cap": NUMBER.read,
        "angular_rate_cap_deg": NUMBER.read,
        "warp_extent_s": NUMBER.read,
        "warp_factor": NUMBER.read,
        "arc_default_radius_m": NUMBER.read,
        "dense_keyframe_hz": NUMBER.read,
    }),
    "scoring": _record(ScoringRules, RULES_FIELDS),
    "export": _Object(ExportConfig, {
        "sample_rate_hz": NUMBER.read,
    }),
    "simulator": _Object(SimConfig, {
        "seed": INTEGER.read,
        "points": INTEGER.read,
        "pixel_noise_sigma_px": NUMBER.read,
        "dropout_rate": NUMBER.read,
        "quantize_pixels": BOOL.read,
        "fps": NUMBER.read,
        "width": INTEGER.read,
        "height": INTEGER.read,
        "camera": _record(CameraModel, CAMERA_FIELDS),
    }),
    "verify": _Object(VerifyBounds, {
        "ball_rmse_m": NUMBER.read,
        "player_rmse_m": NUMBER.read,
    }),
})


def _leaf(where: str, read: Reader, value):
    """``read(value)``; a value it rejects raises ConfigError naming ``where`` and the path inside."""
    try:
        return read(value)
    except Malformed as e:
        raise ConfigError(f"{where}{e.where()} {e}") from None


def _read(where: str, body, obj: _Object, warnings: List[str]):
    """Build ``obj`` from ``body``: read the keys it accepts, warn about the rest.

    A rule the built dataclass checks raises ConfigError naming ``where``, as
    in ``scoring is invalid: best_of must be 3 or 5, got 4``.
    """
    _leaf(where or "config document", OBJECT.read, body)
    values = {}
    for key in sorted(body):
        path = f"{where}.{key}" if where else key
        read = obj.keys.get(key)
        if read is None:
            warnings.append(f"unknown config key {where}.{key!r}" if where
                            else f"unknown config section {key!r}")
        elif isinstance(read, _Object):
            values[key] = _read(path, body[key], read, warnings)
        else:
            values[key] = _leaf(path, read, body[key])
    try:
        return obj.build(**values)
    except (ValidationError, ConfigError) as e:
        raise ConfigError(f"{where or 'config document'} is invalid: {e}") from None


def load_config(obj: dict) -> Tuple[PipelineConfig, List[str]]:
    """Build a PipelineConfig from a parsed JSON object.

    Returns the config plus the list of unknown-key warnings; unknown keys
    are never applied.
    """
    warnings: List[str] = []
    return _read("", obj, _FORMAT, warnings), warnings


def load_config_text(text: str) -> Tuple[PipelineConfig, List[str]]:
    try:
        obj = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"config file is not valid JSON: {e}") from None
    return load_config(obj)
