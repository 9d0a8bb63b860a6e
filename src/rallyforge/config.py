"""One JSON config file drives every pipeline stage.

Sections map one-to-one onto stage configs (refinement, cinematography,
scoring, export, simulator, verify). ``_FORMAT`` below is the whole config
format: every section, the dataclass it builds, and a typed reader for each
key. Loading walks that one table. Keys it does not list are never applied
and are reported in a warning list, so a typo like "ma_windw" surfaces
instead of silently running with defaults; a value of the wrong type raises
ConfigError naming its ``section.key``. Range checks live in each
dataclass's ``__post_init__``, so library callers get them too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Mapping, NamedTuple, Tuple

from .cinematography import CameraAnchor, RigPose, RigTable, ShotSize
from .court import CourtPoint
from .errors import ConfigError
from .ingest import is_finite_number
from .refine import RefinementConfig
from .scoring import ScoringRules
from .simulate import CameraModel, SimConfig


# 40 samples per frame of a 25 fps clip; a finer grid only grows the scene
# (at 1e7 Hz a 6 s clip exhausts memory).
MAX_SAMPLE_RATE_HZ = 1000.0


@dataclass(frozen=True)
class ExportConfig:
    sample_rate_hz: float = 50.0

    def __post_init__(self):
        if not 0 < self.sample_rate_hz <= MAX_SAMPLE_RATE_HZ:
            raise ConfigError(f"export.sample_rate_hz must lie in (0, {MAX_SAMPLE_RATE_HZ:g}] Hz, "
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


Reader = Callable[[str, object], object]  # (where, JSON value) -> config value


def _typed(accepts: Callable[[object], bool], what: str) -> Reader:
    """A reader that passes the values ``accepts`` approves and rejects the rest."""
    def read(where: str, value):
        if not accepts(value):
            raise ConfigError(f"{where} must be {what}, got {value!r}")
        return value
    return read


_finite = _typed(is_finite_number, "a finite number")
_integer = _typed(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_boolean = _typed(lambda v: isinstance(v, bool), "true or false")
_string = _typed(lambda v: isinstance(v, str), "a string")
_object = _typed(lambda v: isinstance(v, dict), "an object")


def _number(where: str, value) -> float:
    return float(_finite(where, value))


def _numbers(n: int) -> Reader:
    lists = _typed(lambda v: isinstance(v, list) and len(v) == n, f"a list of {n} numbers")
    return lambda where, value: tuple(_number(f"{where}[{i}]", v)
                                      for i, v in enumerate(lists(where, value)))


_point = _numbers(3)


def _pose(where: str, value) -> RigPose:
    entry = _object(where, value)
    return RigPose(*(CourtPoint(*_point(f"{where}.{key}", entry.get(key)))
                     for key in ("position", "look_at")))


def _keyed_by(enum: type[Enum], read: Reader, defaults: Mapping) -> Reader:
    """A map keyed by ``enum`` values; entries left out keep their defaults."""
    members = {m.value: m for m in enum}

    def read_map(where: str, value) -> dict:
        mapping = dict(defaults)
        for name, item in _object(where, value).items():
            if name not in members:
                raise ConfigError(f"{where} has no entry {name!r}; expected one of {list(members)}")
            mapping[members[name]] = read(f"{where}.{name}", item)
        return mapping
    return read_map


class _Object(NamedTuple):
    """A JSON object of the format: what it builds, and a reader per accepted key."""

    build: Callable[..., object]
    keys: Dict[str, object]  # key -> Reader or nested _Object


def _pipeline(cinematography: RigTable = DEFAULT_CONFIG.rig, **sections) -> PipelineConfig:
    return PipelineConfig(rig=cinematography, **sections)


_FORMAT = _Object(_pipeline, {
    "refinement": _Object(RefinementConfig, {
        "knn_k": _integer,
        "ma_window": _integer,
        "stabilization_deadband_px": _number,
        "ball_outlier_threshold_m": _number,
    }),
    "cinematography": _Object(RigTable, {
        "anchors": _keyed_by(CameraAnchor, _pose, DEFAULT_CONFIG.rig.anchors),
        "fov_deg": _keyed_by(ShotSize, _number, DEFAULT_CONFIG.rig.fov_deg),
        "follow_behind_m": _number,
        "follow_height_m": _number,
        "linear_speed_cap": _number,
        "angular_rate_cap_deg": _number,
        "warp_extent_s": _number,
        "warp_factor": _number,
        "arc_default_radius_m": _number,
        "dense_keyframe_hz": _number,
    }),
    "scoring": _Object(ScoringRules, {
        "best_of": _integer,
        "final_set_rule": _string,
    }),
    "export": _Object(ExportConfig, {
        "sample_rate_hz": _number,
    }),
    "simulator": _Object(SimConfig, {
        "seed": _integer,
        "points": _integer,
        "pixel_noise_sigma_px": _number,
        "dropout_rate": _number,
        "quantize_pixels": _boolean,
        "fps": _number,
        "width": _integer,
        "height": _integer,
        "camera": _Object(CameraModel, {
            "position": _point,
            "look_at": _point,
            "focal_px": _number,
            "principal": _numbers(2),
        }),
    }),
    "verify": _Object(VerifyBounds, {
        "ball_rmse_m": _number,
        "player_rmse_m": _number,
    }),
})


def _read(where: str, body, obj: _Object, warnings: List[str]):
    """Build ``obj`` from ``body``: read the keys it accepts, warn about the rest."""
    _object(where or "config document", body)
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
            values[key] = read(path, body[key])
    return obj.build(**values)


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
