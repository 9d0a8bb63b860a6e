"""One JSON config file drives every pipeline stage.

Sections map one-to-one onto stage configs (refinement, cinematography,
scoring, export, simulator, verify). ``_FORMAT`` below is the whole format:
a field list of sections, each a ``record`` of the dataclass it builds with a
codec from ``fields`` per key (``simulator.camera`` reads ``CameraModel``'s
own field list, ``scoring`` the rules' field list a score state reads).
``fields.read_fields`` reads the document through it, every key optional and
each list in key order: a value of the wrong type raises ConfigError naming
its path (the first such value in key order), as in ``simulator.camera.focal_px
must be a finite number, got '3000'``. Range checks live in each dataclass's
``__post_init__``, so library callers get them too; one a section breaks is
reported under that section, as in ``export is invalid: sample_rate_hz must
lie in (0, 1000] Hz, got 10000000.0``. A walk over the same lists warns about
each key they do not name, at any depth, and never applies it, so a typo like
"ma_windw" surfaces instead of silently running with defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Mapping, Tuple

from .cinematography import CameraAnchor, RigPose, RigTable, ShotSize
from .errors import ConfigError
from .fields import (BOOL, INTEGER, NUMBER, OBJECT, POINT, Codec, Malformed, defaulted,
                     field_list, located, read_fields, record)
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


_POSE = record(RigPose, field_list(position=POINT, look_at=POINT))


def _enum_map(enum: type[Enum], codec: Codec, defaults: Mapping) -> Codec:
    """A map keyed by ``enum`` values, one field per member; entries left out keep defaults."""
    members = {m.value: m for m in enum}

    def read_map(value) -> dict:
        mapping = dict(defaults)
        for name, item in OBJECT.read(value).items():
            if name not in members:
                raise Malformed(f"has no entry {name!r}; expected one of {list(members)}")
            try:
                mapping[members[name]] = codec.read(item)
            except Malformed as e:
                e.path.append("." + name)
                raise
        return mapping
    return Codec(None, read_map, fields=field_list(**dict.fromkeys(members, codec)))


def _optional(fields: tuple) -> tuple:
    """``fields`` in key order, each key optional."""
    return tuple(sorted((key, attr, defaulted(codec)) for key, attr, codec in fields))


def _section(cls, fields: tuple) -> Codec:
    return defaulted(record(cls, _optional(fields)))


_FORMAT = _optional((
    ("cinematography", "rig", _section(RigTable, field_list(
        anchors=_enum_map(CameraAnchor, _POSE, DEFAULT_CONFIG.rig.anchors),
        fov_deg=_enum_map(ShotSize, NUMBER, DEFAULT_CONFIG.rig.fov_deg),
        follow_behind_m=NUMBER, follow_height_m=NUMBER, linear_speed_cap=NUMBER,
        angular_rate_cap_deg=NUMBER, warp_extent_s=NUMBER, warp_factor=NUMBER,
        arc_default_radius_m=NUMBER, dense_keyframe_hz=NUMBER))),
    *field_list(
        refinement=_section(RefinementConfig, field_list(
            knn_k=INTEGER, ma_window=INTEGER, stabilization_deadband_px=NUMBER)),
        scoring=_section(ScoringRules, RULES_FIELDS),
        export=_section(ExportConfig, field_list(sample_rate_hz=NUMBER)),
        simulator=_section(SimConfig, field_list(
            seed=INTEGER, points=INTEGER, pixel_noise_sigma_px=NUMBER, dropout_rate=NUMBER,
            quantize_pixels=BOOL, fps=NUMBER, width=INTEGER, height=INTEGER,
            camera=_section(CameraModel, CAMERA_FIELDS))),
        verify=_section(VerifyBounds, field_list(ball_rmse_m=NUMBER, player_rmse_m=NUMBER))),
))


def _unknown_keys(fields: tuple, body: dict, prefix: str = ""):
    """A warning for each key of ``body``, at any depth, that its field list does not name."""
    codecs = {key: codec for key, _, codec in fields}
    for key in sorted(body):
        codec = codecs.get(key)
        if codec is None:
            yield (f"unknown config key {prefix}{key!r}" if prefix
                   else f"unknown config section {key!r}")
        elif codec.fields:
            yield from _unknown_keys(codec.fields, body[key], f"{prefix}{key}.")


def load_config(obj: dict) -> Tuple[PipelineConfig, List[str]]:
    """Build a PipelineConfig from a parsed JSON object.

    Returns the config plus the list of unknown-key warnings; unknown keys
    are never applied.
    """
    try:
        config = PipelineConfig(**read_fields(_FORMAT, obj))
    except Malformed as e:
        raise ConfigError(located(e, "config document")) from None
    return config, list(_unknown_keys(_FORMAT, obj))


def load_config_text(text: str) -> Tuple[PipelineConfig, List[str]]:
    try:
        obj = json.loads(text)
    # JSONDecodeError, an integer of too many digits, or nesting too deep to decode
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"config file is not valid JSON: {e}") from None
    return load_config(obj)
