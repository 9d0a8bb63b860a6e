"""One JSON config file drives every pipeline stage.

Sections map one-to-one onto stage configs (refinement, cinematography,
scoring, export, simulator, verify). Keys nobody consumes are rejected:
they are left unapplied and reported in a warning list, so a typo like
"ma_windw" surfaces instead of silently running with defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Tuple

from .cinematography import RigTable
from .errors import ConfigError
from .refine import RefinementConfig
from .scoring import ScoringRules
from .simulate import SimConfig

_REFINEMENT_KEYS = {"knn_k", "ma_window", "stabilization_deadband_px",
                    "ball_outlier_threshold_m"}
_CINEMATOGRAPHY_KEYS = {"anchors", "fov_deg", "follow_behind_m", "follow_height_m",
                        "linear_speed_cap", "angular_rate_cap_deg", "warp_extent_s",
                        "warp_factor", "arc_default_radius_m", "dense_keyframe_hz"}
_SCORING_KEYS = {"best_of", "final_set_rule"}
_EXPORT_KEYS = {"sample_rate_hz"}
_SIMULATOR_KEYS = {"seed", "points", "pixel_noise_sigma_px", "dropout_rate",
                   "quantize_pixels", "fps", "width", "height", "camera"}
_CAMERA_KEYS = {"position", "look_at", "focal_px", "principal"}
_VERIFY_KEYS = {"ball_rmse_m", "player_rmse_m"}

_SECTIONS = {
    "refinement": _REFINEMENT_KEYS,
    "cinematography": _CINEMATOGRAPHY_KEYS,
    "scoring": _SCORING_KEYS,
    "export": _EXPORT_KEYS,
    "simulator": _SIMULATOR_KEYS,
    "verify": _VERIFY_KEYS,
}


@dataclass(frozen=True)
class ExportConfig:
    sample_rate_hz: float = 50.0

    def __post_init__(self):
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ConfigError("sample_rate_hz must be positive")


@dataclass(frozen=True)
class VerifyBounds:
    """Round-trip error bounds the verify command enforces."""

    ball_rmse_m: float = 0.05
    player_rmse_m: float = 0.05

    def __post_init__(self):
        for name in ("ball_rmse_m", "player_rmse_m"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} bound must be positive")


@dataclass(frozen=True)
class PipelineConfig:
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    rig: RigTable = field(default_factory=RigTable)
    scoring: ScoringRules = field(default_factory=ScoringRules)
    export: ExportConfig = field(default_factory=ExportConfig)
    simulator: SimConfig = field(default_factory=lambda: SimConfig(seed=0))
    verify: VerifyBounds = field(default_factory=VerifyBounds)


def _scan_unknown_keys(obj: dict) -> List[str]:
    warnings = []
    for section in sorted(obj):
        if section not in _SECTIONS:
            warnings.append(f"unknown config section {section!r}")
            continue
        body = obj[section]
        if not isinstance(body, dict):
            continue  # shape errors surface when the section is applied
        for key in sorted(body):
            if key not in _SECTIONS[section]:
                warnings.append(f"unknown config key {section}.{key!r}")
        if section == "simulator" and isinstance(body.get("camera"), dict):
            for key in sorted(body["camera"]):
                if key not in _CAMERA_KEYS:
                    warnings.append(f"unknown config key simulator.camera.{key!r}")
    return warnings


def _known_subset(body: dict, keys) -> dict:
    return {k: v for k, v in body.items() if k in keys}


def load_config(obj: dict) -> Tuple[PipelineConfig, List[str]]:
    """Build a PipelineConfig from a parsed JSON object.

    Returns the config plus the list of unknown-key warnings; unknown keys
    are never applied.
    """
    if not isinstance(obj, dict):
        raise ConfigError("config document must be a JSON object")
    warnings = _scan_unknown_keys(obj)

    def section(name: str) -> dict:
        body = obj.get(name, {})
        if not isinstance(body, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        return _known_subset(body, _SECTIONS[name])

    refinement = RefinementConfig(**section("refinement"))
    rig = RigTable.from_dict(section("cinematography"))
    scoring = ScoringRules.from_dict(section("scoring"))
    export = ExportConfig(**section("export"))
    sim_body = dict(section("simulator"))
    if "camera" in sim_body and isinstance(sim_body["camera"], dict):
        sim_body["camera"] = _known_subset(sim_body["camera"], _CAMERA_KEYS)
    sim_body.setdefault("seed", 0)
    simulator = SimConfig.from_dict(sim_body)
    verify = VerifyBounds(**section("verify"))
    return PipelineConfig(refinement=refinement, rig=rig, scoring=scoring,
                          export=export, simulator=simulator, verify=verify), warnings


def load_config_text(text: str) -> Tuple[PipelineConfig, List[str]]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}") from None
    return load_config(obj)


DEFAULT_CONFIG = PipelineConfig()
