"""rallyforge: broadcast tennis tracking to renderable 3D scene timelines."""

__version__ = "0.1.0"

from .court import (
    COURT,
    CourtModel,
    CourtPoint,
    Phase,
    ZoneId,
    classify_zone,
    reference_keypoints,
)
from .errors import (
    CalibrationError,
    ConfigError,
    ParseError,
    PlanningError,
    RallyForgeError,
    ValidationError,
)
from .ingest import (
    Clip,
    EventKind,
    PointOutcome,
    SpinType,
    clip_from_dict,
    parse_clip,
    to_court_space,
)
from .refine import RefinementConfig
from .scoring import ScoreState, ScoringRules, advance_score, new_match
from .projection import Correspondence, Homography, estimate_homography
from .cinematography import (
    CameraAnchor,
    CameraTimeline,
    RigTable,
    compile_camera_timeline,
    evaluate_camera_pose,
)
from .viz_cues import (CueKind, VizCue, generate_dynamic_cues, generate_static_cues,
                       shot_polylines)
from .scene_metrics import MetricsWindow, ZoneMetrics, compute_zone_metrics
from .simulate import (
    GroundTruthRally,
    SimConfig,
    round_trip_report,
    simulate_clip,
    simulate_rally,
)
from .scene import SceneTimeline, parse_scene, serialize_scene
from .pipeline import reconstruct_scene
from .config import DEFAULT_CONFIG, PipelineConfig, load_config, load_config_text

__all__ = [
    "COURT",
    "CourtModel",
    "CourtPoint",
    "Phase",
    "ZoneId",
    "classify_zone",
    "reference_keypoints",
    "RallyForgeError",
    "ValidationError",
    "ParseError",
    "ConfigError",
    "CalibrationError",
    "PlanningError",
    "Clip",
    "EventKind",
    "SpinType",
    "parse_clip",
    "clip_from_dict",
    "to_court_space",
    "RefinementConfig",
    "PointOutcome",
    "ScoreState",
    "ScoringRules",
    "advance_score",
    "new_match",
    "Correspondence",
    "Homography",
    "estimate_homography",
    "CameraAnchor",
    "CameraTimeline",
    "RigTable",
    "compile_camera_timeline",
    "evaluate_camera_pose",
    "CueKind",
    "VizCue",
    "generate_dynamic_cues",
    "generate_static_cues",
    "shot_polylines",
    "MetricsWindow",
    "ZoneMetrics",
    "compute_zone_metrics",
    "GroundTruthRally",
    "SimConfig",
    "simulate_rally",
    "simulate_clip",
    "round_trip_report",
    "SceneTimeline",
    "parse_scene",
    "serialize_scene",
    "reconstruct_scene",
    "PipelineConfig",
    "DEFAULT_CONFIG",
    "load_config",
    "load_config_text",
    "__version__",
]
