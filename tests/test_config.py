"""Config loading: defaults, applied keys, and unknown-key warnings."""

import json
import re
from pathlib import Path

import pytest

from rallyforge.cli import main
from rallyforge.config import _FORMAT, DEFAULT_CONFIG, load_config, load_config_text
from rallyforge.errors import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config() -> dict:
    """The JSON block of the README's Configuration section."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```json\n", text.index("## Configuration")) + len("```json\n")
    return json.loads(text[start:text.index("```", start)])


def key_paths(fields: tuple, doc=None, prefix=""):
    """Dotted paths of a field list's keys, or of ``doc``'s keys read against it."""
    codecs = {key: codec for key, _, codec in fields}
    for key in (codecs if doc is None else doc):
        codec = codecs.get(key)
        if codec is not None and codec.fields:
            yield from key_paths(codec.fields, None if doc is None else doc[key], f"{prefix}{key}.")
        else:
            yield prefix + key

# ------------------------------------------------------------
# defaults
# ------------------------------------------------------------


def test_empty_config_gives_defaults():
    cfg, warnings = load_config({})
    assert warnings == []
    assert cfg.refinement == DEFAULT_CONFIG.refinement
    assert cfg.export.sample_rate_hz == 50.0
    assert cfg.verify.ball_rmse_m == 0.05
    assert cfg.verify.player_rmse_m == 0.05
    assert cfg.scoring.best_of == 5
    assert cfg.simulator.seed == 0


def test_known_keys_are_applied():
    cfg, warnings = load_config({
        "refinement": {"ma_window": 9, "knn_k": 3},
        "cinematography": {"linear_speed_cap": 1.5, "angular_rate_cap_deg": 10.0},
        "scoring": {"best_of": 5, "final_set_rule": "tiebreak_at_12"},
        "export": {"sample_rate_hz": 100.0},
        "simulator": {"seed": 7, "points": 2, "pixel_noise_sigma_px": 0.5,
                      "camera": {"focal_px": 2500.0}},
        "verify": {"ball_rmse_m": 0.02},
    })
    assert warnings == []
    assert cfg.refinement.ma_window == 9 and cfg.refinement.knn_k == 3
    assert cfg.rig.linear_speed_cap == 1.5
    assert cfg.rig.angular_rate_cap_deg == 10.0
    assert cfg.scoring.best_of == 5
    assert cfg.scoring.final_set_rule == "tiebreak_at_12"
    assert cfg.export.sample_rate_hz == 100.0
    assert cfg.simulator.seed == 7 and cfg.simulator.points == 2
    assert cfg.simulator.camera.focal_px == 2500.0
    assert cfg.verify.ball_rmse_m == 0.02
    assert cfg.verify.player_rmse_m == 0.05  # untouched


# ------------------------------------------------------------
# unknown keys
# ------------------------------------------------------------


def test_unknown_keys_warn_and_are_not_applied():
    cfg, warnings = load_config({
        "refinement": {"ma_windw": 99},
        "telemetry": {"enabled": True},
        "simulator": {"camera": {"roll_deg": 4.0}},
        "cinematography": {
            "pedestal_speed_cap": 1.0,  # removed with the Pedestal move
            "anchors": {"Corner": {"position": [9.0, -14.0, 5.0], "look_at": [0.0, 0.0, 1.0],
                                   "roll_deg": 3}},
        },
    })
    assert warnings == [
        "unknown config key cinematography.anchors.Corner.'roll_deg'",
        "unknown config key cinematography.'pedestal_speed_cap'",
        "unknown config key refinement.'ma_windw'",
        "unknown config key simulator.camera.'roll_deg'",
        "unknown config section 'telemetry'",
    ]
    assert cfg.refinement.ma_window == 5  # the typo changed nothing
    assert cfg.simulator.camera == DEFAULT_CONFIG.simulator.camera


def test_warnings_are_sorted_and_stable():
    doc = {"b_section": {}, "a_section": {}, "export": {"rate": 1, "sample_rate_hz": 60.0}}
    cfg, warnings = load_config(doc)
    assert warnings == [
        "unknown config section 'a_section'",
        "unknown config section 'b_section'",
        "unknown config key export.'rate'",
    ]
    assert cfg.export.sample_rate_hz == 60.0


# ------------------------------------------------------------
# malformed input
# ------------------------------------------------------------


def test_malformed_documents_raise():
    with pytest.raises(ConfigError):
        load_config(["not", "an", "object"])
    with pytest.raises(ConfigError):
        load_config({"export": "fast"})
    with pytest.raises(ConfigError):
        load_config({"export": {"sample_rate_hz": -5.0}})
    with pytest.raises(ConfigError):
        load_config({"verify": {"ball_rmse_m": 0.0}})
    with pytest.raises(ConfigError, match="^scoring is invalid: best_of must be 3 or 5, got 4$"):
        load_config({"scoring": {"best_of": 4}})
    with pytest.raises(ConfigError, match="JSON"):
        load_config_text("{broken")


@pytest.mark.parametrize("section", [
    {"linear_speed_cap": "fast"},
    {"angular_rate_cap_deg": float("nan")},  # NaN slips past the "<= 0" rejection
    {"warp_factor": None},
    {"anchors": ["Corner"]},
    {"anchors": {"Corner": 5}},
    {"anchors": {"Corner": [9.0, -14.0, 5.0]}},
    {"anchors": {"Corner": {"position": "high", "look_at": [0.0, 0.0, 1.0]}}},
    {"anchors": {"Corner": {"position": [9.0, -14.0, 5.0, 1.0], "look_at": [0.0, 0.0, 1.0]}}},
    {"anchors": {"Corner": {"position": [9.0, -14.0, 5.0], "look_at": [0.0, None, 1.0]}}},
    {"fov_deg": [75.0]},
    {"fov_deg": {"Wide": "narrow"}},
])
def test_bad_cinematography_values_raise_config_error(section):
    with pytest.raises(ConfigError):
        load_config({"cinematography": section})


# Keys of every reader kind, each given a value of the wrong type; NaN and
# "no" would otherwise pass as a bound or switch a flag on.
@pytest.mark.parametrize("body,key", [
    ('{"verify": {"ball_rmse_m": NaN, "player_rmse_m": NaN}}', "verify.ball_rmse_m"),
    ('{"verify": {"player_rmse_m": "x"}}', "verify.player_rmse_m"),
    ('{"export": {"sample_rate_hz": "x"}}', "export.sample_rate_hz"),
    ('{"export": {"sample_rate_hz": 1' + "0" * 400 + '}}', "export.sample_rate_hz"),
    ('{"export": {"sample_rate_hz": 1e7}}', "export is invalid: sample_rate_hz"),
    ('{"cinematography": {"dense_keyframe_hz": 1e6}}',
     "cinematography is invalid: dense_keyframe_hz"),
    ('{"refinement": {"stabilization_deadband_px": "1.0"}}',
     "refinement.stabilization_deadband_px"),
    ('{"refinement": {"knn_k": true}}', "refinement.knn_k"),
    ('{"simulator": {"fps": "25"}}', "simulator.fps"),
    ('{"simulator": {"width": "1920"}}', "simulator.width"),
    ('{"simulator": {"camera": {"focal_px": "3000"}}}', "simulator.camera.focal_px"),
    ('{"simulator": {"quantize_pixels": "no"}}', "simulator.quantize_pixels"),
    ('{"simulator": {"seed": true}}', "simulator.seed"),
    ('{"scoring": {"final_set_rule": 6}}', "scoring.final_set_rule"),
    ('{"cinematography": {"fov_deg": {"Wide": "narrow"}}}', "cinematography.fov_deg.Wide"),
])
def test_malformed_values_exit_1_naming_their_key(tmp_path, capsys, body, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    code = main(["reconstruct", "--clip", str(tmp_path / "never_read.json"),
                 "--out", str(tmp_path / "s.json"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [err.strip()] and err.startswith("error: ")
    assert re.search(rf"\b{re.escape(key)}\b", err)


# Values of the right type that break a rule the section's dataclass checks.
@pytest.mark.parametrize("body,message", [
    ('{"scoring": {"best_of": 4}}', "scoring is invalid: best_of must be 3 or 5, got 4"),
    ('{"scoring": {"final_set_rule": "sudden"}}',
     "scoring is invalid: unknown final_set_rule: 'sudden'"),
    ('{"verify": {"ball_rmse_m": -1}}', "verify is invalid: ball_rmse_m bound must be positive"),
    ('{"simulator": {"fps": 5e307}}',
     "simulator is invalid: fps must lie in [1, 100000], got 5e+307"),
    # rig rules that reconstruct would otherwise break halfway through a clip
    ('{"cinematography": {"follow_height_m": -1}}',
     "cinematography is invalid: follow_height_m must be positive"),
    ('{"cinematography": {"anchors": {"Baseline": {"position": [0, -18, 6], '
     '"look_at": [0, -18, 6]}}}}',
     "cinematography is invalid: anchor Baseline must not look at its own position"),
    ('{"cinematography": {"anchors": {"Baseline": {"position": [0, -18, 0.3], '
     '"look_at": [0, -16, -3]}}}}',
     "cinematography is invalid: anchor Baseline must stay above the ground over a 2 m dolly"),
    ('{"cinematography": {"anchors": {"Corner": {"position": [8, -14, 0], '
     '"look_at": [0, 0, 1]}}}}',
     "cinematography is invalid: anchor Corner must sit above the ground"),
])
def test_out_of_range_values_exit_1_naming_their_section(tmp_path, capsys, body, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    code = main(["reconstruct", "--clip", str(tmp_path / "never_read.json"),
                 "--out", str(tmp_path / "s.json"), "--config", str(cfg)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_numbers_are_stored_as_floats():
    cfg, _ = load_config({"export": {"sample_rate_hz": 50}, "simulator": {"fps": 25}})
    assert cfg == DEFAULT_CONFIG
    assert isinstance(cfg.export.sample_rate_hz, float)


def test_readme_config_block_is_the_whole_format_at_its_defaults():
    doc = readme_config()
    cfg, warnings = load_config(doc)
    assert warnings == []
    assert cfg == DEFAULT_CONFIG
    # the FollowCam pose is derived from the tracked player, never configured
    follow_cam = {f"cinematography.anchors.FollowCam.{key}" for key in ("position", "look_at")}
    assert set(key_paths(_FORMAT, doc)) == set(key_paths(_FORMAT)) - follow_cam


def test_config_text_round_trip():
    cfg, warnings = load_config_text('{"scoring": {"best_of": 5}}')
    assert warnings == []
    assert cfg.scoring.best_of == 5
