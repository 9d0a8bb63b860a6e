"""Command-line interface: exit codes, outputs, and determinism."""

import json

import pytest

from rallyforge.cli import main

# ------------------------------------------------------------
# helpers
# ------------------------------------------------------------


def _simulate(tmp_path, seed=42, points=2, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    clip = tmp_path / f"clip{seed}.json"
    truth = tmp_path / f"truth{seed}.json"
    code = main(["simulate", "--seed", str(seed), "--points", str(points),
                 "--out", str(clip), "--truth", str(truth), *extra])
    assert code == 0
    return clip, truth


# ------------------------------------------------------------
# simulate
# ------------------------------------------------------------


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    a_clip, a_truth = _simulate(tmp_path / "a", seed=42)
    b_clip, b_truth = _simulate(tmp_path / "b", seed=42)
    assert a_clip.read_bytes() == b_clip.read_bytes()
    assert a_truth.read_bytes() == b_truth.read_bytes()
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("frames=") and "points=2" in line


def test_simulate_rejects_zero_points(tmp_path, capsys):
    code = main(["simulate", "--seed", "1", "--points", "0",
                 "--out", str(tmp_path / "c.json"), "--truth", str(tmp_path / "t.json")])
    assert code == 1
    assert "points must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_simulate_unwritable_output_is_an_io_error(tmp_path, capsys):
    code = main(["simulate", "--seed", "1", "--points", "1",
                 "--out", str(tmp_path / "missing_dir" / "c.json"),
                 "--truth", str(tmp_path / "t.json")])
    assert code == 2
    assert "error: cannot write" in capsys.readouterr().err


# ------------------------------------------------------------
# reconstruct
# ------------------------------------------------------------


def test_reconstruct_reports_and_is_deterministic(tmp_path, capsys):
    clip, _ = _simulate(tmp_path, seed=42)
    out_a = tmp_path / "scene_a.json"
    out_b = tmp_path / "scene_b.json"
    assert main(["reconstruct", "--clip", str(clip), "--out", str(out_a)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("points=2 events=")
    assert "camera_keyframes=" in line and "wall_ms=" in line
    assert main(["reconstruct", "--clip", str(clip), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_reconstruct_missing_clip_is_an_io_error(tmp_path, capsys):
    code = main(["reconstruct", "--clip", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "scene.json")])
    assert code == 2
    assert "error: cannot read" in capsys.readouterr().err


def test_reconstruct_rejects_short_keypoint_list(tmp_path, capsys):
    clip, _ = _simulate(tmp_path, seed=5, points=1)
    doc = json.loads(clip.read_text())
    doc["header"]["court_keypoints_px"] = doc["header"]["court_keypoints_px"][:13]
    clip.write_text(json.dumps(doc))
    code = main(["reconstruct", "--clip", str(clip), "--out", str(tmp_path / "s.json")])
    assert code == 1
    assert "court_keypoints_px" in capsys.readouterr().err


def test_reconstruct_malformed_clip_json_is_invalid_input(tmp_path, capsys):
    clip = tmp_path / "bad.json"
    clip.write_text("{bad")
    code = main(["reconstruct", "--clip", str(clip), "--out", str(tmp_path / "s.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON") and "line 1" in err
    assert not (tmp_path / "s.json").exists()


def test_unknown_config_keys_warn_on_stderr(tmp_path, capsys):
    clip, _ = _simulate(tmp_path, seed=5, points=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"refinement": {"ma_windw": 9}}')
    code = main(["reconstruct", "--clip", str(clip), "--out", str(tmp_path / "s.json"),
                 "--config", str(cfg)])
    assert code == 0
    assert "warning: unknown config key refinement.'ma_windw'" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    '{"cinematography": {"linear_speed_cap": "fast"}}',
    '{"cinematography": {"anchors": {"Corner": 5}}}',
])
def test_reconstruct_bad_cinematography_config_is_invalid_input(tmp_path, capsys, body):
    clip, _ = _simulate(tmp_path, seed=5, points=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    capsys.readouterr()
    code = main(["reconstruct", "--clip", str(clip), "--out", str(tmp_path / "s.json"),
                 "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()] and err.startswith("error: ")
    assert not (tmp_path / "s.json").exists()


# ------------------------------------------------------------
# verify
# ------------------------------------------------------------


def test_verify_passes_a_clean_round_trip(tmp_path, capsys):
    clip, truth = _simulate(tmp_path, seed=42)
    code = main(["verify", "--clip", str(clip), "--truth", str(truth)])
    out = capsys.readouterr()
    assert code == 0
    report = json.loads(out.out[out.out.index("{"):])
    assert report["pass"] is True
    assert report["ball_rmse_m"] <= 1e-9
    assert report["bounds"] == {"ball_rmse_m": 0.05, "player_rmse_m": 0.05}
    assert "per_axis" in report


def test_verify_fails_when_a_bound_is_violated(tmp_path, capsys):
    clip, truth = _simulate(tmp_path, seed=42)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"verify": {"ball_rmse_m": 1e-18}}')
    code = main(["verify", "--clip", str(clip), "--truth", str(truth),
                 "--config", str(cfg)])
    out = capsys.readouterr()
    assert code == 4
    assert "verify bound violated: ball_rmse_m" in out.err
    report = json.loads(out.out[out.out.index("{"):])
    assert report["pass"] is False


def test_verify_nan_bounds_are_invalid_input(tmp_path, capsys):
    clip, truth = _simulate(tmp_path, seed=42)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"verify": {"ball_rmse_m": NaN, "player_rmse_m": NaN}}')
    capsys.readouterr()
    code = main(["verify", "--clip", str(clip), "--truth", str(truth),
                 "--config", str(cfg)])
    out = capsys.readouterr()
    assert code == 1
    assert '"pass"' not in out.out
    assert out.err.startswith("error: verify.ball_rmse_m")


@pytest.mark.parametrize("rate_hz", [30.0, 60.0])
def test_export_rates_that_do_not_divide_the_clip_reconstruct_and_verify(
        tmp_path, capsys, rate_hz):
    clip, truth = _simulate(tmp_path, seed=42)
    frames = len(json.loads(clip.read_text())["frames"])
    assert frames % 5 != 1  # so the clip spans no whole number of 30 or 60 Hz steps
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"export": {"sample_rate_hz": rate_hz}}))
    scene = tmp_path / "scene.json"
    assert main(["reconstruct", "--clip", str(clip), "--out", str(scene),
                 "--config", str(cfg)]) == 0
    assert main(["verify", "--clip", str(clip), "--truth", str(truth),
                 "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["pass"] is True and report["ball_rmse_m"] <= 1e-9
    samples = json.loads(scene.read_text())["tracks"]["ball"]["samples"]
    end = (len(samples) - 1) / rate_hz
    assert (frames - 1) / 25.0 <= end < (frames - 1) / 25.0 + 1.0 / rate_hz


def test_verify_rejects_mismatched_truth(tmp_path, capsys):
    clip, _ = _simulate(tmp_path, seed=42, points=2)
    _, other_truth = _simulate(tmp_path, seed=7, points=3)
    code = main(["verify", "--clip", str(clip), "--truth", str(other_truth)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_verify_malformed_clip_json_is_invalid_input(tmp_path, capsys):
    _, truth = _simulate(tmp_path, seed=5, points=1)
    clip = tmp_path / "bad.json"
    clip.write_text("{bad")
    code = main(["verify", "--clip", str(clip), "--truth", str(truth)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: invalid JSON")


def test_verify_malformed_truth_json_is_invalid_input(tmp_path, capsys):
    clip, truth = _simulate(tmp_path, seed=5, points=1)
    truth.write_text('{"points": [')
    capsys.readouterr()
    code = main(["verify", "--clip", str(clip), "--truth", str(truth)])
    assert code == 1
    out = capsys.readouterr()
    assert out.err.splitlines() == [out.err.strip()]
    assert out.err.startswith("error: invalid truth JSON") and "line 1" in out.err
    assert out.out == ""


@pytest.mark.parametrize("key, value", [("kind", "Bogus"), ("spin", "Sidespin")])
def test_verify_bad_truth_enum_value_is_invalid_input(tmp_path, capsys, key, value):
    clip, truth = _simulate(tmp_path, seed=5, points=1)
    doc = json.loads(truth.read_text())
    contact = next(k for k in doc["points"][0]["keyframes"] if k["kind"] == "Contact")
    contact[key] = value
    truth.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", "--clip", str(clip), "--truth", str(truth)])
    assert code == 1
    out = capsys.readouterr()
    assert out.err.splitlines() == [out.err.strip()]
    assert out.err.startswith("error: malformed ground-truth document") and value in out.err
    assert out.out == ""


# ------------------------------------------------------------
# metrics
# ------------------------------------------------------------


@pytest.mark.parametrize("window,label", [("match", "MatchStart"), ("game", "CurrentGame")])
def test_metrics_prints_the_requested_window(tmp_path, capsys, window, label):
    clip, _ = _simulate(tmp_path, seed=42)
    scene = tmp_path / "scene.json"
    assert main(["reconstruct", "--clip", str(clip), "--out", str(scene)]) == 0
    capsys.readouterr()
    assert main(["metrics", "--scene", str(scene), "--window", window]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["window"] == label
    assert set(doc) == {"window", "counts", "percentages"}
    for per_zone in doc["percentages"].values():
        assert abs(sum(per_zone.values()) - 100.0) <= 0.1


def test_metrics_missing_scene_is_an_io_error(tmp_path, capsys):
    code = main(["metrics", "--scene", str(tmp_path / "none.json"), "--window", "match"])
    assert code == 2
    assert "error: cannot read" in capsys.readouterr().err


def _break_tracks(doc):
    doc["tracks"] = list(doc["tracks"].values())


def _break_metrics(doc):
    doc["points"][0]["metrics"] = list(doc["points"][0]["metrics"].values())


@pytest.mark.parametrize("edit, message", [
    (_break_tracks, "error: malformed scene document"),
    (_break_metrics, "error: malformed scene document"),
    (lambda doc: doc.update(sample_rate_hz=float("nan")), "error: scene sample_rate_hz"),
    (lambda doc: doc.update(fps=float("nan")), "error: scene fps"),
    (lambda doc: doc.update(fps=float("inf")), "error: scene fps"),
    (lambda doc: doc.update(sample_rate_hz=0), "error: scene sample_rate_hz"),
    (lambda doc: doc.update(fps=-25.0), "error: scene fps"),
], ids=["tracks-list", "metrics-list", "nan-rate", "nan-fps", "inf-fps", "zero-rate",
        "negative-fps"])
def test_metrics_malformed_scene_is_invalid_input(tmp_path, capsys, edit, message):
    clip, _ = _simulate(tmp_path, seed=42, points=1)
    scene = tmp_path / "scene.json"
    assert main(["reconstruct", "--clip", str(clip), "--out", str(scene)]) == 0
    doc = json.loads(scene.read_text())
    edit(doc)
    scene.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    capsys.readouterr()
    assert main(["metrics", "--scene", str(scene), "--window", "match"]) == 1
    out = capsys.readouterr()
    assert out.err.startswith(message) and out.err.count("\n") == 1
    assert out.out == ""
