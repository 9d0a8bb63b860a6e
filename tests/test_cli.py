"""Command-line interface: exit codes, outputs, and determinism."""

import json

import pytest

from rallyforge import cli
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


@pytest.mark.parametrize("first_server", [7, {"x": [1]}, "nobody"],
                         ids=["number", "object", "unknown-name"])
def test_reconstruct_rejects_a_tiebreak_first_server_outside_a_tiebreak(
        tmp_path, capsys, first_server):
    clip, _ = _simulate(tmp_path, seed=5, points=1)
    doc = json.loads(clip.read_text())
    assert doc["header"]["score_before"]["tiebreak_points"] is None
    doc["header"]["score_before"]["tiebreak_first_server"] = first_server
    clip.write_text(json.dumps(doc))
    scene = tmp_path / "s.json"
    capsys.readouterr()
    assert main(["reconstruct", "--clip", str(clip), "--out", str(scene)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tiebreak_first_server must be null outside a tiebreak" in err
    assert not scene.exists()


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


def _drop_truth_player(clip_doc, truth_doc):
    del truth_doc["players"]["p2"]


def _add_clip_player(clip_doc, truth_doc):
    for frame in clip_doc["frames"]:
        frame["players"].append(dict(frame["players"][-1], id="p3"))


def _add_truth_player(clip_doc, truth_doc):
    truth_doc["players"]["p3"] = truth_doc["players"]["p2"]


# the scene's players must be the truth's: a player on one side only would
# otherwise go unscored and the report pass on part of the evidence
@pytest.mark.parametrize("edit, message", [
    (_drop_truth_player, "not in the scene [], not in the truth ['p2']"),
    (_add_clip_player, "not in the scene [], not in the truth ['p3']"),
    (_add_truth_player, "not in the scene ['p3'], not in the truth []"),
], ids=["truth-lacks-p2", "clip-adds-p3", "truth-adds-p3"])
def test_verify_rejects_a_player_on_one_side_only(tmp_path, capsys, edit, message):
    clip, truth = _simulate(tmp_path, seed=5, points=2)
    clip_doc, truth_doc = json.loads(clip.read_text()), json.loads(truth.read_text())
    edit(clip_doc, truth_doc)
    clip.write_text(json.dumps(clip_doc))
    truth.write_text(json.dumps(truth_doc))
    capsys.readouterr()
    code = main(["verify", "--clip", str(clip), "--truth", str(truth)])
    out = capsys.readouterr()
    assert code == 1
    assert out.err.startswith("error: scene and truth entities differ") and message in out.err
    assert '"pass"' not in out.out


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


def _first_keyframe(doc):
    return doc["points"][0]["keyframes"][0]


# truth documents round_trip_report cannot score (a traceback) or would
# score as a pass on no evidence
MALFORMED_TRUTH = {
    "empty-knot-list": lambda doc: doc["players"].update({sorted(doc["players"])[0]: []}),
    "point-without-keyframes": lambda doc: doc["points"][0].update(keyframes=[]),
    "zero-fps": lambda doc: doc.update(fps=0),
    "players-as-list": lambda doc: doc.update(players=list(doc["players"].values())),
    "huge-frame": lambda doc: _first_keyframe(doc).update(frame=10 ** 400),
    "huge-coordinate": lambda doc: _first_keyframe(doc).update(y=-10 ** 400),
    "nan-coordinate": lambda doc: _first_keyframe(doc).update(x=float("nan")),
    "no-players": lambda doc: doc.update(players={}),
    "fractional-seed": lambda doc: doc.update(seed=1.5),
    "string-focal-length": lambda doc: doc["camera"].update(focal_px="3000"),
    "boolean-camera-position": lambda doc: doc["camera"].update(position=[0.0, -45.0, True]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TRUTH))
def test_verify_malformed_truth_is_invalid_input(tmp_path, capsys, case):
    clip, truth = _simulate(tmp_path, seed=5, points=1)
    doc = json.loads(truth.read_text())
    MALFORMED_TRUTH[case](doc)
    truth.write_text(json.dumps(doc))  # NaN as Python's json writes it
    capsys.readouterr()
    code = main(["verify", "--clip", str(clip), "--truth", str(truth)])
    out = capsys.readouterr()
    assert code == 1
    assert out.err.splitlines() == [out.err.strip()]
    assert out.err.startswith("error: malformed ground-truth document")
    assert out.out == ""


def _rules(doc):
    return doc["score_before"]["rules"]


# a header value of the wrong JSON type, or an outcome for no point, is
# invalid input, in the clip or the truth
@pytest.mark.parametrize("document, edit, message", [
    ("clip", lambda doc: _rules(doc["header"]).update(best_of=3.0), "best_of must be 3 or 5, got 3.0"),
    ("clip", lambda doc: doc["header"].update(clip_id={"a": [1, 2]}), "header.clip_id must be a string"),
    ("clip", lambda doc: doc["header"].update(clip_id=5), "header.clip_id must be a string"),
    ("clip", lambda doc: doc["header"]["point_outcomes"].append(doc["header"]["point_outcomes"][0]),
     "point outcomes: the header lists 2, the clip has 1 points"),
    ("truth", lambda doc: _rules(doc["points"][0]).update(best_of=3.0),
     "malformed ground-truth document: best_of must be 3 or 5, got 3.0"),
], ids=["clip-float-best-of", "clip-object-id", "clip-number-id", "clip-extra-outcome",
        "truth-float-best-of"])
def test_verify_rejects_a_mistyped_header_value(tmp_path, capsys, document, edit, message):
    clip, truth = _simulate(tmp_path, seed=5, points=1)
    path = {"clip": clip, "truth": truth}[document]
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", "--clip", str(clip), "--truth", str(truth)])
    out = capsys.readouterr()
    assert code == 1
    assert out.err == f"error: {message}\n"
    assert out.out == ""


def test_verify_counts_a_nan_error_as_a_failure(tmp_path, capsys, monkeypatch):
    clip, truth = _simulate(tmp_path, seed=5, points=1)
    report = {"ball_rmse_m": float("nan"), "player_rmse_m": 0.0}
    monkeypatch.setattr(cli, "round_trip_report", lambda *args: dict(report))
    capsys.readouterr()
    code = main(["verify", "--clip", str(clip), "--truth", str(truth)])
    out = capsys.readouterr()
    assert code == 4
    assert json.loads(out.out.replace("NaN", "null"))["pass"] is False
    assert out.err.startswith("verify bound violated: ball_rmse_m nan")


@pytest.mark.parametrize("command", ["reconstruct", "verify-truth", "metrics", "config"])
def test_integer_too_long_to_parse_is_invalid_input(tmp_path, capsys, command):
    # json.loads refuses integers of more than 4300 digits with a bare ValueError
    clip, truth = _simulate(tmp_path, seed=5, points=1)
    scene = tmp_path / "scene.json"
    assert main(["reconstruct", "--clip", str(clip), "--out", str(scene)]) == 0
    huge = '{"n": 1' + "0" * 5000 + "}"
    args = {
        "reconstruct": ["reconstruct", "--clip", str(tmp_path / "huge.json"), "--out", str(scene)],
        "verify-truth": ["verify", "--clip", str(clip), "--truth", str(tmp_path / "huge.json")],
        "metrics": ["metrics", "--scene", str(tmp_path / "huge.json"), "--window", "match"],
        "config": ["reconstruct", "--clip", str(clip), "--out", str(scene),
                   "--config", str(tmp_path / "huge.json")],
    }[command]
    (tmp_path / "huge.json").write_text(huge)
    capsys.readouterr()
    assert main(args) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "4300 digits" in out.err


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
    (lambda doc: doc.update(sample_rate_hz=float("nan")),
     "error: malformed scene document: sample_rate_hz must be a finite number"),
    (lambda doc: doc.update(fps=float("nan")),
     "error: malformed scene document: fps must be a finite number"),
    (lambda doc: doc.update(fps=float("inf")),
     "error: malformed scene document: fps must be a finite number"),
    (lambda doc: doc.update(sample_rate_hz=0), "error: scene sample_rate_hz"),
    (lambda doc: doc.update(fps=-25.0), "error: scene fps"),
    (lambda doc: doc["cues"][0].update(anchor=5),
     "error: malformed scene document: cues[0].anchor must be"),
    (lambda doc: doc["cues"][0].update(payload=[]),
     "error: malformed scene document: cues[0].payload must be an object"),
], ids=["tracks-list", "metrics-list", "nan-rate", "nan-fps", "inf-fps", "zero-rate",
        "negative-fps", "number-anchor", "list-payload"])
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
