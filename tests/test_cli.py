"""Command-line interface: exit codes, outputs, and determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rallyforge import cli
from rallyforge.cli import main
from rallyforge.ingest import clip_from_dict, to_court_space

from test_ingest import make_clip_dict

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


@pytest.mark.parametrize("fps", ["5e307", "1e308", "1000000.5", "1e6", "inf", "nan"])
def test_simulate_rejects_an_fps_beyond_any_camera(tmp_path, capsys, fps):
    # 5e307 once overflowed the pad walk's frame count, and 1e308 wrote NaN
    # pixels; a 1e6 fps clip once stopped reconstruct with an internal error
    code = main(["simulate", "--seed", "1", "--fps", fps,
                 "--out", str(tmp_path / "c.json"), "--truth", str(tmp_path / "t.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: fps must lie in [1, 100000], got ") and err.count("\n") == 1
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


def test_scoring_config_sets_the_simulated_match_and_not_the_reconstruction(tmp_path, capsys):
    # reconstruct and verify read the rules from the clip header's
    # score_before.rules; the config's scoring section reaches only simulate
    clip, truth = _simulate(tmp_path, seed=4, points=6)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scoring": {"best_of": 3, "final_set_rule": "tiebreak_at_12"}}))
    plain, configured = tmp_path / "plain.json", tmp_path / "configured.json"
    assert main(["reconstruct", "--clip", str(clip), "--out", str(plain)]) == 0
    assert main(["reconstruct", "--clip", str(clip), "--out", str(configured),
                 "--config", str(cfg)]) == 0
    assert configured.read_bytes() == plain.read_bytes()
    assert json.loads(plain.read_text())["score_timeline"][0]["rules"]["best_of"] == 5
    capsys.readouterr()
    assert main(["verify", "--clip", str(clip), "--truth", str(truth)]) == 0
    plain_report = capsys.readouterr().out
    assert main(["verify", "--clip", str(clip), "--truth", str(truth), "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == plain_report

    sim_clip, _ = _simulate(tmp_path / "configured", seed=4, points=6,
                            extra=("--config", str(cfg)))
    rules = json.loads(sim_clip.read_text())["header"]["score_before"]["rules"]
    assert rules == {"best_of": 3, "final_set_rule": "tiebreak_at_12"}


def test_reconstruct_refuses_a_contact_height_that_overflows(tmp_path):
    # a finite Contact height so large that the launch velocity overflows to
    # -inf: the segment is refused with exit 1, and no NaN height is evaluated
    clip, _ = _simulate(tmp_path, seed=0, points=2)
    doc = json.loads(clip.read_text())
    doc["keyframe_annotations"][0]["height_m"] = 1.7e308
    clip.write_text(json.dumps(doc))
    # a child process, so that a RuntimeWarning would reach its real stderr
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "rallyforge.cli", "reconstruct", "--clip", str(clip),
         "--out", str(tmp_path / "s.json")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])})
    assert run.returncode == 1
    assert "RuntimeWarning" not in run.stderr
    assert run.stderr == ("error: point 0: keyframe 0 (Contact) starts a segment whose v0 "
                          "is not finite (-inf)\n")
    assert not (tmp_path / "s.json").exists()


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


# on this 603-frame clip, 1e-300 fps once overflowed np.arange in the export
# grid (a traceback), 0.5 wrote an 18 MB scene (0.5 MB at 25 fps), and 1e6
# ended with exit 3 ("an earlier shot stretched into a live span")
@pytest.mark.parametrize("fps", [1e-300, 0.5, 1e6])
def test_reconstruct_rejects_an_fps_outside_the_range(tmp_path, capsys, fps):
    clip, _ = _simulate(tmp_path, seed=1, points=3)
    doc = json.loads(clip.read_text())
    doc["header"]["fps"] = fps
    clip.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["reconstruct", "--clip", str(clip), "--out", str(tmp_path / "s.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: header is invalid: fps must lie in [1, 100000], got {fps!r}\n")
    assert not (tmp_path / "s.json").exists()


def _write_small_clip(tmp_path, edit):
    doc, _, _ = make_clip_dict()
    edit(doc)
    clip = tmp_path / "clip.json"
    clip.write_text(json.dumps(doc))
    return clip


def _horizon_pixel(doc):
    """A pixel on the horizon of the clip's calibration, which unprojects to infinity."""
    minv = np.linalg.inv(to_court_space(clip_from_dict(doc)).homography.matrix)
    u = 960.0
    return [u, -(minv[2, 2] + minv[2, 0] * u) / minv[2, 1]]


def test_reconstruct_rejects_a_player_pixel_at_infinity(tmp_path, capsys):
    # the ball and the players are lifted in one pass; the player's sample
    # still fails with the calibration error
    def edit(doc):
        doc["frames"][3]["players"][1]["foot_px"] = _horizon_pixel(doc)

    clip = _write_small_clip(tmp_path, edit)
    code = main(["reconstruct", "--clip", str(clip), "--out", str(tmp_path / "s.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: a tracked sample unprojects to infinity under this calibration\n")


def test_reconstruct_rejects_a_clip_whose_only_player_is_never_seen(tmp_path, capsys):
    def edit(doc):
        for frame in doc["frames"]:
            frame["players"] = [{"id": "p1", "foot_px": None}]

    clip = _write_small_clip(tmp_path, edit)
    code = main(["reconstruct", "--clip", str(clip), "--out", str(tmp_path / "s.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: gap filling needs at least k=5 present samples, got 0\n")


@pytest.mark.parametrize("fps", ["1", "1e5"])
def test_reconstruct_reads_a_clip_at_either_end_of_the_fps_range(tmp_path, capsys, fps):
    clip, _ = _simulate(tmp_path, seed=1, points=3, extra=["--fps", fps])
    assert main(["reconstruct", "--clip", str(clip), "--out", str(tmp_path / "s.json")]) == 0


# a value of the wrong type is named by its path before the rule is checked
@pytest.mark.parametrize("first_server, message", [
    (7, "header.score_before.tiebreak_first_server must be a string, got 7"),
    ({"x": [1]}, "header.score_before.tiebreak_first_server must be a string, got {'x': [1]}"),
    ("nobody", "header.score_before is invalid: "
               "tiebreak_first_server must be null outside a tiebreak, got 'nobody'"),
], ids=["number", "object", "unknown-name"])
def test_reconstruct_rejects_a_tiebreak_first_server_outside_a_tiebreak(
        tmp_path, capsys, first_server, message):
    clip, _ = _simulate(tmp_path, seed=5, points=1)
    doc = json.loads(clip.read_text())
    assert doc["header"]["score_before"]["tiebreak_points"] is None
    doc["header"]["score_before"]["tiebreak_first_server"] = first_server
    clip.write_text(json.dumps(doc))
    scene = tmp_path / "s.json"
    capsys.readouterr()
    assert main(["reconstruct", "--clip", str(clip), "--out", str(scene)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not scene.exists()


# each a score that no sequence of points reaches from the start of a match
@pytest.mark.parametrize("score, message", [
    (dict(games={"p1": 6, "p2": 6}, tiebreak_points={"p1": 2, "p2": 3},
          tiebreak_first_server="p2", points={"p1": "30", "p2": "15"}),
     "points must be 0-0 in a tiebreak, got 30-15"),
    (dict(games={"p1": 2, "p2": 1}, tiebreak_points={"p1": 0, "p2": 0},
          tiebreak_first_server="p1"),
     "a tiebreak runs exactly at games 6-6, got one at games 2-1"),
    (dict(games={"p1": 6, "p2": 6}, tiebreak_points={"p1": 1, "p2": 0},
          tiebreak_first_server="p1"),
     "tiebreak points 1-0 are served by 'p2', got 'p1'"),
    (dict(games={"p1": 9, "p2": 0}), "games 9-0 already won the set"),
    (dict(sets={"p1": 3, "p2": 0}), "sets 3-0 already won the match, but winner is null"),
    (dict(points={"p1": "Adv", "p2": "0"}), "points Adv-0 already won the game"),
], ids=["points-in-tiebreak", "tiebreak-at-2-1", "tiebreak-server", "games-9-0", "sets-3-0",
        "adv-0"])
def test_reconstruct_refuses_a_score_no_points_reach(tmp_path, capsys, score, message):
    clip, _ = _simulate(tmp_path, seed=3, points=3)
    doc = json.loads(clip.read_text())
    assert doc["header"]["score_before"]["server"] == "p1"
    doc["header"]["score_before"].update(score)
    clip.write_text(json.dumps(doc))
    scene = tmp_path / "s.json"
    capsys.readouterr()
    assert main(["reconstruct", "--clip", str(clip), "--out", str(scene)]) == 1
    assert capsys.readouterr().err == f"error: header.score_before is invalid: {message}\n"
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


def _huge_ball_height(doc):
    doc["points"][0]["keyframes"][0]["z"] = 1e200


def _huge_player_x(doc):
    doc["players"]["p1"][4][1] = 1e300


# an error too large for a float is Infinity in the report, and no numpy
# warning is printed before it
@pytest.mark.parametrize("edit, metric", [(_huge_ball_height, "ball_rmse_m"),
                                          (_huge_player_x, "player_rmse_m")],
                         ids=["ball-z", "player-x"])
def test_verify_reports_an_overflowing_error_without_a_warning(tmp_path, capsys, edit, metric):
    clip, truth = _simulate(tmp_path, seed=3, points=3)
    doc = json.loads(truth.read_text())
    edit(doc)
    truth.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", "--clip", str(clip), "--truth", str(truth)])
    out = capsys.readouterr()
    assert code == 4
    assert [w.category for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert json.loads(out.out.replace("Infinity", '"inf"'))[metric] == "inf"
    assert out.err == f"verify bound violated: {metric} inf > 0.05\n"


def test_verify_fails_on_no_evidence(tmp_path, capsys):
    # at 1e5 fps the clip lasts 1.6 ms, and no sample of the 50 Hz export
    # grid falls inside its one point, so no ball sample is scored
    clip, truth = _simulate(tmp_path, seed=1, points=1, extra=["--fps", "1e5"])
    capsys.readouterr()
    code = main(["verify", "--clip", str(clip), "--truth", str(truth)])
    out = capsys.readouterr()
    assert code == 4
    report = json.loads(out.out)
    assert report["ball_samples"] == 0 and report["ball_rmse_m"] == 0.0
    assert report["player_samples"] > 0
    assert report["pass"] is False
    assert out.err == "verify has no evidence: ball_samples is 0\n"


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


def _first_point(doc):
    return doc["points"][0]


def _first_keyframe(doc):
    return _first_point(doc)["keyframes"][0]


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
    # a falsy spin is not a missing one
    "zero-spin": lambda doc: _first_keyframe(doc).update(spin=0),
    "false-spin": lambda doc: _first_keyframe(doc).update(spin=False),
    "empty-string-spin": lambda doc: _first_keyframe(doc).update(spin=""),
    "empty-list-spin": lambda doc: _first_keyframe(doc).update(spin=[]),
    "empty-object-spin": lambda doc: _first_keyframe(doc).update(spin={}),
    # rules that join a point's fields
    "end-before-start": lambda doc: _first_point(doc).update(
        end_frame=_first_point(doc)["start_frame"] - 1),
    "start-after-first-keyframe": lambda doc: _first_point(doc).update(
        start_frame=_first_keyframe(doc)["frame"] + 1),
    "end-before-last-keyframe": lambda doc: _first_point(doc).update(
        end_frame=_first_point(doc)["keyframes"][-1]["frame"] - 1),
    "reversed-keyframes": lambda doc: _first_point(doc)["keyframes"].reverse(),
    "misnumbered-point": lambda doc: _first_point(doc).update(index=1),
    # rules that join the document's fields
    "no-frames": lambda doc: doc.update(n_frames=0),
    "point-past-the-clip": lambda doc: _first_point(doc).update(end_frame=doc["n_frames"]),
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
    ("clip", lambda doc: _rules(doc["header"]).update(best_of=3.0),
     "header.score_before.rules.best_of must be an integer, got 3.0"),
    ("clip", lambda doc: doc["header"].update(clip_id={"a": [1, 2]}),
     "header.clip_id must be a string, got {'a': [1, 2]}"),
    ("clip", lambda doc: doc["header"].update(clip_id=5), "header.clip_id must be a string, got 5"),
    ("clip", lambda doc: doc["header"]["point_outcomes"].append(doc["header"]["point_outcomes"][0]),
     "point outcomes: the header lists 2, the clip has 1 points"),
    ("truth", lambda doc: _rules(doc["points"][0]).update(best_of=3.0),
     "malformed ground-truth document: points[0].score_before.rules.best_of "
     "must be an integer, got 3.0"),
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
    report = {"ball_rmse_m": float("nan"), "player_rmse_m": 0.0,
              "ball_samples": 10, "player_samples": 20}
    monkeypatch.setattr(cli, "round_trip_report", lambda *args: dict(report))
    capsys.readouterr()
    code = main(["verify", "--clip", str(clip), "--truth", str(truth)])
    out = capsys.readouterr()
    assert code == 4
    assert json.loads(out.out.replace("NaN", "null"))["pass"] is False
    assert out.err.startswith("verify bound violated: ball_rmse_m nan")


FILE_FLAGS = ["reconstruct", "verify-truth", "metrics", "config"]


def _read_through(tmp_path, capsys, command, text):
    """Exit code of ``command`` run on ``text`` as the file one of its flags
    names; ``capsys`` then holds only that run's output."""
    clip, _ = _simulate(tmp_path, seed=5, points=1)
    scene = tmp_path / "scene.json"
    assert main(["reconstruct", "--clip", str(clip), "--out", str(scene)]) == 0
    path = tmp_path / "input.json"
    path.write_bytes(text)
    args = {
        "reconstruct": ["reconstruct", "--clip", str(path), "--out", str(scene)],
        "verify-truth": ["verify", "--clip", str(clip), "--truth", str(path)],
        "metrics": ["metrics", "--scene", str(path), "--window", "match"],
        "config": ["reconstruct", "--clip", str(clip), "--out", str(scene), "--config", str(path)],
    }[command]
    capsys.readouterr()
    return main(args)


@pytest.mark.parametrize("command", FILE_FLAGS)
def test_integer_too_long_to_parse_is_invalid_input(tmp_path, capsys, command):
    # json.loads refuses integers of more than 4300 digits with a bare ValueError
    code = _read_through(tmp_path, capsys, command, b'{"n": 1' + b"0" * 5000 + b"}")
    out = capsys.readouterr()
    assert code == 1
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "4300 digits" in out.err


@pytest.mark.parametrize("text, message", [
    (b"\xff\xfe{}", "input.json is not UTF-8 text: invalid start byte at byte 0"),
    # json.loads raises RecursionError past the interpreter's recursion limit
    (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
], ids=["not-utf8", "nested-200000-deep"])
@pytest.mark.parametrize("command", FILE_FLAGS)
def test_undecodable_file_is_invalid_input(tmp_path, capsys, command, text, message):
    code = _read_through(tmp_path, capsys, command, text)
    out = capsys.readouterr()
    assert code == 1
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert message in out.err
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
    (lambda doc: doc.update(sample_rate_hz=float("nan")),
     "error: malformed scene document: sample_rate_hz must be a finite number"),
    (lambda doc: doc.update(fps=float("nan")),
     "error: malformed scene document: fps must be a finite number"),
    (lambda doc: doc.update(fps=float("inf")),
     "error: malformed scene document: fps must be a finite number"),
    (lambda doc: doc.update(sample_rate_hz=0),
     "error: malformed scene document: scene sample_rate_hz"),
    (lambda doc: doc.update(fps=-25.0), "error: malformed scene document: scene fps"),
    (lambda doc: doc["cues"][0].update(anchor=5),
     "error: malformed scene document: cues[0].anchor must be"),
    (lambda doc: doc["cues"][0].update(payload=[]),
     "error: malformed scene document: cues[0].payload must be an object"),
    (lambda doc: doc["camera"]["keyframes"][0].update(look_at="zz"),
     "error: malformed scene document: camera keyframe targets unknown entity 'zz'\n"),
    (lambda doc: doc["camera"]["shots"][0]["spec"].update(target="zz"),
     "error: malformed scene document: camera shot targets unknown entity 'zz'\n"),
    (lambda doc: doc["court"].update(doubles_half_width_m=1.0), "error: malformed scene "
     "document: court is invalid: doubles half-width must not be smaller than singles\n"),
    (lambda doc: doc["court"].update(service_line_y_m=20.0), "error: malformed scene "
     "document: court is invalid: service line must sit between net and baseline\n"),
    (lambda doc: doc["camera"]["time_warp"][0].update(factor=1.5),
     "error: malformed scene document: camera is invalid: warp factors must lie in (0, 1]\n"),
    (lambda doc: doc["camera"]["time_warp"][0].update(t_end=doc["camera"]["t_end"] + 1.0),
     "error: malformed scene document: camera is invalid: "
     "warp windows must lie inside the timeline span\n"),
    (lambda doc: doc.update(sample_rate_hz=10.0), "error: malformed scene document: "
     "the tracks' rate_hz 50.0 differs from sample_rate_hz 10.0\n"),
    (lambda doc: doc["points"][0].update(index=1),
     "error: malformed scene document: points[0].index must be 0, got 1\n"),
    (lambda doc: doc["points"][0].update(t_end=doc["points"][0]["t_start"] - 1.0),
     "error: malformed scene document: point 0 needs t_start <= trajectory_span[0] <= "
     "trajectory_span[1] <= t_end, got "),
    (lambda doc: doc["points"][0].update(trajectory_span=[5.0, 1.0]),
     "error: malformed scene document: point 0 needs t_start <= trajectory_span[0] <= "
     "trajectory_span[1] <= t_end, got 1.0, [5.0, 1.0], 3.84\n"),
    (lambda doc: doc["score_timeline"][0].update(games={"p1": 9, "p2": 0}),
     "error: malformed scene document: score_timeline[0] is invalid: "
     "games 9-0 already won the set\n"),
    # a well-formed scene that holds nothing the command can print
    (lambda doc: doc.update(points=[], score_timeline=doc["score_timeline"][-1:]),
     "error: scene document contains no points\n"),
    (lambda doc: doc["points"][-1]["metrics"].pop("MatchStart"),
     "error: scene stores no MatchStart metrics snapshot\n"),
], ids=["tracks-list", "metrics-list", "nan-rate", "nan-fps", "inf-fps", "zero-rate",
        "negative-fps", "number-anchor", "list-payload", "unknown-keyframe-target",
        "unknown-shot-target", "narrow-doubles", "service-line-past-baseline",
        "fast-warp", "warp-past-the-end", "rate-off-the-tracks", "index-out-of-order",
        "end-before-start", "trajectory-span-reversed", "unreachable-score", "no-points",
        "no-snapshot"])
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
