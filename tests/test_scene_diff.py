"""tools/scene_diff.py: where two scene documents differ, and by how much."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from rallyforge import SimConfig, parse_clip, reconstruct_scene, serialize_scene, simulate_clip

TOOL = Path(__file__).resolve().parents[1] / "tools" / "scene_diff.py"
_spec = importlib.util.spec_from_file_location("scene_diff", TOOL)
scene_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scene_diff)


@pytest.fixture(scope="module")
def scene_text() -> str:
    clip, _ = simulate_clip(SimConfig(seed=0, points=1))
    return serialize_scene(reconstruct_scene(parse_clip(json.dumps(clip))))


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _run(capsys, a, b):
    code = scene_diff.main([a, b])
    out, err = capsys.readouterr()
    assert err == ""
    return code, out.splitlines()


def test_identical_scenes_print_nothing(tmp_path, capsys, scene_text):
    doc = json.loads(scene_text)
    a, b = _write(tmp_path / "a.json", doc), _write(tmp_path / "b.json", doc)
    assert _run(capsys, a, b) == (0, [])


def test_one_moved_sample_is_reported_with_its_size_and_place(tmp_path, capsys, scene_text):
    doc = json.loads(scene_text)
    a = _write(tmp_path / "a.json", doc)
    samples = doc["tracks"]["ball"]["samples"]
    before = list(samples[57])
    samples[57][1] += 0.25
    moved = samples[57][1] - before[1]
    code, lines = _run(capsys, a, _write(tmp_path / "b.json", doc))
    assert code == 1
    n, rate = len(samples), doc["tracks"]["ball"]["rate_hz"]
    xyz = "[" + ", ".join(f"{v:.6g}" for v in before) + "]"
    xyz_b = "[" + ", ".join(f"{v:.6g}" for v in samples[57]) + "]"
    assert lines == [
        f"track ball: max {moved:.6g} m, rms {math.sqrt(moved ** 2 / n):.6g} m over {n} samples, "
        f"1 differ; first at sample 57 (t={57 / rate:.6g} s): {xyz} -> {xyz_b}"]


def test_camera_cue_and_point_changes_are_each_reported(tmp_path, capsys, scene_text):
    doc = json.loads(scene_text)
    a = _write(tmp_path / "a.json", doc)
    keyframe = doc["camera"]["keyframes"][2]
    keyframe["position"][2] += 0.5
    doc["camera"]["shots"][1]["spec"]["size"] = "Wide"
    doc["cues"] = [c for c in doc["cues"] if c["kind"] != "HighlightOutline"]
    doc["points"][0]["outcome"]["how"] = "Ace"
    code, lines = _run(capsys, a, _write(tmp_path / "b.json", doc))
    assert code == 1
    n = len(doc["camera"]["keyframes"])
    assert lines == [
        f"camera keyframes: {n} -> {n}, 0 added, 0 removed, 1 changed; "
        f"largest move 0.5 m at t={keyframe['t']:.6g} s",
        f"camera shot 1 (point 0, {doc['camera']['shots'][1]['spec']['purpose']}): "
        "spec changed: size",
        "cues HighlightOutline: 1 -> 0",
        "point 0: outcome differ",
    ]


def test_an_unreadable_scene_exits_2(tmp_path, capsys, scene_text):
    a = tmp_path / "a.json"
    a.write_text(scene_text, encoding="utf-8")
    assert scene_diff.main([str(a), str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_the_command_line_exits_1_on_a_difference(tmp_path, scene_text):
    doc = json.loads(scene_text)
    a = _write(tmp_path / "a.json", doc)
    doc["tracks"]["p2"]["samples"][0][0] += 1.0
    run = subprocess.run([sys.executable, str(TOOL), a, _write(tmp_path / "b.json", doc)],
                         capture_output=True, text=True, check=False)
    assert run.returncode == 1
    assert run.stdout.startswith("track p2: max 1 m") and run.stderr == ""
