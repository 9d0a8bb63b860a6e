"""Scene document tests: tracks, validation, and lossless serialization."""

import dataclasses
import json
import os

import numpy as np
import pytest

from rallyforge.cli import main
from rallyforge.court import CourtPoint
from rallyforge.errors import ParseError, ValidationError
from rallyforge.pipeline import reconstruct_scene
from rallyforge.ingest import clip_from_dict
from rallyforge.scene import (
    SampledTrack,
    SceneTimeline,
    parse_scene,
    serialize_scene,
)
from rallyforge.scene_metrics import MetricsWindow
from rallyforge.simulate import SimConfig, simulate_clip
from rallyforge.viz_cues import CueKind, VizCue

# ------------------------------------------------------------
# sampled tracks
# ------------------------------------------------------------


def test_track_interpolates_and_clamps():
    samples = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 1.0], [2.0, 4.0, 0.0]])
    track = SampledTrack("ball", rate_hz=10.0, samples=samples, t_start=1.0)
    assert track.t_end == pytest.approx(1.2)
    assert track.position_at(1.0).as_xyz() == (0.0, 0.0, 0.0)
    mid = track.position_at(1.05)
    assert mid.as_xyz() == pytest.approx((1.0, 0.0, 0.5))
    assert track.position_at(0.0).as_xyz() == (0.0, 0.0, 0.0)  # clamped
    assert track.position_at(9.0).as_xyz() == (2.0, 4.0, 0.0)  # clamped


def test_positions_at_equals_position_at_bit_for_bit():
    rng = np.random.default_rng(5)
    samples = rng.normal(size=(40, 3))
    samples[0, 2] = -0.0  # a clamped end keeps its sign bit
    track = SampledTrack("ball", rate_hz=50.0, samples=samples, t_start=0.5)
    ts = np.concatenate([
        [0.0, 0.5, np.nextafter(0.5, 1.0)],                             # start, clamped
        [np.nextafter(track.t_end, 0.0), track.t_end, track.t_end + 1.0],  # end, clamped
        0.5 + np.arange(40) / 50.0,                                      # on the samples
        rng.uniform(0.0, 2.0, 300),
    ])
    scalar = np.array([track.position_at(t).as_xyz() for t in ts])
    many = track.positions_at(ts)
    assert many.tobytes() == scalar.tobytes()
    assert many[0].tobytes() == samples[0].tobytes()
    assert many[5].tobytes() == samples[-1].tobytes()


def test_track_rejects_malformed_samples():
    with pytest.raises(ValidationError):
        SampledTrack("ball", 10.0, np.zeros((1, 3)))
    with pytest.raises(ValidationError):
        SampledTrack("ball", 10.0, np.zeros((4, 2)))
    bad = np.zeros((3, 3))
    bad[1, 2] = np.nan
    with pytest.raises(ValidationError):
        SampledTrack("ball", 10.0, bad)
    with pytest.raises(ValidationError):
        SampledTrack("ball", 0.0, np.zeros((3, 3)))


def test_track_round_trip(scene):
    again = parse_scene(serialize_scene(scene)).tracks
    assert set(again) == set(scene.tracks)
    for name, track in scene.tracks.items():
        back = again[name]
        assert (back.entity_id, back.rate_hz, back.t_start) == (name, track.rate_hz, track.t_start)
        assert back.samples.tobytes() == track.samples.tobytes()


# ------------------------------------------------------------
# scene validation
# ------------------------------------------------------------


@pytest.fixture(scope="module")
def scene():
    clip_doc, _ = simulate_clip(SimConfig(seed=6, points=2))
    return reconstruct_scene(clip_from_dict(clip_doc))


def test_scene_queries(scene):
    assert set(scene.tracks) == {"ball", "p1", "p2"}
    t0, t1 = scene.span
    assert t0 == 0.0 and t1 > 0.0
    spans = scene.point_spans()
    assert len(spans) == 2
    assert all(t0 <= a < b <= t1 + 1e-9 for a, b in spans)
    p = scene.entity_position("ball", spans[0][0])
    assert p == scene.tracks["ball"].position_at(spans[0][0])
    with pytest.raises(ValidationError, match="no entity"):
        scene.entity_position("umpire", 0.0)


def test_scene_rejects_mismatched_time_bases(scene):
    tracks = dict(scene.tracks)
    tracks["ball"] = dataclasses.replace(tracks["ball"], t_start=0.25)
    with pytest.raises(ValidationError, match="time base"):
        dataclasses.replace(scene, tracks=tracks)


def test_scene_rejects_camera_span_mismatch(scene):
    short = {
        name: SampledTrack(name, tr.rate_hz, tr.samples[:-5], tr.t_start)
        for name, tr in scene.tracks.items()
    }
    with pytest.raises(ValidationError, match="camera"):
        dataclasses.replace(scene, tracks=short)


def test_scene_rejects_unknown_cue_anchor(scene):
    stray = VizCue(CueKind.FLOATING_TEXT, 0.0, 1.0, "coach", {"text": "hi"})
    with pytest.raises(ValidationError, match="unknown entity 'coach'"):
        dataclasses.replace(scene, cues=scene.cues + (stray,))


@pytest.mark.parametrize("anchor", [5, True, {"x": 1}, [1.0, 2.0, 3.0, 4.0], [1.0, 2.0],
                                    [1.0, "a", 3.0], [1.0, None, 3.0], [False, 0.0, 0.0],
                                    [float("nan"), 0.0, 0.0], [10 ** 400, 0, 0]],
                         ids=["number", "bool", "object", "four", "two", "string-item",
                              "null-item", "bool-item", "nan-item", "huge-item"])
def test_parse_scene_rejects_malformed_cue_anchor(scene, anchor):
    doc = json.loads(serialize_scene(scene))
    doc["cues"][0]["anchor"] = anchor
    with pytest.raises(ValidationError, match=r"^malformed scene document: "
                       r"cues\[0\]\.anchor must be an entity name or \[x, y, z\]"):
        parse_scene(json.dumps(doc))


def test_parse_scene_reads_each_kind_of_cue_anchor(scene):
    doc = json.loads(serialize_scene(scene))
    for anchor in (None, "p1", [1, 2.5, 0]):
        doc["cues"][0]["anchor"] = anchor
        again = parse_scene(json.dumps(doc))
        want = CourtPoint(1.0, 2.5, 0.0) if isinstance(anchor, list) else anchor
        assert again.cues[0].anchor == want


@pytest.mark.parametrize("payload", [[], 0, False, 5, "text", None, [{"text": "hi"}]],
                         ids=["empty-list", "zero", "false", "number", "string", "null", "list"])
def test_parse_scene_rejects_a_cue_payload_that_is_not_an_object(scene, payload):
    doc = json.loads(serialize_scene(scene))
    doc["cues"][0]["payload"] = payload
    with pytest.raises(ValidationError,
                       match=r"^malformed scene document: cues\[0\]\.payload must be an object"):
        parse_scene(json.dumps(doc))


def test_parse_scene_reads_a_left_out_cue_payload_as_empty(scene):
    doc = json.loads(serialize_scene(scene))
    del doc["cues"][0]["payload"]
    assert parse_scene(json.dumps(doc)).cues[0].payload == {}


def _set(path, make):
    """An edit that replaces the value at ``path`` with ``make(old value)``."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = make(doc[last])
    return edit


def _first_count(edit):
    """Apply ``edit`` to the first zone count of the first point's MatchStart metrics."""
    def at(doc):
        counts = doc["points"][0]["metrics"]["MatchStart"]["counts"]
        per_zone = counts[min(counts)]
        zone = min(per_zone)
        per_zone[zone] = edit(per_zone[zone])
    return at


SPEC = ("camera", "shots", 0, "spec")

# Each value here was read without an error before the reader checked JSON
# types: a string converted by float() or int(), a fraction cut to an
# integer, any value taken as a bool, a track stored under another's key.
LENIENT_EDITS = {
    "string-fps": (_set(("fps",), str), "fps must be a finite number"),
    "bool-rate": (_set(("sample_rate_hz",), lambda v: True), "sample_rate_hz must be a finite number"),
    "string-sample": (_set(("tracks", "ball", "samples", 1, 0), str),
                      'tracks["ball"].samples must be rows of numbers'),
    "string-keyframe-t": (_set(("camera", "keyframes", 0, "t"), lambda v: "0"),
                          "camera.keyframes[0].t must be a finite number"),
    "string-fov": (_set(("camera", "keyframes", 0, "fov_deg"), lambda v: "55"),
                   "camera.keyframes[0].fov_deg must be a finite number"),
    "fraction-index": (_set(("points", 0, "index"), lambda v: 0.9),
                       "points[0].index must be an integer"),
    "fraction-point-index": (_set(SPEC + ("point_index",), lambda v: 0.5),
                             "camera.shots[0].spec.point_index must be an integer"),
    "number-purpose": (_set(SPEC + ("purpose",), lambda v: 7),
                       "camera.shots[0].spec.purpose must be a string"),
    "list-motion-params": (_set(SPEC + ("motion_params",), lambda v: [1]),
                           "camera.shots[0].spec.motion_params must be an object"),
    "string-slow-motion": (_set(SPEC + ("slow_motion",), lambda v: "no"),
                           "camera.shots[0].spec.slow_motion must be true or false"),
    "string-count": (_first_count(str),
                     'points[0].metrics["MatchStart"] is invalid: zone metrics counts must'),
    "other-entity-id": (_set(("tracks", "ball", "entity_id"), lambda v: "p1"),
                        'tracks["ball"].entity_id must be its key \'ball\', got \'p1\''),
}


@pytest.mark.parametrize("edit, message", LENIENT_EDITS.values(), ids=list(LENIENT_EDITS))
def test_parse_scene_rejects_a_value_of_the_wrong_json_type(scene, tmp_path, capsys,
                                                            edit, message):
    doc = json.loads(serialize_scene(scene))
    edit(doc)
    text = json.dumps(doc)
    with pytest.raises(ValidationError) as caught:
        parse_scene(text)
    assert str(caught.value).startswith("malformed scene document: " + message)
    path = tmp_path / "scene.json"
    path.write_text(text)
    assert main(["metrics", "--scene", str(path), "--window", "match"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed scene document: " + message) and err.count("\n") == 1


def test_scene_rejects_point_outside_span(scene):
    t1 = scene.span[1]
    bad = dataclasses.replace(scene.points[-1], t_end=t1 + 5.0)
    with pytest.raises(ValidationError, match="outside the scene span"):
        dataclasses.replace(scene, points=scene.points[:-1] + (bad,))


def test_scene_rejects_short_score_timeline(scene):
    with pytest.raises(ValidationError, match="score timeline"):
        dataclasses.replace(scene, score_timeline=scene.score_timeline[:-1])


# ------------------------------------------------------------
# serialization
# ------------------------------------------------------------


def test_scene_serialization_is_lossless(scene):
    text = serialize_scene(scene)
    again = parse_scene(text)
    assert serialize_scene(again) == text
    assert again.to_dict() == scene.to_dict()


def test_scene_round_trip_preserves_metrics(scene):
    again = parse_scene(serialize_scene(scene))
    for before, after in zip(scene.points, again.points):
        assert set(after.metrics) == {MetricsWindow.MATCH_START, MetricsWindow.CURRENT_GAME}
        for window in before.metrics:
            assert after.metrics[window].to_dict() == before.metrics[window].to_dict()
        assert after.outcome.to_dict() == before.outcome.to_dict()


def test_scene_format_gate():
    clip_doc, _ = simulate_clip(SimConfig(seed=3, points=1))
    scene = reconstruct_scene(clip_from_dict(clip_doc))
    doc = scene.to_dict()
    doc["format"] = "rallyforge-scene/99"
    with pytest.raises(ValidationError, match="format"):
        SceneTimeline.from_dict(doc)
    with pytest.raises(ParseError, match=r"^invalid scene JSON: .* \(line 1, column 2\)$"):
        parse_scene("{not json")


# floats whose shortest repr takes every form: signed zero, subnormal, tiny,
# exponent at and above 1e16, an inexact sum, and whole numbers
AWKWARD_FLOATS = [-0.0, 5e-324, 1e-300, 1e16, 1e22, 0.1 + 0.2, 50.0, 3.0, -7.0, 1.5e-7]


def assert_writes_like_json_dumps(scene):
    """serialize_scene(scene) equals the json.dumps reference; on a mismatch,
    report the first differing offset (pytest's own diff of two long texts
    runs for minutes)."""
    text = serialize_scene(scene)
    reference = json.dumps(scene.to_dict(), indent=2, sort_keys=True) + "\n"
    if text != reference:
        at = len(os.path.commonprefix([text, reference]))
        pytest.fail(f"serialize_scene differs from json.dumps at offset {at}: "
                    f"{text[at - 60:at + 60]!r} != {reference[at - 60:at + 60]!r}")
    return text


def _with_awkward_values(scene, *cues, extra_tracks=()):
    tracks = {}
    for name, tr in scene.tracks.items():
        samples = tr.samples.copy()
        samples.flat[:len(AWKWARD_FLOATS)] = AWKWARD_FLOATS
        samples[-1] = [-0.0, 1e22, 50.0]
        tracks[name] = dataclasses.replace(tr, samples=samples)
    for name in extra_tracks:
        tracks[name] = dataclasses.replace(scene.tracks["ball"], entity_id=name)
    return dataclasses.replace(scene, tracks=tracks, cues=scene.cues + cues)


def _cue(kind, payload):
    return VizCue(kind, 0.0, 1.0, None, payload)


def test_serialize_scene_writes_awkward_floats_like_json_dumps(scene):
    rows = [AWKWARD_FLOATS[i:i + 2] for i in range(0, len(AWKWARD_FLOATS), 2)]
    awkward = _with_awkward_values(
        scene,
        _cue(CueKind.STATIC_TRAJECTORY_MAP, {"polylines": [rows, rows[:1], [[0.0, -0.0]]]}),
        _cue(CueKind.POSITION_HEATMAP, {"grid": {"nx": 2, "ny": 5, "weights": rows}}),
        _cue(CueKind.POSITION_HEATMAP, {"grid": {"weights": [AWKWARD_FLOATS]}}))
    text = assert_writes_like_json_dumps(awkward)
    assert '"samples": [\n        [\n          -0.0,\n          5e-324,' in text
    assert parse_scene(text).to_dict() == awkward.to_dict()


@pytest.mark.parametrize("weights", [
    [[0, 0.5], [0.25, 0.25]],            # an int
    [[0.5, True], [0.25, 0.25]],         # a bool
    [[0.5, float("nan")], [0.25, 0.25]],  # json writes NaN, repr writes nan
    [[0.5, float("inf")], [0.25, 0.25]],
    [[0.5], [0.25, 0.25]],               # ragged
    [[], []],
    [],
    [[0.5, 0.5], [0.5, None]],
    "not rows",
])
def test_serialize_scene_leaves_blocks_it_cannot_template_to_json_dumps(scene, weights):
    cues = (_cue(CueKind.POSITION_HEATMAP, {"grid": {"weights": weights}}),
            _cue(CueKind.STATIC_TRAJECTORY_MAP, {"polylines": [weights, [[1.0, 2.0]]]}))
    odd = _with_awkward_values(scene, *cues)
    assert_writes_like_json_dumps(odd)


def test_serialize_scene_handles_odd_cue_payloads(scene):
    odd = _with_awkward_values(
        scene,
        _cue(CueKind.POSITION_HEATMAP, {"grid": "none"}),
        _cue(CueKind.POSITION_HEATMAP, {"grid": {"nx": 0}}),
        _cue(CueKind.STATIC_TRAJECTORY_MAP, {"polylines": "none"}),
        _cue(CueKind.STATIC_TRAJECTORY_MAP, {}),
        _cue(CueKind.FLOATING_TEXT, {"polylines": [[[1.0, 2.0]]]}))
    assert_writes_like_json_dumps(odd)


def test_serialize_scene_with_a_string_that_reads_like_a_placeholder(scene):
    # entity names with a NUL, which json.dumps writes as "\u0000"
    odd = _with_awkward_values(scene, extra_tracks=["\x00rows:0", "\x00rows:99"])
    assert_writes_like_json_dumps(odd)
