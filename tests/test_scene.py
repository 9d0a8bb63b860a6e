"""Scene document tests: tracks, validation, and lossless serialization."""

import dataclasses
import json
import math
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
    ts = np.linspace(-0.5, t1 + 0.5, 301)
    for name in scene.tracks:
        many = scene.entity_positions(name, ts)
        assert many.tobytes() == scene.tracks[name].positions_at(ts).tobytes()
        assert many.tolist() == [list(scene.entity_position(name, t).as_xyz())
                                 for t in ts.tolist()]
    with pytest.raises(ValidationError, match="no entity"):
        scene.entity_positions("umpire", ts)


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
# The last two break a rule of the document as a whole, which was reported
# without the document's name.
LENIENT_EDITS = {
    "string-fps": (_set(("fps",), str), "fps must be a finite number"),
    "bool-rate": (_set(("sample_rate_hz",), lambda v: True), "sample_rate_hz must be a finite number"),
    "string-sample": (_set(("tracks", "ball", "samples", 1, 0), str),
                      'tracks["ball"].samples must be rows of numbers'),
    "bool-sample": (_set(("tracks", "ball", "samples", 1, 0), lambda v: True),
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
                     'points[0].metrics["MatchStart"].counts["Bounce"]["rally:Right:Deep:Near"] '
                     "must be a non-negative integer, got '1'"),
    "other-entity-id": (_set(("tracks", "ball", "entity_id"), lambda v: "p1"),
                        'tracks["ball"].entity_id must be its key \'ball\', got \'p1\''),
    "camera-past-tracks": (_set(("camera", "t_end"), lambda t: t + 1.0),
                           "camera timeline must cover exactly the scene span"),
    "dropped-score-state": (_set(("score_timeline",), lambda states: states[:-1]),
                            "score timeline must hold one state per point plus the final state"),
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


@pytest.mark.parametrize("samples", [
    [[0.0, 1.0, 10 ** 400], [0.0, 0.0, 0.0]],   # an int too large for a float
    [[0.0, 1.0, 2.0], [0.0, 0.0]],               # ragged
    [[0.0, 1.0], [0.0, 0.0, 0.0, 5.0]],          # ragged, yet six numbers in all
    [[0.0, 1.0, 2.0], 3.0],                      # a row that is a number
    [[[0.0], [1.0], [2.0]], [[0.0], [0.0], [0.0]]],  # a level too deep
    [[0.0, None, 2.0], [0.0, 0.0, 0.0]],
    [[0.0, 1.0, 2.0], {"x": 0.0}],
    {"rows": []},
    "rows",
    3.0,
], ids=["huge-int", "ragged", "ragged-six", "number-row", "nested", "null", "object-row",
        "object", "string", "number"])
def test_parse_scene_rejects_samples_that_are_not_rows_of_numbers(scene, samples):
    doc = json.loads(serialize_scene(scene))
    doc["tracks"]["ball"]["samples"] = samples
    with pytest.raises(ValidationError, match=r'^malformed scene document: tracks\["ball"\]'
                                              r"\.samples must be rows of numbers"):
        parse_scene(json.dumps(doc))


def _kf(doc, i=3):
    return doc["camera"]["keyframes"][i]


def _kf_edit(**values):
    return lambda doc: _kf(doc).update(values)


def _kf_position(axis, value):
    return lambda doc: _kf(doc)["position"].__setitem__(axis, value)


HUGE = "100000000000000000...0000000000000000000"
POINT_OR_NAME = "look_at must be an entity name or [x, y, z] of finite numbers, got "
XYZ = "position must be [x, y, z] of finite numbers, got "

# One malformed edit each, to keyframe 3 of the fixture's camera, with the
# message the per-keyframe reader gave before keyframes were read as columns.
KEYFRAME_EDITS = {
    "missing-t": (lambda doc: _kf(doc).pop("t"), "camera.keyframes[3].t is missing"),
    "missing-position": (lambda doc: _kf(doc).pop("position"),
                         "camera.keyframes[3].position is missing"),
    "missing-look-at": (lambda doc: _kf(doc).pop("look_at"),
                        "camera.keyframes[3].look_at is missing"),
    "missing-fov": (lambda doc: _kf(doc).pop("fov_deg"), "camera.keyframes[3].fov_deg is missing"),
    "missing-easing": (lambda doc: _kf(doc).pop("easing"), "camera.keyframes[3].easing is missing"),
    "bool-t": (_kf_edit(t=True), "camera.keyframes[3].t must be a finite number, got True"),
    "bool-fov": (_kf_edit(fov_deg=False),
                 "camera.keyframes[3].fov_deg must be a finite number, got False"),
    "bool-position": (_kf_position(1, True), "camera.keyframes[3]." + XYZ + "[0.0, True, 6.0]"),
    "bool-look-at-item": (_kf_edit(look_at=[0.0, True, 1.0]),
                          "camera.keyframes[3]." + POINT_OR_NAME + "[0.0, True, 1.0]"),
    "string-t": (_kf_edit(t="0.5"), "camera.keyframes[3].t must be a finite number, got '0.5'"),
    "string-position": (_kf_position(0, "1.0"),
                        "camera.keyframes[3]." + XYZ + "['1.0', -18.0, 6.0]"),
    "huge-int-position": (_kf_position(2, 10 ** 400),
                          "camera.keyframes[3]." + XYZ + f"[0.0, -18.0, {HUGE}]"),
    "huge-int-fov": (_kf_edit(fov_deg=10 ** 400),
                     f"camera.keyframes[3].fov_deg must be a finite number, got {HUGE}"),
    "nan-t": (_kf_edit(t=float("nan")), "camera.keyframes[3].t must be a finite number, got nan"),
    "nan-position": (_kf_position(0, float("nan")),
                     "camera.keyframes[3]." + XYZ + "[nan, -18.0, 6.0]"),
    "inf-look-at": (_kf_edit(look_at=[0.0, float("inf"), 1.0]),
                    "camera.keyframes[3]." + POINT_OR_NAME + "[0.0, inf, 1.0]"),
    "fov-19.9": (_kf_edit(fov_deg=19.9),
                 "camera.keyframes[3] is invalid: fov_deg must lie in [20, 110], got 19.9"),
    "fov-110.1": (_kf_edit(fov_deg=110.1),
                  "camera.keyframes[3] is invalid: fov_deg must lie in [20, 110], got 110.1"),
    "z-0": (_kf_position(2, 0.0),
            "camera.keyframes[3] is invalid: camera position must stay above the ground"),
    "z-negative": (_kf_position(2, -1),
                   "camera.keyframes[3] is invalid: camera position must stay above the ground"),
    "equal-t": (lambda doc: _kf(doc).update(t=_kf(doc, 2)["t"]),
                "camera is invalid: keyframe times must be strictly increasing"),
    "decreasing-t": (lambda doc: _kf(doc).update(t=_kf(doc, 2)["t"] - 0.5),
                     "camera is invalid: keyframe times must be strictly increasing"),
    "unknown-easing": (_kf_edit(easing="Linear"), "camera.keyframes[3].easing must be one of "
                                                  "Hold, SmoothStep, got 'Linear'"),
    "number-easing": (_kf_edit(easing=1),
                      "camera.keyframes[3].easing must be one of Hold, SmoothStep, got 1"),
    "two-item-look-at": (_kf_edit(look_at=[1.0, 2.0]),
                         "camera.keyframes[3]." + POINT_OR_NAME + "[1.0, 2.0]"),
    "number-look-at": (_kf_edit(look_at=5), "camera.keyframes[3]." + POINT_OR_NAME + "5"),
    "null-look-at": (_kf_edit(look_at=None), "camera.keyframes[3]." + POINT_OR_NAME + "None"),
    "unknown-entity": (_kf_edit(look_at="zz"), "camera keyframe targets unknown entity 'zz'"),
    "two-item-position": (_kf_edit(position=[1.0, 2.0]),
                          "camera.keyframes[3]." + XYZ + "[1.0, 2.0]"),
    "object-position": (_kf_edit(position={"x": 1.0}),
                        "camera.keyframes[3]." + XYZ + "{'x': 1.0}"),
    "list-keyframe": (lambda doc: doc["camera"]["keyframes"].__setitem__(3, [1.0]),
                      "camera.keyframes[3] must be an object, got [1.0]"),
    "object-keyframes": (lambda doc: doc["camera"].update(keyframes={}),
                         "camera.keyframes must be a list, got {}"),
    "no-keyframes": (lambda doc: doc["camera"].update(keyframes=[]),
                     "camera is invalid: a camera timeline needs at least one keyframe"),
}


@pytest.mark.parametrize("edit, message", KEYFRAME_EDITS.values(), ids=list(KEYFRAME_EDITS))
def test_parse_scene_words_a_bad_keyframe_as_the_per_keyframe_reader_did(scene, tmp_path, capsys,
                                                                         edit, message):
    doc = json.loads(serialize_scene(scene))
    assert _kf(doc)["position"] == [0.0, -18.0, 6.0]  # the messages quote this keyframe
    edit(doc)
    text = json.dumps(doc)
    with pytest.raises(ValidationError) as caught:
        parse_scene(text)
    assert str(caught.value) == "malformed scene document: " + message
    path = tmp_path / "scene.json"
    path.write_text(text)
    assert main(["metrics", "--scene", str(path), "--window", "match"]) == 1
    assert capsys.readouterr().err == "error: malformed scene document: " + message + "\n"


def test_scene_rejects_unknown_shot_target(scene):
    shot = scene.camera.shots[0]
    stray = dataclasses.replace(shot, spec=dataclasses.replace(shot.spec, target="coach"))
    camera = dataclasses.replace(scene.camera, shots=(stray,) + scene.camera.shots[1:])
    with pytest.raises(ValidationError, match="^camera shot targets unknown entity 'coach'$"):
        dataclasses.replace(scene, camera=camera)


def test_parse_scene_reads_integer_samples_as_floats(scene):
    doc = json.loads(serialize_scene(scene))
    rows = doc["tracks"]["ball"]["samples"]
    rows[0] = [1, -2, 3]
    samples = parse_scene(json.dumps(doc)).tracks["ball"].samples
    assert samples.dtype == float and samples[0].tolist() == [1.0, -2.0, 3.0]
    assert samples[1:].tolist() == rows[1:]


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
        assert after.outcome == before.outcome


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


def _with_keyframes(camera, *edits):
    """``camera`` with its first keyframes edited, one dict of new values each; the
    timeline turns the edited keyframe objects into columns (``CameraKeyframes.of``)."""
    keyframes = list(camera.keyframes)
    for i, edit in enumerate(edits):
        keyframes[i] = dataclasses.replace(keyframes[i], **edit)
    return dataclasses.replace(camera, keyframes=tuple(keyframes))


def _awkward_keyframes(names):
    """Keyframe values of every form a keyframe may hold: ints (held as floats),
    signed zero, exponents, a subnormal, and ``look_at`` as an entity name of
    ``names`` or a court point."""
    return (
        {"t": 0, "position": CourtPoint(3, -2, 7), "look_at": names[0]},
        {"position": CourtPoint(-0.0, 1e16, 5e-324), "look_at": CourtPoint(-0.0, 1e22, 0)},
        {"fov_deg": 45, "look_at": names[-1]},
        {"position": CourtPoint(0.1 + 0.2, 1.5e-7, 50.0), "look_at": CourtPoint(1, 2, 3)},
    )


def _with_awkward_values(scene, *cues, extra_tracks=()):
    tracks = {}
    for name, tr in scene.tracks.items():
        samples = tr.samples.copy()
        samples.flat[:len(AWKWARD_FLOATS)] = AWKWARD_FLOATS
        samples[-1] = [-0.0, 1e22, 50.0]
        tracks[name] = dataclasses.replace(tr, samples=samples)
    for name in extra_tracks:
        tracks[name] = dataclasses.replace(scene.tracks["ball"], entity_id=name)
    camera = _with_keyframes(scene.camera, *_awkward_keyframes(extra_tracks or ("ball", "p1")))
    return dataclasses.replace(scene, tracks=tracks, camera=camera, cues=scene.cues + cues)


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
    # a timeline holds its keyframes as float columns, so integer values are written as floats
    assert ('"position": [\n          3.0,\n          -2.0,\n          7.0\n        ],\n'
            '        "t": 0.0\n') in text
    assert parse_scene(text).to_dict() == awkward.to_dict()


def with_track_rows(scene, *tracks):
    """``scene`` with its tracks' samples replaced by ``tracks``, in name order,
    all of one length; the rate, of the tracks and the scene, is set so that
    they still span the camera."""
    t0, t1 = scene.span
    rate_hz = (len(tracks[0]) - 1) / (t1 - t0)
    return dataclasses.replace(scene, sample_rate_hz=rate_hz, tracks={
        name: dataclasses.replace(tr, rate_hz=rate_hz, samples=np.array(rows, dtype=float))
        for (name, tr), rows in zip(sorted(scene.tracks.items()), tracks)})


def assert_writes_rows_exactly(scene):
    """The scene writes like json.dumps, and reads back every sample bit for bit."""
    again = parse_scene(assert_writes_like_json_dumps(scene))
    for name, track in scene.tracks.items():
        assert (again.tracks[name].samples.view(np.int64).tolist()
                == track.samples.view(np.int64).tolist())


ROW_A, ROW_B, ROW_C = [1.5, -2.25, 0.0], [0.1 + 0.2, 1e16, 5e-324], [-7.0, 1e22, 0.5]


@pytest.mark.parametrize("rows", [
    [ROW_A, ROW_A],
    [ROW_B] * 7,
    [ROW_A, ROW_B, ROW_A, ROW_C, ROW_B],
    [ROW_A, ROW_B, ROW_C, ROW_C, ROW_C],
], ids=["two-identical", "all-equal", "no-adjacent-equal", "run-ends-the-track"])
def test_serialize_scene_writes_runs_of_identical_rows(scene, rows):
    # each track starts from a different row, so runs fall apart
    assert_writes_rows_exactly(with_track_rows(
        scene, *(rows[i:] + rows[:i] for i in range(len(scene.tracks)))))


def test_serialize_scene_tells_a_signed_zero_row_from_zero(scene):
    # == finds these rows equal: a writer whose runs were built on == would
    # write the middle row as the first row's 0.0
    rows = [[0.0, 0.0, 0.0], [-0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert rows[0] == rows[1]
    odd = with_track_rows(scene, *[rows] * len(scene.tracks))
    assert_writes_rows_exactly(odd)
    ball = json.loads(serialize_scene(odd))["tracks"]["ball"]["samples"]
    assert [math.copysign(1.0, row[0]) for row in ball] == [1.0, -1.0, 1.0]


def test_scene_to_dict_writes_keyframes_as_objects(scene):
    keyframes = scene.to_dict()["camera"]["keyframes"]
    assert len(keyframes) == len(scene.camera.keyframes)
    assert all(type(k) is dict for k in keyframes)
    first = scene.camera.keyframes[0]
    assert keyframes[0] == {"t": first.t, "position": list(first.position.as_xyz()),
                            "look_at": (first.look_at if isinstance(first.look_at, str)
                                        else list(first.look_at.as_xyz())),
                            "fov_deg": first.fov_deg, "easing": first.easing.value}


NOT_FINITE = r"^camera keyframe at t=.* holds .*, which is not a finite number$"
NOT_A_PLACE = r"^camera keyframe at t=.* needs a court point position, an entity name or court"


@pytest.mark.parametrize("edit, refused", [
    ({"position": CourtPoint(np.float64(0.1), 2.0, 3.0)}, None),
    ({"fov_deg": np.float64(45.5)}, None),
    ({"position": CourtPoint(float("nan"), 2.0, 3.0)}, NOT_FINITE),
    ({"position": CourtPoint(1.0, float("inf"), 3.0)}, NOT_FINITE),
    ({"look_at": CourtPoint(float("-inf"), 0.0, 0.0)}, NOT_FINITE),
    ({"position": CourtPoint(10 ** 400, 2.0, 3.0)}, NOT_FINITE),
    ({"position": CourtPoint(1e308, 1e308, 3.0)}, None),  # finite, yet its sum overflows
    ({"position": CourtPoint(True, 2.0, 3.0)}, NOT_FINITE),
    ({"look_at": None}, NOT_A_PLACE),
    ({"look_at": ["ball"]}, NOT_A_PLACE),
], ids=["float64-position", "float64-fov", "nan", "inf", "minus-inf-look-at", "huge-int",
        "large", "bool", "null-look-at", "list-look-at"])
def test_serialize_scene_leaves_keyframes_it_cannot_template_to_json_dumps(scene, edit, refused):
    # every keyframe a timeline holds fills the row template; a value the
    # scene reader would refuse is refused when the keyframe is built
    if refused:
        with pytest.raises(ValidationError, match=refused):
            _with_keyframes(scene.camera, {}, edit)
    else:
        assert_writes_like_json_dumps(
            dataclasses.replace(scene, camera=_with_keyframes(scene.camera, {}, edit)))


def test_serialize_scene_writes_a_shared_list_once_per_indent(scene):
    # one polyline object listed in two maps at one depth, and in a heatmap
    # one level deeper and a map one level shallower; its pairs are not all
    # floats, so it is written item by item, then reused at each depth
    line = [[1.0, 2.0], [3, -0.0], [float("nan"), 1e16]]
    awkward = _with_awkward_values(
        scene,
        _cue(CueKind.STATIC_TRAJECTORY_MAP, {"polylines": [line, line]}),
        _cue(CueKind.STATIC_TRAJECTORY_MAP, {"polylines": [[[0.5, 0.5]], line]}),
        _cue(CueKind.POSITION_HEATMAP, {"grid": {"weights": [line, [[0.0, 1.0]]]}}),
        _cue(CueKind.STATIC_TRAJECTORY_MAP, {"polylines": line}))
    text = assert_writes_like_json_dumps(awkward)
    assert serialize_scene(awkward) == text


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
    # entity names with a NUL, which json.dumps writes as "\u0000", and one
    # with the %-placeholders of the keyframe row template, as keyframe look_at
    odd = _with_awkward_values(scene, extra_tracks=["\x00rows:0", "\x00rows:99", "%r%%s"])
    assert_writes_like_json_dumps(odd)
