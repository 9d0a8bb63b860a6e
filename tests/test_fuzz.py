"""Property-based fuzzing: malformed config, clip, truth and scene documents fail cleanly.

Each example edits a valid document in one to three places: a value is
replaced by an arbitrary JSON value, a key or list item is deleted, or a key
is added. Whatever the edits, only RallyForgeError subclasses may escape the
document readers (scene documents are edited after a JSON round trip and read
back from text), the columnar clip reader reads or rejects each clip exactly
as the frame-by-frame loop it replaced does, a truth document that reads must
also score against its scene, and the command line must exit 0, 1 or 2
(success, invalid input, file I/O). Runs are derandomized and bounded, so the
suite stays deterministic. A truth document or camera that reads writes back
to a document that reads equal, and the config reads a camera exactly as the
truth document does.

The scene writer is fuzzed too: whatever JSON value a cue carries, whatever
finite numbers and places a camera keyframe holds, and whatever runs and
repeats of rows a track holds, it writes the text json.dumps(indent=2,
sort_keys=True) writes, and it raises TypeError where json.dumps does. A
keyframe that holds any other number is refused where it is built. Tracks
read back bit for bit, signed zeros included. The camera's keyframe columns
read every valid keyframe list bit for bit as the per-keyframe codec does,
and accept and reject the same lists.
"""

import dataclasses
import enum
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rallyforge import scene as scene_module
from rallyforge.cinematography import EASINGS
from rallyforge.cli import main
from rallyforge.config import load_config
from rallyforge.court import CourtPoint
from rallyforge.errors import RallyForgeError, ValidationError
from rallyforge.fields import Malformed
from rallyforge.ingest import clip_from_dict
from rallyforge.pipeline import reconstruct_scene
from rallyforge.scene import parse_scene, serialize_scene
from rallyforge.simulate import (CameraModel, GroundTruthRally, SimConfig, round_trip_report,
                                 simulate_clip)
from rallyforge.viz_cues import CueKind, VizCue

from test_config import readme_config
from test_ingest import assert_readers_agree
from test_scene import assert_writes_like_json_dumps, assert_writes_rows_exactly, with_track_rows

CONFIG_DOC = readme_config()
CLIP_DOC, TRUTH_DOC = json.loads(json.dumps(simulate_clip(SimConfig(seed=1, points=1))))
SCENE = reconstruct_scene(clip_from_dict(CLIP_DOC))
SCENE_DOC = json.loads(serialize_scene(SCENE))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children, max_size=3)),
    max_leaves=6,
)


def _edited(node, path, edit):
    """``node`` with ``edit`` applied at ``path``; only the containers on the path are copied."""
    if not path:
        return edit(node)
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _edited(node[path[0]], path[1:], edit)
    return copy


def _without(container, key):
    copy = dict(container) if isinstance(container, dict) else list(container)
    del copy[key]
    return copy


@st.composite
def mutated(draw, doc):
    for _ in range(draw(st.integers(1, 3))):
        # a random walk from the root picks the place to edit, so every depth
        # of the document is reached, not mostly its many leaves
        path, node = [], doc
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            path.append(key)
            node = node[key]
        edit = draw(st.sampled_from(["replace", "delete", "add"]))
        if edit == "delete" and path:
            doc = _edited(doc, path[:-1], lambda parent: _without(parent, path[-1]))
        elif edit == "add" and isinstance(node, dict):
            key, value = draw(st.text(max_size=8)), draw(json_values)
            doc = _edited(doc, path, lambda obj: {**obj, key: value})
        else:
            value = draw(json_values)
            doc = _edited(doc, path, lambda _: value)
    return doc


FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=300)
@given(mutated(CONFIG_DOC))
def test_load_config_raises_only_rallyforge_errors(doc):
    try:
        load_config(doc)
    except RallyForgeError:
        pass


@settings(FUZZ, max_examples=150)
@given(mutated(CLIP_DOC))
def test_clip_from_dict_raises_only_rallyforge_errors(doc):
    try:
        clip_from_dict(doc)
    except RallyForgeError:
        pass


@settings(FUZZ, max_examples=300)
@given(mutated(CLIP_DOC) | mutated(CLIP_DOC["frames"]).map(lambda frames: {**CLIP_DOC,
                                                                         "frames": frames}))
def test_clip_reader_matches_the_frame_loop(doc):
    # both raise the same error type with the same message, or both read equal clips
    assert_readers_agree(doc)


@settings(FUZZ, max_examples=300)
@given(mutated(TRUTH_DOC))
def test_truth_documents_raise_only_rallyforge_errors(doc):
    # a document from_dict accepts must also score: round_trip_report relies
    # on what the reader checks
    try:
        round_trip_report(GroundTruthRally.from_dict(doc), SCENE)
    except RallyForgeError:
        pass


@settings(FUZZ, max_examples=300)
@given(mutated(TRUTH_DOC))
def test_truth_documents_that_read_write_back_the_same(doc):
    try:
        truth = GroundTruthRally.from_dict(doc)
    except RallyForgeError:
        return
    written = truth.to_dict()
    again = GroundTruthRally.from_dict(json.loads(json.dumps(written)))
    assert again == truth
    assert again.to_dict() == written


@settings(FUZZ, max_examples=300)
@given(mutated(TRUTH_DOC["camera"]))
def test_a_camera_reads_alike_in_the_config_and_the_truth(doc):
    # both read CameraModel's one field list: they accept the same cameras,
    # and an accepted camera writes back the same
    try:
        camera = CameraModel.from_dict(doc)
    except RallyForgeError:
        camera = None
    try:
        configured = load_config({"simulator": {"camera": doc}})[0].simulator.camera
    except RallyForgeError:
        configured = None
    assert configured == camera
    if camera is not None:
        written = camera.to_dict()
        again = CameraModel.from_dict(json.loads(json.dumps(written)))
        assert again == camera
        assert again.to_dict() == written


@settings(FUZZ, max_examples=500)
@given(mutated(SCENE_DOC))
def test_parse_scene_raises_only_rallyforge_errors(doc):
    try:
        parse_scene(json.dumps(doc))
    except RallyForgeError:
        pass


@settings(FUZZ, max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                         HealthCheck.too_slow])
@given(config=st.none() | mutated(CONFIG_DOC), clip=mutated(CLIP_DOC))
def test_cli_exits_0_1_or_2(tmp_path, config, clip):
    clip_path = tmp_path / "clip.json"
    clip_path.write_text(json.dumps(clip))
    args = ["reconstruct", "--clip", str(clip_path), "--out", str(tmp_path / "scene.json")]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        args += ["--config", str(tmp_path / "config.json")]
    assert main(args) in (0, 1, 2)


def _with_cue(payload, anchor=None, kind=CueKind.FLOATING_TEXT):
    return dataclasses.replace(SCENE, cues=(VizCue(kind, 0.0, 1.0, anchor, payload),))


@settings(FUZZ, max_examples=150)
@given(json_values)
def test_serialize_scene_writes_any_cue_payload_like_json_dumps(payload):
    assert_writes_like_json_dumps(_with_cue(payload))


# any number json.dumps writes, also a bool, a float64, nan and an int past float range
coordinates = (st.integers() | st.floats() | st.floats().map(np.float64) | st.booleans()
               | st.sampled_from([10 ** 400, -0.0, 5e-324, 1e16]))
keyframe_edits = st.fixed_dictionaries({}, optional={
    "position": st.builds(CourtPoint, coordinates, coordinates,
                          st.floats(min_value=0.0, exclude_min=True) | st.integers(1)),
    "look_at": (st.sampled_from(sorted(SCENE.tracks))
                | st.builds(CourtPoint, coordinates, coordinates, coordinates)),
    "fov_deg": (st.floats(20.0, 110.0) | st.integers(20, 110)
                | st.floats(20.0, 110.0).map(np.float64)),
})


def _finite_number(value) -> bool:
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int too large for a float
        return False


@settings(FUZZ, max_examples=150)
@given(st.lists(keyframe_edits, min_size=1, max_size=4))
def test_serialize_scene_writes_any_keyframe_values_like_json_dumps(edits):
    # a keyframe that holds a number that is not finite (or is a bool) is
    # refused where it is built; any other is written as json.dumps writes it
    numbers = [c for edit in edits for value in edit.values() if not isinstance(value, str)
               for c in (value.as_xyz() if isinstance(value, CourtPoint) else (value,))]
    keyframes = list(SCENE.camera.keyframes)
    if not all(map(_finite_number, numbers)):
        with pytest.raises(ValidationError, match="^camera keyframe at t="):
            for i, edit in enumerate(edits):
                dataclasses.replace(keyframes[i], **edit)
        return
    for i, edit in enumerate(edits):
        keyframes[i] = dataclasses.replace(keyframes[i], **edit)
    scene = dataclasses.replace(SCENE, camera=dataclasses.replace(SCENE.camera,
                                                                  keyframes=tuple(keyframes)))
    assert_writes_like_json_dumps(scene)
    assert all(type(k) is dict for k in scene.to_dict()["camera"]["keyframes"])


# JSON numbers of every form the keyframe row template writes: ints, signed
# zero, a subnormal, exponents at and above 1e16, an inexact sum
json_numbers = (st.sampled_from([0, 3, -7, 2 ** 60, -0.0, 5e-324, 1e-300, 1e16, 1e22, 0.1 + 0.2])
                | st.integers(-10 ** 6, 10 ** 6) | st.floats(allow_nan=False, allow_infinity=False))
heights = (st.sampled_from([5e-324, 1, 1e16, 6.0])
           | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
keyframe_docs = st.fixed_dictionaries({
    "t": json_numbers,
    "position": st.tuples(json_numbers, json_numbers, heights).map(list),
    "look_at": st.sampled_from(["ball", "p1", "p2", ""]) | st.lists(json_numbers, min_size=3,
                                                                     max_size=3),
    "fov_deg": st.sampled_from([20, 110, 20.0, 110.0, 55]) | st.floats(20.0, 110.0),
    "easing": st.sampled_from(["Hold", "SmoothStep"]),
})


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@settings(FUZZ, max_examples=300)
@given(st.lists(keyframe_docs, min_size=1, max_size=6))
def test_the_keyframe_columns_read_what_the_per_keyframe_codec_reads(values):
    values = json.loads(json.dumps(values))  # as the scene reader meets them
    columns = scene_module._read_keyframes(values)
    objects = scene_module._KEYFRAMES.read(values)
    assert _bits(columns.t) == _bits([k.t for k in objects])
    assert _bits(columns.fov_deg) == _bits([k.fov_deg for k in objects])
    assert _bits(columns.position) == _bits([k.position.as_xyz() for k in objects])
    assert [EASINGS[e] for e in columns.easing] == [k.easing for k in objects]
    named = [k.look_at if isinstance(k.look_at, str) else None for k in objects]
    assert [columns.names[c] if c >= 0 else None for c in columns.look_at] == named
    assert columns.names == tuple(dict.fromkeys(n for n in named if n is not None))
    points = [columns.look_at_point[i] for i, n in enumerate(named) if n is None]
    assert _bits(points) == _bits([k.look_at.as_xyz() for k in objects
                                   if not isinstance(k.look_at, str)])


def _read_or_error(read, values):
    try:
        return read(values), None
    except Malformed as e:
        return None, (e.where(), str(e))


@settings(FUZZ, max_examples=300)
@given(mutated(SCENE_DOC["camera"]["keyframes"][:8]))
def test_the_keyframe_columns_accept_what_the_per_keyframe_codec_accepts(values):
    # both reject with the same path and problem, or both read the same keyframes
    columns, error = _read_or_error(scene_module._read_keyframes, values)
    objects, want = _read_or_error(scene_module._KEYFRAMES.read, values)
    assert error == want
    if objects is not None:
        assert list(columns) == list(objects)


# rows that differ only in the sign of a zero, and floats whose repr takes
# each of its forms, so that drawn tracks hold runs and repeats far apart
ROW_POOL = [(0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (0.0, -0.0, -0.0), (-0.0, -0.0, -0.0),
            (5e-324, 1e16, 1e22), (0.1 + 0.2, 1e16, 0.0), (1e22, 5e-324, 0.1 + 0.2)]
track_runs = st.lists(st.tuples(st.sampled_from(ROW_POOL), st.integers(1, 4)),
                      min_size=1, max_size=10)


@settings(FUZZ, max_examples=150)
@given(st.lists(track_runs, min_size=len(SCENE.tracks), max_size=len(SCENE.tracks)))
def test_serialize_scene_writes_any_runs_of_rows_like_json_dumps(runs):
    tracks = [[row for row, count in track for _ in range(count)] for track in runs]
    n = max(2, *map(len, tracks))
    # np.resize repeats a short track from its start, so every track has n rows
    assert_writes_rows_exactly(with_track_rows(SCENE, *(np.resize(rows, (n, 3))
                                                        for rows in tracks)))


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Side(str, enum.Enum):
    NEAR = "near"
    FAR = "far"


NAN = float("nan")


@pytest.mark.parametrize("value", [
    [{1: "a", -2: "b", 10 ** 30: "c"}, {NAN: 0, 0.5: 1, -0.0: 2, 1e22: 3, float("inf"): 4},
     {True: 1, False: 0}, {None: "null key"}],
    {"levels": [Level.LOW, 2.5, Level.HIGH], "sides": [Side.NEAR, "far"],
     "keys": [{Level.HIGH: 0, Level.LOW: 1}, {Side.FAR: 0, "a": 1}]},
    {"a": [], "b": {}, "c": [[], [{}], ()], "d": (1.0, (2.0, ()), {"e": ()})},
    {"floats": [1.0, NAN, -0.0, float("-inf"), 5e-324], "mixed": [1.0, 2, True, None],
     "numpy": [np.float64(0.1), np.float64(NAN)]},
    {"\u00e9\u2713\x00\n\t\"\\": ["\u65e5\u672c\u2028\x1f", "\ud800", "\U0001f3be"]},
], ids=["non-str-keys", "enums", "empty-and-tuples", "floats", "non-ascii"])
def test_serialize_scene_writes_awkward_values_like_json_dumps(value):
    # a payload, and an anchor that is not a court point, reach the writer as
    # they are
    assert_writes_like_json_dumps(_with_cue(value))
    assert_writes_like_json_dumps(_with_cue({}, anchor=value))


@pytest.mark.parametrize("payload", [
    {"grid": {"weights": np.ones((2, 2))}},
    {"rows": [[1.0, 2.0], object()]},
    {"keyed": {(1, 2): 0.5}},
], ids=["ndarray", "object", "tuple-key"])
def test_serialize_scene_raises_type_error_where_json_dumps_does(payload):
    scene = _with_cue(payload, kind=CueKind.POSITION_HEATMAP)
    with pytest.raises(TypeError):
        json.dumps(scene.to_dict(), indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        serialize_scene(scene)
