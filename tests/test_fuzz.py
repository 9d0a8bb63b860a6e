"""Property-based fuzzing: malformed config, clip, truth and scene documents fail cleanly.

Each example edits a valid document in one to three places: a value is
replaced by an arbitrary JSON value, a key or list item is deleted, or a key
is added. Whatever the edits, only RallyForgeError subclasses may escape the
document readers (scene documents are edited after a JSON round trip and read
back from text), the columnar clip reader reads or rejects each clip exactly
as the frame-by-frame loop it replaced does, a truth document that reads must
also score against its scene, and the command line must exit 0, 1 or 2
(success, invalid input, file I/O). Runs are derandomized and bounded, so the
suite stays deterministic.

The scene writer is fuzzed too: whatever JSON value a cue carries, it writes
the text json.dumps(indent=2, sort_keys=True) writes, and it raises TypeError
where json.dumps does.
"""

import dataclasses
import enum
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rallyforge.cli import main
from rallyforge.config import load_config
from rallyforge.errors import RallyForgeError
from rallyforge.ingest import clip_from_dict
from rallyforge.pipeline import reconstruct_scene
from rallyforge.scene import parse_scene, serialize_scene
from rallyforge.simulate import GroundTruthRally, SimConfig, round_trip_report, simulate_clip
from rallyforge.viz_cues import CueKind, VizCue

from test_config import readme_config
from test_ingest import assert_readers_agree
from test_scene import assert_writes_like_json_dumps

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
