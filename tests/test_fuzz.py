"""Property-based fuzzing: malformed config, clip and scene documents fail cleanly.

Each example edits a valid document in one to three places: a value is
replaced by an arbitrary JSON value, a key or list item is deleted, or a key
is added. Whatever the edits, only RallyForgeError subclasses may escape the
document readers (scene documents are edited after a JSON round trip and read
back from text), and the command line must exit 0, 1 or 2 (success, invalid
input, file I/O). Runs are derandomized and bounded, so the suite stays
deterministic.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rallyforge.cli import main
from rallyforge.config import load_config
from rallyforge.errors import RallyForgeError
from rallyforge.ingest import clip_from_dict
from rallyforge.pipeline import reconstruct_scene
from rallyforge.scene import parse_scene, serialize_scene
from rallyforge.simulate import SimConfig, simulate_clip

from test_config import readme_config

CONFIG_DOC = readme_config()
CLIP_DOC = json.loads(json.dumps(simulate_clip(SimConfig(seed=1, points=1))[0]))
SCENE_DOC = json.loads(serialize_scene(reconstruct_scene(clip_from_dict(CLIP_DOC))))

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
