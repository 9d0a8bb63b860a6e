"""The document readers run with Python's cyclic garbage collector paused.

``parse_clip``, ``parse_scene`` and ``project_clip`` each build or read a
whole document whose JSON tree holds no reference cycles; the collector is
off while they run and back as it was afterwards.
"""

import gc
import json

import pytest

from rallyforge.errors import ParseError, ValidationError
from rallyforge.ingest import parse_clip
from rallyforge.pipeline import reconstruct_scene
from rallyforge.scene import parse_scene, serialize_scene
from rallyforge.simulate import SimConfig, project_clip, simulate_rally

# the README's tracker degradation on a 3-point clip
CONFIG = SimConfig(seed=3, points=3, pixel_noise_sigma_px=1.0, quantize_pixels=True,
                   dropout_rate=0.1)


@pytest.fixture(scope="module")
def calls():
    """Per function: its arguments for a normal call, and calls that raise."""
    rally = simulate_rally(CONFIG)
    clip_doc, _ = project_clip(rally, CONFIG)
    clip_text = json.dumps(clip_doc)
    scene_text = serialize_scene(reconstruct_scene(parse_clip(clip_text)))
    no_frames = json.dumps({**clip_doc, "frames": "none"})
    return {
        "parse_clip": (parse_clip, (clip_text,),
                       [(("{bad",), ParseError), ((no_frames,), ValidationError)]),
        "parse_scene": (parse_scene, (scene_text,),
                        [(("{bad",), ParseError), ((clip_text,), ValidationError)]),
        # no config to project with: raises inside the call
        "project_clip": (project_clip, (rally, CONFIG), [((rally, None), AttributeError)]),
    }


NAMES = ["parse_clip", "parse_scene", "project_clip"]


@pytest.fixture
def collector_on():
    was_on = gc.isenabled()
    gc.enable()
    yield
    if not was_on:
        gc.disable()


@pytest.mark.parametrize("name", NAMES)
def test_collector_is_on_after_a_normal_return(calls, collector_on, name):
    fn, args, _ = calls[name]
    fn(*args)
    assert gc.isenabled()


@pytest.mark.parametrize("name", NAMES)
def test_collector_is_on_after_a_raise(calls, collector_on, name):
    fn, _, raising = calls[name]
    for args, error in raising:
        with pytest.raises(error):
            fn(*args)
        assert gc.isenabled()


@pytest.mark.parametrize("name", NAMES)
def test_collector_left_off_stays_off(calls, collector_on, name):
    fn, args, _ = calls[name]
    gc.disable()
    fn(*args)
    assert not gc.isenabled()


@pytest.mark.parametrize("name", NAMES)
def test_no_collection_runs_inside_a_document_reader(calls, collector_on, name):
    fn, args, _ = calls[name]
    inside = [False]
    collections = []

    def count(phase, info):
        if phase == "start" and inside[0]:
            collections.append(info["generation"])

    gc.callbacks.append(count)
    try:
        inside[0] = True
        fn(*args)
        inside[0] = False
    finally:
        gc.callbacks.remove(count)
    assert collections == []
