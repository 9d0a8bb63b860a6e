"""Golden scene hashes: reconstructing these clips must keep writing the same bytes.

The clips are small and degraded (pixel noise, quantized pixels, dropout), so
gap filling, outlier refill and NaN handling all run. A hash changes only when
the scene bytes change; re-record it only for a change meant to alter them.
The same clips also check serialize_scene against the plain json.dumps
writer it must match byte for byte.
"""

import functools
import hashlib

import pytest

from rallyforge.ingest import clip_from_dict
from rallyforge.pipeline import reconstruct_scene
from rallyforge.scene import serialize_scene
from rallyforge.simulate import SimConfig, simulate_clip
from rallyforge.viz_cues import CueKind

from test_scene import assert_writes_like_json_dumps

GOLDEN_SHA256 = {
    0: "be38a37ab599451ee746f2f743e503305f3a89bcb13d5e66c8b15d1d0b442a72",
    1: "b645c5fa4de25068907fcb4909aa7252eb98179f94780b6152450e0f4a08c705",
    2: "f7752ab41aefbeb9941d0dfcabad740bb27e664d46fb15dcc817d746e9f5be6e",
}

# seed 7 at 3 points plans tactic replays, so its scene holds trajectory-map
# polylines and heatmap weights as well as tracks
TACTIC_SEED, TACTIC_POINTS = 7, 3
TACTIC_SHA256 = "1bdc444090171c2b2975ca8c0d3d73cf64676d8a568edc76d16869e3b410c318"


@functools.lru_cache(maxsize=None)
def degraded_scene(seed, points):
    cfg = SimConfig(seed=seed, points=points, pixel_noise_sigma_px=1.0,
                    quantize_pixels=True, dropout_rate=0.1)
    clip_doc, _ = simulate_clip(cfg)
    return reconstruct_scene(clip_from_dict(clip_doc))


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_SHA256))
def test_degraded_clip_scene_bytes_are_pinned(seed):
    assert sha256(serialize_scene(degraded_scene(seed, 2))) == GOLDEN_SHA256[seed]


def test_tactic_cue_scene_bytes_are_pinned():
    scene = degraded_scene(TACTIC_SEED, TACTIC_POINTS)
    kinds = [cue.kind for cue in scene.cues]
    assert kinds.count(CueKind.STATIC_TRAJECTORY_MAP) == 3
    assert kinds.count(CueKind.POSITION_HEATMAP) == 3
    assert sha256(serialize_scene(scene)) == TACTIC_SHA256


@pytest.mark.parametrize("seed, points", [(s, 2) for s in sorted(GOLDEN_SHA256)]
                         + [(TACTIC_SEED, TACTIC_POINTS)])
def test_serialize_scene_equals_json_dumps(seed, points):
    assert_writes_like_json_dumps(degraded_scene(seed, points))
