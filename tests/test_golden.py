"""Golden scene hashes: reconstructing these clips must keep writing the same bytes.

The clips are small and degraded (pixel noise, quantized pixels, dropout), so
gap filling, outlier refill and NaN handling all run. A hash changes only when
the scene bytes change; re-record it only for a change meant to alter them.
"""

import hashlib

import pytest

from rallyforge.ingest import clip_from_dict
from rallyforge.pipeline import reconstruct_scene
from rallyforge.scene import serialize_scene
from rallyforge.simulate import SimConfig, simulate_clip

GOLDEN_SHA256 = {
    0: "be38a37ab599451ee746f2f743e503305f3a89bcb13d5e66c8b15d1d0b442a72",
    1: "b645c5fa4de25068907fcb4909aa7252eb98179f94780b6152450e0f4a08c705",
    2: "f7752ab41aefbeb9941d0dfcabad740bb27e664d46fb15dcc817d746e9f5be6e",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SHA256))
def test_degraded_clip_scene_bytes_are_pinned(seed):
    cfg = SimConfig(seed=seed, points=2, pixel_noise_sigma_px=1.0,
                    quantize_pixels=True, dropout_rate=0.1)
    clip_doc, _ = simulate_clip(cfg)
    text = serialize_scene(reconstruct_scene(clip_from_dict(clip_doc)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SHA256[seed]
