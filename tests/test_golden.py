"""Golden scene hashes: reconstructing these clips must keep writing the same bytes.

The clips are small and degraded (pixel noise, quantized pixels, dropout), so
gap filling, outlier refill and NaN handling all run. A hash changes only when
the scene bytes change; re-record it only for a change meant to alter them.
The same clips also check serialize_scene against the plain json.dumps
writer it must match byte for byte.
"""

import functools
import hashlib

import numpy as np
import pytest

from rallyforge.ingest import clip_from_dict
from rallyforge.pipeline import reconstruct_scene
from rallyforge.scene import serialize_scene
from rallyforge.scene_metrics import MetricsWindow
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

# seed 10 at 5 points wins a game after its fourth point, so the last point's
# CurrentGame metrics restart while its MatchStart metrics keep counting
GAME_SEED, GAME_POINTS = 10, 5
GAME_SHA256 = "c00637bf16927529ef2bdd0ec2087fd7e5fd18e972d5890caf87e7d082051e4f"

# seed 4 at 2 points with p1 left out of the first 30 frames (so p2 is listed
# first) and p2 left out of every 7th frame: the reader's NaN rows for a
# player listed late or left out reach the gap fill
SPARSE_SEED, SPARSE_POINTS = 4, 2
SPARSE_SHA256 = "96d7afed2c887b7e2ce256ae47982ae2fb00a6d47c56d9b0141cb90577deda81"


def degraded_clip_doc(seed, points):
    cfg = SimConfig(seed=seed, points=points, pixel_noise_sigma_px=1.0,
                    quantize_pixels=True, dropout_rate=0.1)
    return simulate_clip(cfg)[0]


@functools.lru_cache(maxsize=None)
def degraded_scene(seed, points):
    return reconstruct_scene(clip_from_dict(degraded_clip_doc(seed, points)))


def sparse_player_clip_doc():
    doc = degraded_clip_doc(SPARSE_SEED, SPARSE_POINTS)
    for fr in doc["frames"]:
        i = fr["index"]
        fr["players"] = [pl for pl in fr["players"]
                         if not (pl["id"] == "p1" and i < 30 or pl["id"] == "p2" and i % 7 == 3)]
    return doc


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


def test_game_boundary_scene_bytes_are_pinned():
    scene = degraded_scene(GAME_SEED, GAME_POINTS)
    games = [(s.sets, s.games) for s in scene.score_timeline[:GAME_POINTS]]
    assert games[-1] != games[-2] and len(set(games)) == 2

    def total(point, window):
        return sum(sum(c.values()) for c in point.metrics[window].counts.values())

    before, last = scene.points[-2], scene.points[-1]
    assert total(before, MetricsWindow.CURRENT_GAME) == total(before, MetricsWindow.MATCH_START)
    assert 0 < total(last, MetricsWindow.CURRENT_GAME) < total(last, MetricsWindow.MATCH_START)
    assert sha256(serialize_scene(scene)) == GAME_SHA256


def test_sparse_player_scene_bytes_are_pinned():
    clip = clip_from_dict(sparse_player_clip_doc())
    assert list(clip.foot_px) == ["p2", "p1"]
    assert np.isnan(clip.foot_px["p1"][:30]).all() and not np.isnan(clip.foot_px["p1"][30]).any()
    assert np.isnan(clip.foot_px["p2"][3::7]).all()
    assert sha256(serialize_scene(reconstruct_scene(clip))) == SPARSE_SHA256


@pytest.mark.parametrize("seed, points", [(s, 2) for s in sorted(GOLDEN_SHA256)]
                         + [(TACTIC_SEED, TACTIC_POINTS), (GAME_SEED, GAME_POINTS)])
def test_serialize_scene_equals_json_dumps(seed, points):
    assert_writes_like_json_dumps(degraded_scene(seed, points))
