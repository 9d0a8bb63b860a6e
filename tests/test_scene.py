"""Scene document tests: tracks, validation, and lossless serialization."""

import dataclasses

import numpy as np
import pytest

from rallyforge.errors import ValidationError
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


def test_track_round_trip():
    samples = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    track = SampledTrack("p1", rate_hz=50.0, samples=samples)
    again = SampledTrack.from_dict(track.to_dict())
    assert again.entity_id == "p1" and again.rate_hz == 50.0
    assert np.array_equal(again.samples, samples)


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
    with pytest.raises(ValidationError, match="JSON"):
        parse_scene("{not json")
