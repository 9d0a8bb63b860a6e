"""Clip document parsing and court-space lifting tests."""

import json
import math

import numpy as np
import pytest

from rallyforge.court import reference_keypoints
from rallyforge.errors import CalibrationError, ParseError, ValidationError
from rallyforge.ingest import (
    EventKind,
    SpinType,
    clip_from_dict,
    parse_clip,
    to_court_space,
)
from rallyforge.scoring import new_match

from test_projection import pinhole_court_homography


def project_px(matrix: np.ndarray, x: float, y: float):
    u, v, w = matrix @ (x, y, 1.0)
    return [u / w, v / w]


def make_clip_dict(n_frames=10, fps=25.0):
    """A small, fully valid single-point clip rendered through a pinhole camera."""
    cam = pinhole_court_homography()
    keypoints = [project_px(cam, p.x, p.y) for p in reference_keypoints()]

    ball_world = [(0.1 * i, -11.0 + 2.0 * i) for i in range(n_frames)]
    p1_world = [(1.0, -12.0 + 0.1 * i) for i in range(n_frames)]
    p2_world = [(-1.5, 10.0 - 0.1 * i) for i in range(n_frames)]

    frames = []
    for i in range(n_frames):
        frames.append({
            "index": i,
            "ball_px": project_px(cam, *ball_world[i]),
            "players": [
                {"id": "p1", "foot_px": project_px(cam, *p1_world[i])},
                {"id": "p2", "foot_px": project_px(cam, *p2_world[i])},
            ],
        })

    return {
        "header": {
            "clip_id": "clip-001",
            "fps": fps,
            "width": 1920,
            "height": 1080,
            "court_keypoints_px": keypoints,
            "score_before": new_match().to_dict(),
            "point_outcome": {"winner": "p1", "how": "Winner"},
        },
        "frames": frames,
        "events": [
            {"frame": 0, "kind": "PointStart"},
            {"frame": 1, "kind": "Contact", "player_id": "p1"},
            {"frame": 5, "kind": "Bounce"},
            {"frame": 9, "kind": "PointEnd"},
        ],
        "keyframe_annotations": [
            {"frame": 1, "height_m": 2.8, "spin": "Topspin"},
        ],
    }, ball_world, {"p1": p1_world, "p2": p2_world}


def test_parse_valid_clip():
    doc, _, _ = make_clip_dict()
    clip = clip_from_dict(doc)
    assert clip.header.clip_id == "clip-001"
    assert clip.n_frames == 10
    assert clip.duration == pytest.approx(9 / 25)
    assert clip.time_of(5) == pytest.approx(0.2)
    assert clip.player_ids() == ["p1", "p2"]
    assert clip.point_spans() == [(0, 9)]
    assert clip.events[1].kind is EventKind.CONTACT
    anno = clip.annotation_at(1)
    assert anno is not None and anno.spin is SpinType.TOPSPIN and anno.height_m == 2.8
    assert clip.annotation_at(2) is None
    assert [o.how for o in clip.header.point_outcomes] == ["Winner"]


def test_unknown_fields_are_ignored():
    doc, _, _ = make_clip_dict()
    doc["future_extension"] = {"anything": 1}
    doc["header"]["camera_model"] = "pinhole"
    doc["frames"][0]["confidence"] = 0.9
    clip = clip_from_dict(doc)
    assert clip.n_frames == 10


def test_null_samples_survive_round_trip():
    doc, _, _ = make_clip_dict()
    doc["frames"][3]["ball_px"] = None
    doc["frames"][4]["players"][1]["foot_px"] = None
    clip = clip_from_dict(doc)
    assert np.isnan(clip.ball_px[3]).all() and not np.isnan(clip.ball_px[2]).any()
    assert np.isnan(clip.foot_px["p2"][4]).all() and not np.isnan(clip.foot_px["p1"][4]).any()
    again = parse_clip(json.dumps(doc))
    assert np.isnan(again.ball_px[3]).all()
    assert np.isnan(again.foot_px["p2"][4]).all()


def _absent_frames(track):
    return np.flatnonzero(np.isnan(track).any(axis=1)).tolist()


def test_player_first_listed_late_has_nan_rows_before():
    doc, _, _ = make_clip_dict()
    for i in range(4, 10):  # "a3" sorts first but appears last
        doc["frames"][i]["players"].append({"id": "a3", "foot_px": [100.0 + i, 200.0]})
    clip = clip_from_dict(doc)
    assert clip.player_ids() == ["p1", "p2", "a3"]
    assert _absent_frames(clip.foot_px["a3"]) == [0, 1, 2, 3]
    assert clip.foot_px["a3"][5].tolist() == [105.0, 200.0]
    assert _absent_frames(clip.foot_px["p1"]) == []


def test_player_listed_with_null_foot_has_nan_rows():
    doc, _, _ = make_clip_dict()
    doc["frames"][2]["players"][0]["foot_px"] = None
    doc["frames"][0]["players"].insert(0, {"id": "ghost", "foot_px": None})
    clip = clip_from_dict(doc)
    assert clip.player_ids() == ["ghost", "p1", "p2"]
    assert _absent_frames(clip.foot_px["p1"]) == [2]
    assert _absent_frames(clip.foot_px["ghost"]) == list(range(10))
    tracks = to_court_space(clip)
    assert _absent_frames(tracks.players["p1"]) == [2]
    assert _absent_frames(tracks.players["ghost"]) == list(range(10))


def test_frame_omitting_a_player_has_nan_row():
    doc, _, _ = make_clip_dict()
    doc["frames"][0]["players"].reverse()  # p2 listed first, so it comes first
    doc["frames"][6]["players"].pop(1)  # p2
    del doc["frames"][7]["players"]
    clip = clip_from_dict(doc)
    assert clip.player_ids() == ["p2", "p1"]
    assert _absent_frames(clip.foot_px["p1"]) == [7]
    assert _absent_frames(clip.foot_px["p2"]) == [6, 7]
    assert clip.foot_px["p1"].shape == clip.ball_px.shape == (10, 2)


def test_multi_point_clip_outcomes():
    doc, _, _ = make_clip_dict()
    doc["header"]["point_outcomes"] = [
        {"winner": "p2", "how": "Ace"},
        {"winner": "p1", "how": "UnforcedError"},
    ]
    del doc["header"]["point_outcome"]
    doc["events"] = [
        {"frame": 0, "kind": "PointStart"},
        {"frame": 1, "kind": "Contact", "player_id": "p1"},
        {"frame": 3, "kind": "PointEnd"},
        {"frame": 5, "kind": "PointStart"},
        {"frame": 6, "kind": "Contact", "player_id": "p2"},
        {"frame": 9, "kind": "PointEnd"},
    ]
    doc["keyframe_annotations"] = [
        {"frame": 1, "height_m": 2.8, "spin": "Topspin"},
        {"frame": 6, "height_m": 2.6, "spin": "Backspin"},
    ]
    clip = clip_from_dict(doc)
    assert clip.point_spans() == [(0, 3), (5, 9)]
    assert [o.how for o in clip.header.point_outcomes] == ["Ace", "UnforcedError"]
    assert clip.annotation_at(6).spin is SpinType.BACKSPIN


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_clip('{"header": \n  nope}')
    assert err.value.line == 2
    assert err.value.column >= 1


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("frames"), "missing"),
    (lambda d: d["header"].pop("fps"), "fps"),
    (lambda d: d["header"].__setitem__("fps", 0), "fps"),
    (lambda d: d["header"].__setitem__("width", 1920.5), "width"),
    (lambda d: d["header"].__setitem__("court_keypoints_px",
                                       d["header"]["court_keypoints_px"][:13]), "14"),
    (lambda d: d["header"].pop("point_outcome"), "point_outcome"),
    (lambda d: d["header"].__setitem__("point_outcome",
                                       {"winner": "p1", "how": "Lob"}), "how"),
    (lambda d: d["header"].__setitem__("point_outcome",
                                       {"winner": "p7", "how": "Winner"}), "player"),
    (lambda d: d["frames"][4].__setitem__("index", 7), "consecutive"),
    (lambda d: d["frames"][2].__setitem__("ball_px", [1.0]), "ball_px"),
    (lambda d: d["frames"][2].__setitem__("ball_px", [math.inf, 0.0]), "finite"),
    (lambda d: d["frames"][1]["players"].append({"id": "p1", "foot_px": [5.0, 5.0]}), "twice"),
    (lambda d: d["frames"][3].__setitem__("players", 5), "players must be a list"),
    (lambda d: d["header"].__setitem__("fps", 10 ** 400), "fps"),
    (lambda d: d["events"][1].__setitem__("kind", ["Contact"]), "kind"),
    (lambda d: d["header"]["score_before"].__setitem__("players", [["p1"], "p2"]),
     "two player names"),
    (lambda d: d["header"]["score_before"]["points"].__setitem__("p1", []), "point label"),
    (lambda d: d["events"][2].__setitem__("player_id", ["p1"]), "never appears"),
    (lambda d: d["keyframe_annotations"][0].__setitem__("spin", ["Topspin"]),
     "spin must be one of"),
    (lambda d: d["events"][1].pop("player_id"), "player_id"),
    (lambda d: d["events"][1].__setitem__("frame", 99), "frame"),
    (lambda d: d["events"].__setitem__(2, {"frame": 0, "kind": "Bounce"}), "ordered"),
    (lambda d: d["events"].insert(0, {"frame": 0, "kind": "Bounce"}), "span"),
    (lambda d: d["events"].pop(), "ended"),
    (lambda d: d["keyframe_annotations"].append({"frame": 1, "height_m": 1.0}), "duplicate"),
    (lambda d: d["keyframe_annotations"].__setitem__(0, {"frame": 1, "height_m": -2.0}), "height_m"),
    (lambda d: d["keyframe_annotations"].clear(), "spin"),
])
def test_validation_rejects_malformed_documents(mutate, fragment):
    doc, _, _ = make_clip_dict()
    mutate(doc)
    with pytest.raises(ValidationError) as err:
        clip_from_dict(doc)
    assert fragment.lower() in str(err.value).lower()


# ------------------------------------------------------------
# Court-space lifting
# ------------------------------------------------------------


def test_lift_recovers_world_positions():
    doc, ball_world, players_world = make_clip_dict()
    clip = clip_from_dict(doc)
    tracks = to_court_space(clip)
    assert tracks.n_frames == 10
    assert tracks.fps == 25.0
    assert tracks.calibration["visible_keypoints"] == 14
    assert tracks.calibration["median_px"] <= 1e-6
    assert np.allclose(tracks.ball, ball_world, atol=1e-6)
    for pid, world in players_world.items():
        assert np.allclose(tracks.players[pid], world, atol=1e-6)


def test_lift_preserves_presence_pattern():
    doc, _, _ = make_clip_dict()
    doc["frames"][3]["ball_px"] = None
    doc["frames"][6]["players"] = [doc["frames"][6]["players"][0]]  # p2 absent
    tracks = to_court_space(clip_from_dict(doc))
    assert np.isnan(tracks.ball[3]).all()
    assert not np.isnan(tracks.ball[2]).any()
    assert np.isnan(tracks.players["p2"][6]).all()
    assert not np.isnan(tracks.players["p1"][6]).any()


def test_lift_works_with_partial_keypoints():
    doc, ball_world, _ = make_clip_dict()
    kp = doc["header"]["court_keypoints_px"]
    for i in (1, 4, 7, 9, 12):
        kp[i] = None
    tracks = to_court_space(clip_from_dict(doc))
    assert tracks.calibration["visible_keypoints"] == 9
    assert np.allclose(tracks.ball, ball_world, atol=1e-6)


def test_lift_requires_four_keypoints():
    doc, _, _ = make_clip_dict()
    kp = doc["header"]["court_keypoints_px"]
    doc["header"]["court_keypoints_px"] = [kp[0], kp[1], kp[2]] + [None] * 11
    with pytest.raises(CalibrationError) as err:
        to_court_space(clip_from_dict(doc))
    assert err.value.report["visible_keypoints"] == 3


def test_lift_gates_on_median_reprojection():
    doc, _, _ = make_clip_dict()
    rng = np.random.default_rng(42)
    doc["header"]["court_keypoints_px"] = [
        [u + rng.normal(0, 15), v + rng.normal(0, 15)]
        for u, v in doc["header"]["court_keypoints_px"]
    ]
    with pytest.raises(CalibrationError) as err:
        to_court_space(clip_from_dict(doc))
    assert err.value.report["median_px"] > 5.0
