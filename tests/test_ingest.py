"""Clip document parsing and court-space lifting tests."""

import json
import math

import numpy as np
import pytest

from rallyforge import ingest
from rallyforge.court import reference_keypoints
from rallyforge.errors import CalibrationError, ParseError, ValidationError
from rallyforge.ingest import (
    ClipPoint,
    EventKind,
    PointOutcome,
    SpinType,
    _expect,
    _parse_pixel,
    clip_from_dict,
    parse_clip,
    to_court_space,
)
from rallyforge.scoring import new_match
from rallyforge.simulate import SimConfig, simulate_clip

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
    assert list(clip.foot_px) == ["p1", "p2"]
    (point,) = clip.points
    assert (point.start_frame, point.end_frame) == (0, 9)
    assert point.outcome == PointOutcome(winner="p1", how="Winner")
    assert point.events == clip.events[1:3]
    assert clip.events[1].kind is EventKind.CONTACT
    anno = clip.annotation_at(1)
    assert anno is not None and anno.spin is SpinType.TOPSPIN and anno.height_m == 2.8
    assert clip.annotation_at(2) is None


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
    assert list(clip.foot_px) == ["p1", "p2", "a3"]
    assert _absent_frames(clip.foot_px["a3"]) == [0, 1, 2, 3]
    assert clip.foot_px["a3"][5].tolist() == [105.0, 200.0]
    assert _absent_frames(clip.foot_px["p1"]) == []


def test_player_listed_with_null_foot_has_nan_rows():
    doc, _, _ = make_clip_dict()
    doc["frames"][2]["players"][0]["foot_px"] = None
    doc["frames"][0]["players"].insert(0, {"id": "ghost", "foot_px": None})
    clip = clip_from_dict(doc)
    assert list(clip.foot_px) == ["ghost", "p1", "p2"]
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
    assert list(clip.foot_px) == ["p2", "p1"]
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
    assert [(p.start_frame, p.end_frame) for p in clip.points] == [(0, 3), (5, 9)]
    assert [p.events for p in clip.points] == [clip.events[1:2], clip.events[4:5]]
    assert [p.outcome.how for p in clip.points] == ["Ace", "UnforcedError"]
    assert clip.annotation_at(6).spin is SpinType.BACKSPIN


def test_point_outcomes_win_over_point_outcome():
    doc, _, _ = make_clip_dict()
    doc["header"]["point_outcomes"] = [{"winner": "p2", "how": "Ace"}]
    assert clip_from_dict(doc).points[0].outcome == PointOutcome(winner="p2", how="Ace")
    doc["header"]["point_outcomes"] = None  # null is left out
    assert clip_from_dict(doc).points[0].outcome == PointOutcome(winner="p1", how="Winner")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_clip('{"header": \n  nope}')
    assert err.value.line == 2
    assert err.value.column >= 1


def _two_points(d, n_outcomes):
    """Split the clip into two points and give the header ``n_outcomes`` outcomes."""
    d["events"] = [
        {"frame": 0, "kind": "PointStart"},
        {"frame": 1, "kind": "Contact", "player_id": "p1"},
        {"frame": 3, "kind": "PointEnd"},
        {"frame": 5, "kind": "PointStart"},
        {"frame": 6, "kind": "Bounce"},
        {"frame": 9, "kind": "PointEnd"},
    ]
    d["header"]["point_outcomes"] = [d["header"].pop("point_outcome")] * n_outcomes


def _second_outcome(d, outcome):
    _two_points(d, 2)
    d["header"]["point_outcomes"][1] = outcome


def _one_player_twice(d):
    score = d["header"]["score_before"]
    score["players"] = ["p1", "p1"]
    for key in ("points", "games", "sets"):
        score[key] = {"p1": score[key]["p1"]}


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
    (lambda d: d["frames"][4].__setitem__("index", 4.0), "frames[4].index must be 4"),
    (lambda d: d["frames"][1].__setitem__("index", True), "frames[1].index must be 1"),
    (lambda d: d["frames"][0].__setitem__("index", False), "frames[0].index must be 0"),
    (lambda d: d["frames"][2].__setitem__("ball_px", [1.0]), "ball_px"),
    (lambda d: d["frames"][2].__setitem__("ball_px", [math.inf, 0.0]), "finite"),
    (lambda d: d["frames"][2].__setitem__("ball_px", [True, 5.0]), "frames[2].ball_px coordinates"),
    (lambda d: d["frames"][6]["players"][1].__setitem__("foot_px", [5.0, False]),
     "frames[6].players[1].foot_px coordinates"),
    (lambda d: d["frames"][1]["players"].append({"id": "p1", "foot_px": [5.0, 5.0]}), "twice"),
    (lambda d: d["frames"][3].__setitem__("players", 5), "players must be a list"),
    (lambda d: d["header"].__setitem__("fps", 10 ** 400), "fps"),
    (lambda d: d["header"].__setitem__("clip_id", {"a": [1, 2]}), "header.clip_id must be a string"),
    (lambda d: d["header"].__setitem__("clip_id", 5), "header.clip_id must be a string"),
    (lambda d: d["header"]["score_before"].__setitem__("rules", {"best_of": 4}),
     "best_of must be 3 or 5, got 4"),
    (lambda d: d["header"]["score_before"].__setitem__("rules", {"best_of": True}), "best_of"),
    (lambda d: d["events"][1].__setitem__("kind", ["Contact"]), "kind"),
    (lambda d: d["header"]["score_before"].__setitem__("players", ["p1"]),
     "two player names"),
    (lambda d: d["header"]["score_before"]["points"].__setitem__("p1", []), "point label"),
    (lambda d: d["events"][2].__setitem__("player_id", "p9"), "never appears"),
    (lambda d: d["keyframe_annotations"][0].__setitem__("spin", ["Topspin"]),
     "spin must be one of"),
    (lambda d: d["events"][1].pop("player_id"), "player_id"),
    (lambda d: d["events"][1].__setitem__("frame", 99), "frame"),
    (lambda d: d["events"][0].__setitem__("frame", False), "events[0].frame must be an integer"),
    (lambda d: d["events"][1].__setitem__("frame", True), "events[1].frame must be an integer"),
    (lambda d: d["events"][2].__setitem__("frame", 5.0), "events[2].frame must be an integer"),
    (lambda d: d["events"].__setitem__(2, {"frame": 0, "kind": "Bounce"}), "ordered"),
    (lambda d: d["events"].insert(0, {"frame": 0, "kind": "Bounce"}), "span"),
    (lambda d: d["events"].pop(), "ended"),
    (lambda d: d["keyframe_annotations"].append({"frame": 1, "height_m": 1.0}), "duplicate"),
    (lambda d: d["keyframe_annotations"][0].__setitem__("frame", True),
     "keyframe_annotations[0].frame must be an integer"),
    (lambda d: d["keyframe_annotations"][0].__setitem__("frame", 1.0),
     "keyframe_annotations[0].frame must be an integer"),
    (lambda d: d["keyframe_annotations"].__setitem__(0, {"frame": 1, "height_m": -2.0}), "height_m"),
    (lambda d: d["keyframe_annotations"].clear(), "spin"),
    (lambda d: _two_points(d, 3), "point outcomes: the header lists 3, the clip has 2 points"),
    (lambda d: _two_points(d, 1), "point outcomes: the header lists 1, the clip has 2 points"),
    # a value of the wrong JSON type is named by its full path
    (lambda d: d["header"]["score_before"].__setitem__("rules", {"best_of": 3.0}),
     "header.score_before.rules.best_of must be an integer, got 3.0"),
    (lambda d: d["header"]["score_before"].__setitem__("games", {"p1": 0}),
     "header.score_before.games must be an object keyed by both players, got {'p1': 0}"),
    (lambda d: d["header"]["score_before"].__setitem__("players", [["p1"], "p2"]),
     "header.score_before.players[0] must be a string, got ['p1']"),
    (lambda d: _second_outcome(d, {"winner": "p1", "how": "Lob"}),
     "header.point_outcomes[1].how must be one of Winner, Ace, ForcedError, UnforcedError, "
     "DoubleFault, got 'Lob'"),
    (lambda d: d["header"]["court_keypoints_px"].__setitem__(3, [1.0]),
     "header.court_keypoints_px[3] must be [u, v] of finite numbers, got [1.0]"),
    (lambda d: d["events"][2].__setitem__("player_id", ["p1"]),
     "events[2].player_id must be a string, got ['p1']"),
    (lambda d: d["keyframe_annotations"][0].__setitem__("spin", "Slice"),
     "keyframe_annotations[0].spin must be one of Topspin, Backspin, got 'Slice'"),
    # rules of the header and its score state, past the type of each value
    (lambda d: d["header"].__setitem__("width", 0), "header is invalid: width must be positive"),
    (lambda d: d["header"].__setitem__("height", -1080),
     "header is invalid: height must be positive, got -1080"),
    (lambda d: d["keyframe_annotations"][0].__setitem__("frame", len(d["frames"])),
     "keyframe_annotations[0].frame must be an integer in [0, 10)"),
    (_one_player_twice, "header.score_before is invalid: a match needs exactly two distinct players"),
    (lambda d: d["header"]["score_before"].__setitem__("server", "p9"),
     "header.score_before is invalid: unknown player: 'p9'"),
    (lambda d: d["header"]["score_before"].__setitem__("winner", "p9"),
     "header.score_before is invalid: unknown player: 'p9'"),
    (lambda d: d["header"]["score_before"].__setitem__("tiebreak_points", {"p1": 0, "p2": 0}),
     "header.score_before is invalid: a tiebreak needs tiebreak_first_server"),
])
def test_validation_rejects_malformed_documents(mutate, fragment):
    doc, _, _ = make_clip_dict()
    mutate(doc)
    with pytest.raises(ValidationError) as err:
        clip_from_dict(doc)
    assert fragment.lower() in str(err.value).lower()


# ------------------------------------------------------------
# The columnar frame reader against the frame-by-frame loop
# ------------------------------------------------------------


def _track(n, rows):
    out = np.full((n, 2), np.nan)
    if rows:
        out[list(rows)] = list(rows.values())
    return out


def reference_read_frames(frames_raw):
    """The frame-by-frame loop the columnar reader replaced, with frame indices
    that must be integers (not bools) and null joints left out of the map:
    the reference for its arrays and for its first error message."""
    n = len(frames_raw)
    ball, feet, joints = {}, {}, {}
    for i, fr in enumerate(frames_raw):
        _expect(isinstance(fr, dict), f"frames[{i}] must be an object")
        index = fr.get("index")
        _expect(isinstance(index, int) and not isinstance(index, bool) and index == i,
                f"frames[{i}].index must be {i} (0-based, consecutive)")
        ball_px = _parse_pixel(fr.get("ball_px"), f"frames[{i}].ball_px")
        if ball_px is not None:
            ball[i] = ball_px
        players_raw = fr.get("players", [])
        _expect(isinstance(players_raw, list), f"frames[{i}].players must be a list")
        seen_ids = set()
        for j, pl in enumerate(players_raw):
            _expect(isinstance(pl, dict) and isinstance(pl.get("id"), str) and pl["id"],
                    f"frames[{i}].players[{j}].id must be a non-empty string")
            pid = pl["id"]
            _expect(pid not in seen_ids, f"frames[{i}] lists player {pid!r} twice")
            seen_ids.add(pid)
            foot = _parse_pixel(pl.get("foot_px"), f"frames[{i}].players[{j}].foot_px")
            rows = feet.setdefault(pid, {})
            if foot is not None:
                rows[i] = foot
            if pl.get("joints_px") is not None:
                raw_joints = pl["joints_px"]
                _expect(isinstance(raw_joints, dict), f"frames[{i}].players[{j}].joints_px must be an object")
                parsed = {name: _parse_pixel(px, f"frames[{i}].players[{j}].joints_px[{name!r}]")
                          for name, px in raw_joints.items()}
                joints[i, pid] = {name: px for name, px in parsed.items() if px is not None}
    return _track(n, ball), {pid: _track(n, rows) for pid, rows in feet.items()}, joints


def reference_clip_from_dict(doc):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_read_frames", reference_read_frames)
        return clip_from_dict(doc)


def assert_same_clip(clip, reference):
    for got, want in [(clip.ball_px, reference.ball_px),
                      *zip(clip.foot_px.values(), reference.foot_px.values())]:
        assert np.array_equal(got, want, equal_nan=True) and got.tobytes() == want.tobytes()
    assert list(clip.foot_px) == list(reference.foot_px)
    assert clip.joints_px == reference.joints_px
    assert (clip.header, clip.events, clip.keyframe_annotations, clip.points) == \
        (reference.header, reference.events, reference.keyframe_annotations, reference.points)


def span_filter_points(doc, events):
    """The points of clip document ``doc``, worked out by span: each point takes
    every in-play event of ``events`` whose frame lies inside its span. This
    agrees with the reader's grouping whenever no two points share a frame."""
    bounds = [e.frame for e in events if e.kind in (EventKind.POINT_START, EventKind.POINT_END)]
    outcomes = [PointOutcome(**o) for o in doc["header"]["point_outcomes"]]
    return tuple(
        ClipPoint(start, end, outcome, tuple(
            e for e in events
            if e.kind in (EventKind.CONTACT, EventKind.BOUNCE, EventKind.NET_CORD)
            and start <= e.frame <= end))
        for start, end, outcome in zip(bounds[::2], bounds[1::2], outcomes))


def read_both(doc):
    """What each reader makes of ``doc``: a clip, or the type and message of its error."""
    out = []
    for read in (clip_from_dict, reference_clip_from_dict):
        try:
            out.append(read(doc))
        except Exception as e:  # noqa: BLE001 - the two readers must fail alike
            out.append((type(e), str(e)))
    return out


def assert_readers_agree(doc):
    clip, reference = read_both(doc)
    if isinstance(reference, tuple) or isinstance(clip, tuple):
        assert clip == reference
    else:
        assert_same_clip(clip, reference)
    return clip


@pytest.mark.parametrize("seed, points, dropout", [(0, 2, 0.0), (3, 3, 0.1), (5, 1, 0.3)])
def test_columnar_reader_matches_the_loop_on_simulated_clips(seed, points, dropout):
    cfg = SimConfig(seed=seed, points=points, pixel_noise_sigma_px=1.0,
                    quantize_pixels=bool(seed % 2), dropout_rate=dropout)
    doc, _ = simulate_clip(cfg)
    clip = assert_readers_agree(doc)
    assert clip.joints_px and np.isnan(clip.ball_px).any() == (dropout > 0)
    assert clip.points == span_filter_points(doc, clip.events)


def _late_player(d):
    for i in range(4, 10):
        d["frames"][i]["players"].insert(0, {"id": "a3", "foot_px": [100.0 + i, 7]})


def _null_feet(d):
    d["frames"][2]["players"][0]["foot_px"] = None
    d["frames"][0]["players"].insert(0, {"id": "ghost", "foot_px": None})


def _left_out(d):
    d["frames"][0]["players"].reverse()
    d["frames"][6]["players"].pop(1)
    del d["frames"][7]["players"]
    d["frames"][8]["players"] = []


def _joints(d):
    d["frames"][1]["players"][0]["joints_px"] = {"shoulder": [1, 2.5], "elbow": None,
                                                 "wrist": (3.0, 4)}
    d["frames"][5]["players"][1]["joints_px"] = {}
    d["frames"][6]["players"][1]["joints_px"] = None


def _tuples(d):
    for fr in d["frames"]:
        fr["ball_px"] = tuple(fr["ball_px"])
        for pl in fr["players"]:
            pl["foot_px"] = (int(pl["foot_px"][0]), pl["foot_px"][1])


def _huge_and_exact(d):
    d["frames"][3]["ball_px"] = [2 ** 53 + 1, 10 ** 300]
    d["frames"][4]["ball_px"] = [-0.0, 5e-324]


@pytest.mark.parametrize("shape", [_late_player, _null_feet, _left_out, _joints, _tuples,
                                   _huge_and_exact])
def test_columnar_reader_matches_the_loop_on_hand_made_shapes(shape):
    doc, _, _ = make_clip_dict()
    shape(doc)
    assert isinstance(assert_readers_agree(doc), ingest.Clip)


def test_null_joint_is_left_out_of_the_map():
    doc, _, _ = make_clip_dict()
    doc["frames"][1]["players"][0]["joints_px"] = {"shoulder": [1.0, 2.0], "elbow": None,
                                                   "wrist": [3.0, 4.0]}
    clip = clip_from_dict(doc)
    assert clip.joints_px == {(1, "p1"): {"shoulder": (1.0, 2.0), "wrist": (3.0, 4.0)}}


def _set(path, value):
    def edit(d):
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


# each case breaks two frames, or one frame in two places; the error must name
# the first bad frame and, within it, the first bad field in reading order
@pytest.mark.parametrize("edits, message", [
    ([_set(["frames", 2, "ball_px"], [1.0]), _set(["frames", 6, "ball_px"], [True, 1.0])],
     "frames[2].ball_px must be [u, v] or null"),
    ([_set(["frames", 6, "ball_px"], [1.0]), _set(["frames", 2, "ball_px"], [True, 1.0])],
     "frames[2].ball_px coordinates must be finite numbers"),
    ([_set(["frames", 7, "index"], 1), _set(["frames", 3, "players", 1, "foot_px"], [1, "u"])],
     "frames[3].players[1].foot_px coordinates must be finite numbers"),
    ([_set(["frames", 5, "players", 1, "id"], "p1"), _set(["frames", 8, "players", 0, "id"], "")],
     "frames[5] lists player 'p1' twice"),
    ([_set(["frames", 8, "players", 1, "id"], "p1"), _set(["frames", 4, "players", 0, "id"], 7)],
     "frames[4].players[0].id must be a non-empty string"),
    ([_set(["frames", 4, "players", 0, "joints_px"], {"elbow": [1.0, math.nan]}),
      _set(["frames", 4, "players", 1, "foot_px"], [1.0])],
     "frames[4].players[0].joints_px['elbow'] coordinates must be finite numbers"),
    ([_set(["frames", 6, "players", 0, "joints_px"], [1.0, 2.0]),
      _set(["frames", 9, "players"], None)],
     "frames[6].players[0].joints_px must be an object"),
    ([_set(["frames", 5, "players"], {}), _set(["frames", 6], [])],
     "frames[5].players must be a list"),
    ([_set(["frames", 3, "players"], [None]), _set(["frames", 1, "ball_px"], [10 ** 400, 0])],
     "frames[1].ball_px coordinates must be finite numbers"),
    ([_set(["frames", 9], None), _set(["frames", 8, "index"], True)],
     "frames[8].index must be 8 (0-based, consecutive)"),
    ([_set(["frames", 2, "players", 1, "foot_px"], {"u": 1, "v": 2}),
      _set(["frames", 2, "ball_px"], "ab")],
     "frames[2].ball_px must be [u, v] or null"),
], ids=["shape-then-bool", "bool-then-shape", "index-after-foot", "twice-before-empty-id",
        "id-before-twice", "joint-before-foot", "joints-list", "players-dict",
        "entry-after-huge", "index-before-null-frame", "ball-before-foot"])
def test_columnar_reader_names_the_first_bad_frame(edits, message):
    doc, _, _ = make_clip_dict()
    for edit in edits:
        edit(doc)
    with pytest.raises(ValidationError) as err:
        clip_from_dict(doc)
    assert str(err.value) == message
    assert_readers_agree(doc)


# one breakage each, in a document of exact JSON types: the column checks,
# not the pixel-by-pixel path that other types take, must catch it
@pytest.mark.parametrize("edit, message", [
    (_set(["frames", 2, "ball_px"], [math.inf, 0.0]),
     "frames[2].ball_px coordinates must be finite numbers"),
    (_set(["frames", 3, "players", 1, "foot_px"], [1.0, 10 ** 400]),
     "frames[3].players[1].foot_px coordinates must be finite numbers"),
    (_set(["frames", 4, "players", 0, "id"], ""), "frames[4].players[0].id must be a non-empty string"),
    (_set(["frames", 5, "players", 1, "id"], "p1"), "frames[5] lists player 'p1' twice"),
    (_set(["frames", 6, "players", 0, "joints_px"], [1.0, 2.0]),
     "frames[6].players[0].joints_px must be an object"),
    (_set(["frames", 7, "index"], True), "frames[7].index must be 7 (0-based, consecutive)"),
    (_set(["frames", 8, "players"], [None]), "frames[8].players[0].id must be a non-empty string"),
    (_set(["frames", 9], []), "frames[9] must be an object"),
], ids=["inf-ball", "huge-foot", "empty-id", "twice", "joints-list", "bool-index", "null-entry",
        "list-frame"])
def test_columnar_reader_checks_each_column_alone(edit, message):
    doc = json.loads(json.dumps(make_clip_dict()[0]))
    edit(doc)
    with pytest.raises(ValidationError) as err:
        clip_from_dict(doc)
    assert str(err.value) == message
    assert_readers_agree(doc)


@pytest.mark.parametrize("points", [6, 12])
def test_parse_clip_does_linear_work(monkeypatch, points):
    # counts, not times: the frames are checked by column, so only the pose
    # joints go through the scalar pixel check (the court keypoints are read by
    # the header's codec); when the last frame is bad, each frame goes through
    # its own checker once
    doc, _ = simulate_clip(SimConfig(seed=1, points=points, pixel_noise_sigma_px=1.0,
                                     quantize_pixels=True, dropout_rate=0.1))
    calls = {}
    for name in ("_parse_pixel", "_check_frame"):
        real = getattr(ingest, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)
        monkeypatch.setattr(ingest, name, counted)
    clip = parse_clip(json.dumps(doc))
    joint_values = sum(map(len, clip.joints_px.values()))
    assert joint_values >= 3 * points
    assert calls == {"_parse_pixel": joint_values}

    n = len(doc["frames"])
    doc["frames"][-1]["ball_px"] = [1.0]
    calls.clear()
    with pytest.raises(ValidationError) as err:
        parse_clip(json.dumps(doc))
    assert str(err.value) == f"frames[{n - 1}].ball_px must be [u, v] or null"
    assert calls["_check_frame"] == n


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


@pytest.mark.parametrize("keypoints, message", [
    ([[100.0, 100.0]] * 5 + [None] * 9, "correspondence points are coincident"),
    ([[100.0 + i, 100.0 + 2 * i] for i in range(14)], "estimated homography is singular"),
], ids=["coincident", "collinear"])
def test_lift_reports_a_calibration_fit_that_fails(keypoints, message):
    doc, _, _ = make_clip_dict()
    doc["header"]["court_keypoints_px"] = keypoints
    with pytest.raises(CalibrationError) as err:
        to_court_space(clip_from_dict(doc))
    assert str(err.value) == f"calibration failed: {message}"
    assert err.value.report == {"visible_keypoints": sum(k is not None for k in keypoints)}


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
