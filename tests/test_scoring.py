"""Scoring state machine tests, including equivalence against the rules oracle."""

import random

import pytest

from rallyforge.errors import ValidationError
from rallyforge.scoring import (
    ScoreState,
    ScoringRules,
    advance_score,
    new_match,
    point_context_labels,
)

from scoring_oracle import (
    oracle_advance,
    oracle_labels,
    oracle_new_match,
    oracle_snapshot,
)


def snapshot(state: ScoreState):
    a, b = state.players
    return {
        "points": (state.point_label(a), state.point_label(b)),
        "games": state.games,
        "sets": state.sets,
        "tiebreak": state.tiebreak_points,
        "server": state.server,
        "winner": state.winner,
    }


def play(state, winners):
    for w in winners:
        state = advance_score(state, w)
    return state


def test_simple_game_progression():
    s = new_match()
    s = play(s, ["p1", "p1", "p1"])
    assert s.point_label("p1") == "40" and s.point_label("p2") == "0"
    s = advance_score(s, "p1")
    assert s.games == (1, 0)
    assert s.points == (0, 0)
    assert s.server == "p2"  # serve alternates each game


def test_deuce_and_advantage_cycle():
    s = new_match()
    s = play(s, ["p1", "p2", "p1", "p2", "p1", "p2"])  # deuce
    assert s.point_label("p1") == "40" and s.point_label("p2") == "40"
    s = advance_score(s, "p1")
    assert s.point_label("p1") == "Adv"
    s = advance_score(s, "p2")  # back to deuce
    assert s.point_label("p1") == "40" and s.point_label("p2") == "40"
    s = play(s, ["p2", "p2"])
    assert s.games == (0, 1)


def test_forty_love_game_point_converts():
    s = play(new_match(), ["p1", "p1", "p1"])
    labels = point_context_labels(s)
    assert "GamePoint" in labels
    assert "BreakPoint" not in labels  # p1 serves
    assert advance_score(s, "p1").games == (1, 0)


def test_break_point_for_receiver():
    s = play(new_match(server="p1"), ["p2", "p2", "p2"])
    labels = point_context_labels(s)
    assert {"GamePoint", "BreakPoint"} <= labels


def test_two_love_sets_progression():
    s = new_match()
    for _ in range(2):
        for _ in range(6):
            s = play(s, ["p1"] * 4)
    assert s.sets == (2, 0)
    assert s.games == (0, 0)
    assert s.winner is None


def test_match_win_best_of_five():
    s = new_match()
    for _ in range(3):
        for _ in range(6):
            s = play(s, ["p1"] * 4)
    assert s.sets == (3, 0)
    assert s.winner == "p1"
    with pytest.raises(ValidationError):
        advance_score(s, "p1")
    assert point_context_labels(s) == set()


def test_set_needs_two_game_margin():
    s = new_match()
    # take games to 6-5 without a set ending
    for _ in range(5):
        s = play(s, ["p1"] * 4)
        s = play(s, ["p2"] * 4)
    s = play(s, ["p1"] * 4)
    assert s.games == (6, 5)
    assert s.sets == (0, 0)
    s = play(s, ["p1"] * 4)  # 7-5 takes the set
    assert s.sets == (1, 0)
    assert s.games == (0, 0)


def test_tiebreak_entry_play_and_server_rotation():
    s = new_match(server="p1")
    for _ in range(6):
        s = play(s, ["p1"] * 4)
        s = play(s, ["p2"] * 4)
    assert s.games == (6, 6)
    assert s.in_tiebreak
    first = s.server
    assert first == s.tiebreak_first_server
    # rotation: opener serves one point, then pairs alternate
    servers = []
    for i in range(6):
        servers.append(s.server)
        s = advance_score(s, "p1" if i % 2 == 0 else "p2")
    other = "p2" if first == "p1" else "p1"
    assert servers == [first, other, other, first, first, other]


def test_tiebreak_win_takes_set_seven_six():
    s = new_match(server="p1")
    for _ in range(6):
        s = play(s, ["p1"] * 4)
        s = play(s, ["p2"] * 4)
    opener = s.tiebreak_first_server
    s = play(s, ["p1"] * 7)
    assert s.sets == (1, 0)
    assert s.games == (0, 0)
    assert not s.in_tiebreak
    # the non-opener serves first in the following set
    assert s.server == ("p2" if opener == "p1" else "p1")


def test_tiebreak_needs_two_point_margin():
    s = new_match(server="p1")
    for _ in range(6):
        s = play(s, ["p1"] * 4)
        s = play(s, ["p2"] * 4)
    s = play(s, ["p1", "p2"] * 6)  # 6-6 in the tiebreak
    assert s.tiebreak_points == (6, 6)
    s = advance_score(s, "p1")
    assert s.sets == (0, 0)  # 7-6 is not enough
    s = advance_score(s, "p1")
    assert s.sets == (1, 0)


def test_final_set_tiebreak_at_twelve():
    rules = ScoringRules(best_of=3, final_set_rule="tiebreak_at_12")
    s = new_match(rules=rules)
    s = play(s, ["p1"] * 24)  # set one 6-0
    s = play(s, ["p2"] * 24)  # set two 0-6: deciding set next
    assert s.sets == (1, 1)
    for _ in range(6):
        s = play(s, ["p1"] * 4)
        s = play(s, ["p2"] * 4)
    assert s.games == (6, 6)
    assert not s.in_tiebreak  # held back until twelve all
    for _ in range(6):
        s = play(s, ["p1"] * 4)
        s = play(s, ["p2"] * 4)
    assert s.games == (12, 12)
    assert s.in_tiebreak
    s = play(s, ["p1"] * 7)
    assert s.winner == "p1"


def test_serialization_round_trip():
    s = play(new_match(), ["p1", "p2", "p1", "p1"])
    doc = s.to_dict()
    assert doc["points"] == {"p1": "40", "p2": "15"}
    assert ScoreState.from_dict(doc) == s

    # tiebreak states round-trip too
    s = new_match(server="p2")
    for _ in range(6):
        s = play(s, ["p1"] * 4)
        s = play(s, ["p2"] * 4)
    s = play(s, ["p1", "p1", "p2"])
    assert ScoreState.from_dict(s.to_dict()) == s


def test_from_dict_rejects_double_advantage():
    with pytest.raises(ValidationError, match="both players cannot hold advantage"):
        ScoreState(points=(4, 4))


def test_rules_validation():
    with pytest.raises(ValidationError):
        ScoringRules(best_of=4)
    with pytest.raises(ValidationError):
        ScoringRules(final_set_rule="sudden_death")


def test_unknown_player_rejected():
    with pytest.raises(ValidationError):
        advance_score(new_match(), "p3")


# ------------------------------------------------------------
# Equivalence with the brute-force oracle
# ------------------------------------------------------------


def _random_sequence(rng):
    """Winner sequences mixing styles so deep states (tiebreaks) get visited."""
    style = rng.random()
    n = rng.randrange(1, 60)
    if style < 0.4:
        return [rng.choice(["p1", "p2"]) for _ in range(n)]
    if style < 0.8:
        # alternating blocks reach n-all games and tiebreaks quickly
        block = rng.randrange(1, 5)
        return [("p1" if (i // block) % 2 == 0 else "p2") for i in range(rng.randrange(40, 160))]
    return ["p1" if rng.random() < 0.8 else "p2" for _ in range(rng.randrange(20, 120))]


@pytest.mark.parametrize("best_of,final_rule", [
    (5, "tiebreak_at_6"),
    (3, "tiebreak_at_6"),
    (3, "tiebreak_at_12"),
])
def test_oracle_equivalence_random_sequences(best_of, final_rule):
    rng = random.Random(best_of * 1000 + len(final_rule))
    for _ in range(400):
        ours = new_match(rules=ScoringRules(best_of=best_of, final_set_rule=final_rule))
        oracle = oracle_new_match(best_of=best_of, final_set_rule=final_rule)
        for winner in _random_sequence(rng):
            if ours.winner is not None:
                break
            assert point_context_labels(ours) == oracle_labels(oracle)
            ours = advance_score(ours, winner)
            oracle_advance(oracle, winner)
            ours_snap = snapshot(ours)
            oracle_snap = oracle_snapshot(oracle)
            assert ours_snap == oracle_snap, f"diverged after {winner}: {ours_snap} != {oracle_snap}"
