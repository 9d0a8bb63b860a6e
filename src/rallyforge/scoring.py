"""Tennis scoring state machine and point-context labels.

States are immutable; ``advance_score`` returns a new state, which makes
one-step lookahead (used for game/set/match-point labels) free of mutation
hazards. Rules applied:

* games need four or more points won by a margin of two (0/15/30/40/Adv),
* sets need six games won by two, with a seven-point tiebreak (margin two)
  at six all,
* the tiebreak server rotation is one serve then alternating pairs, and the
  player who did not open the tiebreak serves first in the next set,
* matches default to best of five; the deciding set uses the same tiebreak
  unless configured to hold it back until twelve all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Set, Tuple

from .errors import ValidationError

POINT_LABELS = ("0", "15", "30", "40")

FINAL_SET_RULES = ("tiebreak_at_6", "tiebreak_at_12")

TIEBREAK_TARGET = 7

LABEL_GAME = "GamePoint"
LABEL_BREAK = "BreakPoint"
LABEL_SET = "SetPoint"
LABEL_MATCH = "MatchPoint"


@dataclass(frozen=True)
class ScoringRules:
    best_of: int = 5
    final_set_rule: str = "tiebreak_at_6"

    def __post_init__(self):
        if not isinstance(self.best_of, int) or self.best_of not in (3, 5):
            raise ValidationError(f"best_of must be 3 or 5, got {self.best_of}")
        if self.final_set_rule not in FINAL_SET_RULES:
            raise ValidationError(f"unknown final_set_rule: {self.final_set_rule!r}")

    @property
    def sets_to_win(self) -> int:
        return self.best_of // 2 + 1

    def to_dict(self) -> dict:
        return {"best_of": self.best_of, "final_set_rule": self.final_set_rule}

    @staticmethod
    def from_dict(obj: dict) -> "ScoringRules":
        if not isinstance(obj, dict):
            raise ValidationError("scoring rules must be an object")
        return ScoringRules(
            best_of=obj.get("best_of", 5),
            final_set_rule=obj.get("final_set_rule", "tiebreak_at_6"),
        )


@dataclass(frozen=True)
class ScoreState:
    """Complete score of a match in progress, before some next point.

    ``points`` is held as integers (0..3 plus 4 for advantage); display labels
    come from ``point_label``. During a tiebreak ``points`` stays zeroed and
    ``tiebreak_points`` carries the count. ``server`` is always the server of
    the upcoming point, also inside tiebreaks.
    """

    players: Tuple[str, str] = ("p1", "p2")
    points: Tuple[int, int] = (0, 0)
    games: Tuple[int, int] = (0, 0)
    sets: Tuple[int, int] = (0, 0)
    tiebreak_points: Optional[Tuple[int, int]] = None
    tiebreak_first_server: Optional[str] = None
    server: str = "p1"
    rules: ScoringRules = ScoringRules()
    winner: Optional[str] = None

    def __post_init__(self):
        if len(set(self.players)) != 2:
            raise ValidationError("a match needs exactly two distinct players")
        for name in (self.server,) + ((self.winner,) if self.winner else ()):
            if name not in self.players:
                raise ValidationError(f"unknown player: {name!r}")
        # a tiebreak's opening server is known exactly while the tiebreak runs
        if self.tiebreak_points is None and self.tiebreak_first_server is not None:
            raise ValidationError(f"tiebreak_first_server must be null outside a tiebreak, "
                                  f"got {self.tiebreak_first_server!r}")
        if self.tiebreak_points is not None and self.tiebreak_first_server not in self.players:
            raise ValidationError("a tiebreak needs tiebreak_first_server")

    def index_of(self, player: str) -> int:
        try:
            return self.players.index(player)
        except ValueError:
            raise ValidationError(f"unknown player: {player!r}") from None

    def opponent(self, player: str) -> str:
        return self.players[1 - self.index_of(player)]

    @property
    def in_tiebreak(self) -> bool:
        return self.tiebreak_points is not None

    def point_label(self, player: str) -> str:
        i = self.index_of(player)
        if self.points[i] >= 4:
            return "Adv"
        return POINT_LABELS[self.points[i]]

    def to_dict(self) -> dict:
        a, b = self.players
        out = {
            "players": list(self.players),
            "points": {a: self.point_label(a), b: self.point_label(b)},
            "games": {a: self.games[0], b: self.games[1]},
            "sets": {a: self.sets[0], b: self.sets[1]},
            "tiebreak_points": None,
            "tiebreak_first_server": self.tiebreak_first_server,
            "server": self.server,
            "rules": self.rules.to_dict(),
            "winner": self.winner,
        }
        if self.tiebreak_points is not None:
            out["tiebreak_points"] = {a: self.tiebreak_points[0], b: self.tiebreak_points[1]}
        return out

    @staticmethod
    def from_dict(obj: dict) -> "ScoreState":
        if not isinstance(obj, dict):
            raise ValidationError("score state must be an object")
        players = obj.get("players")
        if not (isinstance(players, (list, tuple)) and len(players) == 2
                and all(isinstance(p, str) for p in players)):
            raise ValidationError("score state needs exactly two player names")
        players = tuple(players)

        def pair(field, parse=lambda v: v):
            value = obj.get(field)
            if value is None:
                return None
            if not isinstance(value, dict) or set(value) != set(players):
                raise ValidationError(f"score field {field!r} must be keyed by both players")
            return (parse(value[players[0]]), parse(value[players[1]]))

        label_to_int = {label: i for i, label in enumerate(POINT_LABELS)}
        label_to_int["Adv"] = 4

        def parse_point(v):
            if not (isinstance(v, str) and v in label_to_int):
                raise ValidationError(f"bad point label {v!r}")
            return label_to_int[v]

        def parse_count(v):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValidationError(f"counts must be non-negative integers, got {v!r}")
            return v

        state = ScoreState(
            players=players,
            points=pair("points", parse_point) or (0, 0),
            games=pair("games", parse_count) or (0, 0),
            sets=pair("sets", parse_count) or (0, 0),
            tiebreak_points=pair("tiebreak_points", parse_count),
            tiebreak_first_server=obj.get("tiebreak_first_server"),
            server=obj.get("server", players[0]),
            rules=ScoringRules.from_dict(obj.get("rules", {})),
            winner=obj.get("winner"),
        )
        if state.points[0] >= 4 and state.points[1] >= 4:
            raise ValidationError("both players cannot hold advantage")
        return state


def new_match(players: Tuple[str, str] = ("p1", "p2"), server: str = "p1",
              rules: ScoringRules = ScoringRules()) -> ScoreState:
    return ScoreState(players=players, server=server, rules=rules)


# ------------------------------------------------------------
# Transitions
# ------------------------------------------------------------


def _tiebreak_server(first_server: str, other: str, points_played: int) -> str:
    # serve order: 1 point by the opener, then alternating pairs
    return first_server if ((points_played + 1) // 2) % 2 == 0 else other


def _is_deciding_set(state: ScoreState) -> bool:
    return state.sets[0] + state.sets[1] == state.rules.best_of - 1


def _tiebreak_trigger_games(state: ScoreState) -> int:
    """Games-all count at which the current set's tiebreak starts."""
    if _is_deciding_set(state) and state.rules.final_set_rule == "tiebreak_at_12":
        return 12
    return 6


def _won_set(state: ScoreState, games: Tuple[int, int], i: int) -> bool:
    trigger = _tiebreak_trigger_games(state)
    if games[i] == trigger + 1 and games[1 - i] == trigger:
        return True  # tiebreak just decided it
    return games[i] >= 6 and games[i] - games[1 - i] >= 2


def _complete_game(state: ScoreState, i: int, via_tiebreak: bool) -> ScoreState:
    games = list(state.games)
    games[i] += 1
    games = tuple(games)

    if via_tiebreak:
        next_server = state.opponent(state.tiebreak_first_server)
    else:
        next_server = state.opponent(state.server)

    if _won_set(state, games, i):
        sets = list(state.sets)
        sets[i] += 1
        sets = tuple(sets)
        winner = state.players[i] if sets[i] == state.rules.sets_to_win else None
        return replace(
            state,
            points=(0, 0),
            games=(0, 0),
            sets=sets,
            tiebreak_points=None,
            tiebreak_first_server=None,
            server=next_server,
            winner=winner,
        )

    trigger = _tiebreak_trigger_games(state)
    if games == (trigger, trigger):
        return replace(
            state,
            points=(0, 0),
            games=games,
            tiebreak_points=(0, 0),
            tiebreak_first_server=next_server,
            server=next_server,
        )
    return replace(
        state,
        points=(0, 0),
        games=games,
        tiebreak_points=None,
        tiebreak_first_server=None,
        server=next_server,
    )


def advance_score(state: ScoreState, point_winner: str) -> ScoreState:
    """Apply one completed point and return the new state.

    Raises ValidationError for an unknown player or a match that is already
    decided.
    """
    if state.winner is not None:
        raise ValidationError("cannot advance a match that is already decided")
    i = state.index_of(point_winner)

    if state.in_tiebreak:
        tb = list(state.tiebreak_points)
        tb[i] += 1
        if tb[i] >= TIEBREAK_TARGET and tb[i] - tb[1 - i] >= 2:
            return _complete_game(state, i, via_tiebreak=True)
        played = tb[0] + tb[1]
        other = state.opponent(state.tiebreak_first_server)
        return replace(
            state,
            tiebreak_points=tuple(tb),
            server=_tiebreak_server(state.tiebreak_first_server, other, played),
        )

    pts = list(state.points)
    pts[i] += 1
    if pts[i] >= 4 and pts[i] - pts[1 - i] >= 2:
        return _complete_game(state, i, via_tiebreak=False)
    if pts[0] >= 3 and pts[1] >= 3:
        # collapse repeated deuces so the representation stays bounded
        trim = min(pts) - 3
        pts = [pts[0] - trim, pts[1] - trim]
    return replace(state, points=tuple(pts))


def point_context_labels(state: ScoreState) -> Set[str]:
    """Labels describing what the next point could decide.

    A label is present iff winning the next point would complete a game, a
    set, or the match for some player; BreakPoint means that player is the
    receiver. Decided matches have no next point and report no labels.
    """
    if state.winner is not None:
        return set()
    labels: Set[str] = set()
    for player in state.players:
        after = advance_score(state, player)
        i = state.index_of(player)
        won_set = after.sets[i] == state.sets[i] + 1
        won_game = won_set or after.games[i] == state.games[i] + 1
        if won_game:
            labels.add(LABEL_GAME)
            if player != state.server:
                labels.add(LABEL_BREAK)
        if won_set:
            labels.add(LABEL_SET)
        if after.winner == player:
            labels.add(LABEL_MATCH)
    return labels
