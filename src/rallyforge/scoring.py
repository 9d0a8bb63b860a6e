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

A ``ScoreState`` holds only a score that ``advance_score`` reaches from
``new_match``, so a clip header, truth or scene that carries any other score
is invalid input. No game, set or match in it is already won, unless
``winner`` names the player who won the match; then points and games are 0-0
and no tiebreak runs. A tiebreak runs exactly when games are at six all (or
twelve all in a deciding set held back), with points at 0-0, neither player
yet through it, and the server its rotation gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

from .errors import ValidationError
from .fields import (COUNT, INTEGER, STRING, Codec, bad, defaulted, field_list, map_of, one_of,
                     optional, record, row, write_fields)

POINT_LABELS = ("0", "15", "30", "40", "Adv")  # by points won, 4 being advantage

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


# a score state's "rules", and the config's "scoring" section
RULES_FIELDS = field_list(best_of=defaulted(INTEGER), final_set_rule=defaulted(STRING))


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
        players, tiebreak = self.players, self.tiebreak_points
        if len(set(players)) != 2:
            raise ValidationError("a match needs exactly two distinct players")
        for name in (self.server,) + ((self.winner,) if self.winner else ()):
            if name not in players:
                raise ValidationError(f"unknown player: {name!r}")
        # a tiebreak's opening server is known exactly while the tiebreak runs
        if tiebreak is None and self.tiebreak_first_server is not None:
            raise ValidationError(f"tiebreak_first_server must be null outside a tiebreak, "
                                  f"got {self.tiebreak_first_server!r}")
        if tiebreak is not None and self.tiebreak_first_server not in players:
            raise ValidationError("a tiebreak needs tiebreak_first_server")
        points, games, sets = self.points, self.games, self.sets
        if points[0] >= 4 and points[1] >= 4:
            raise ValidationError("both players cannot hold advantage")
        # and only a score that advance_score reaches from new_match
        if self.winner is not None:
            w = players.index(self.winner)
            if not sets[w] == self.rules.sets_to_win > sets[1 - w]:
                raise ValidationError(f"sets {_score(sets)} do not make {self.winner!r} the winner")
            if points != (0, 0) or games != (0, 0) or tiebreak is not None:
                raise ValidationError("a decided match has points and games at 0-0 and no tiebreak")
            return
        if max(sets) >= self.rules.sets_to_win:
            raise ValidationError(f"sets {_score(sets)} already won the match, but winner is null")
        trigger = _tiebreak_games(self)
        # a count past the trigger was reached by two clear or by the tiebreak
        if max(games) > trigger or _won(games, 6):
            raise ValidationError(f"games {_score(games)} already won the set")
        if _won(points, 4):
            raise ValidationError(f"points {self._labels()} already won the game")
        if (tiebreak is not None) != (games == (trigger, trigger)):
            raise ValidationError(f"a tiebreak runs exactly at games {trigger}-{trigger}, got one "
                                  f"{'at' if tiebreak else 'missing at'} games {_score(games)}")
        if tiebreak is not None:
            if points != (0, 0):
                raise ValidationError(f"points must be 0-0 in a tiebreak, got {self._labels()}")
            if _won(tiebreak, TIEBREAK_TARGET):
                raise ValidationError(f"tiebreak points {_score(tiebreak)} already won the game")
            server = _tiebreak_server(self, self.tiebreak_first_server, tiebreak)
            if self.server != server:
                raise ValidationError(f"tiebreak points {_score(tiebreak)} are served by "
                                      f"{server!r}, got {self.server!r}")

    def _labels(self) -> str:
        return "-".join(map(self.point_label, self.players))

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
        return POINT_LABELS[min(self.points[self.index_of(player)], 4)]

    def to_dict(self) -> dict:
        """The JSON object of this state: each pair keyed by player, points as labels."""
        a, b = self.players
        out = {
            "players": list(self.players),
            "points": {a: self.point_label(a), b: self.point_label(b)},
            "games": {a: self.games[0], b: self.games[1]},
            "sets": {a: self.sets[0], b: self.sets[1]},
            "tiebreak_points": None,
            "tiebreak_first_server": self.tiebreak_first_server,
            "server": self.server,
            "rules": write_fields(RULES_FIELDS, self.rules),
            "winner": self.winner,
        }
        if self.tiebreak_points is not None:
            out["tiebreak_points"] = {a: self.tiebreak_points[0], b: self.tiebreak_points[1]}
        return out


def _score_state(players: Tuple[str, str], points=None, games=None, sets=None,
                 tiebreak_points=None, server=None, **fields) -> ScoreState:
    """A ScoreState from its JSON fields: each pair is an object keyed by both players,
    points, games and sets default to zero and the server to the first player."""
    def pair(name: str, by_player: Optional[dict]) -> Optional[Tuple[int, int]]:
        if by_player is None:
            return None
        if by_player.keys() != set(players):
            raise bad("an object keyed by both players", by_player, "." + name)
        return (by_player[players[0]], by_player[players[1]])

    return ScoreState(players=players, points=pair("points", points) or (0, 0),
                      games=pair("games", games) or (0, 0), sets=pair("sets", sets) or (0, 0),
                      tiebreak_points=pair("tiebreak_points", tiebreak_points),
                      server=players[0] if server is None else server, **fields)


_POINTS = one_of({label: i for i, label in enumerate(POINT_LABELS)}, "a point label, one of")
_COUNTS = defaulted(optional(map_of(COUNT)))
# read only: to_dict writes a state, since its pairs are keyed by its own players
_SCORE_FIELDS = field_list(
    players=row("two player names", STRING, STRING),
    points=defaulted(optional(map_of(_POINTS))), games=_COUNTS, sets=_COUNTS,
    tiebreak_points=_COUNTS, tiebreak_first_server=defaulted(optional(STRING)),
    server=defaulted(STRING), rules=defaulted(record(ScoringRules, RULES_FIELDS)),
    winner=defaulted(optional(STRING)))
SCORE_STATE = Codec(ScoreState.to_dict, record(_score_state, _SCORE_FIELDS).read)


def new_match(players: Tuple[str, str] = ("p1", "p2"), server: str = "p1",
              rules: ScoringRules = ScoringRules()) -> ScoreState:
    return ScoreState(players=players, server=server, rules=rules)


# ------------------------------------------------------------
# Transitions
# ------------------------------------------------------------


def _tiebreak_games(state: ScoreState) -> int:
    """Games-all count at which the tiebreak of ``state``'s current set starts."""
    deciding = state.sets[0] + state.sets[1] == state.rules.best_of - 1
    return 12 if deciding and state.rules.final_set_rule == "tiebreak_at_12" else 6


def _won(pair: Tuple[int, int], target: int) -> bool:
    """Whether a count of ``pair`` has reached ``target`` two clear of the other."""
    a, b = pair
    return a >= target and a - b >= 2 or b >= target and b - a >= 2


def _tiebreak_server(state: ScoreState, first_server: str, tiebreak: Tuple[int, int]) -> str:
    # serve order: 1 point by the opener, then alternating pairs
    played = tiebreak[0] + tiebreak[1]
    return first_server if (played + 1) // 2 % 2 == 0 else state.opponent(first_server)


def _score(pair: tuple) -> str:
    return f"{pair[0]}-{pair[1]}"


def _plus_one(pair: Tuple[int, int], i: int) -> Tuple[int, int]:
    return (pair[0] + 1, pair[1]) if i == 0 else (pair[0], pair[1] + 1)


def advance_score(state: ScoreState, point_winner: str) -> ScoreState:
    """Apply one completed point and return the new state.

    Works out each field once: the point, then the game, set and match, each
    only when the level below it has just been won. Raises ValidationError
    for an unknown player or a match that is already decided.
    """
    if state.winner is not None:
        raise ValidationError("cannot advance a match that is already decided")
    i = state.index_of(point_winner)
    points, games, sets = state.points, state.games, state.sets
    tiebreak, first_server = state.tiebreak_points, state.tiebreak_first_server
    server, winner = state.server, None

    if tiebreak is not None:
        tiebreak = _plus_one(tiebreak, i)
        game_won = _won(tiebreak, TIEBREAK_TARGET)
        if not game_won:
            server = _tiebreak_server(state, first_server, tiebreak)
    else:
        points = _plus_one(points, i)
        game_won = _won(points, 4)
        if points == (4, 4):
            points = (3, 3)  # advantage lost: back to deuce

    if game_won:
        # whoever did not open this game, or its tiebreak, serves the next one
        server = state.opponent(state.tiebreak_first_server if state.in_tiebreak else state.server)
        points, games, tiebreak, first_server = (0, 0), _plus_one(games, i), None, None
        if state.in_tiebreak or _won(games, 6):  # a tiebreak game decides its set
            games, sets = (0, 0), _plus_one(sets, i)
            if sets[i] == state.rules.sets_to_win:
                winner = point_winner
        elif games == (_tiebreak_games(state),) * 2:
            tiebreak, first_server = (0, 0), server

    return ScoreState(players=state.players, points=points, games=games, sets=sets,
                      tiebreak_points=tiebreak, tiebreak_first_server=first_server,
                      server=server, rules=state.rules, winner=winner)


def point_context_labels(state: ScoreState) -> Set[str]:
    """Labels describing what the next point could decide.

    A label is present iff winning the next point would complete a game, a
    set, or the match for some player; BreakPoint means that player is the
    receiver. Decided matches have no next point and report no labels.
    """
    if state.winner is not None:
        return set()
    labels: Set[str] = set()
    for i, player in enumerate(state.players):
        after = advance_score(state, player)
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
