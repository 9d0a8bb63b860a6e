"""Field codecs: how each record of a rallyforge document is written as JSON and read back.

A record lists its fields once, as (JSON key, attribute, codec); its writer
and its reader both walk that list, and its codec keeps it, so the config
reader walks it for keys no field names. The clip (all but its frame list),
the scene (``rallyforge-scene/1``), the simulator's ground-truth document and
the config all read through these codecs, so each JSON type check exists once,
and a score state, its rules and a point outcome read alike in every
document. A codec checks the type of every value it reads: numbers are finite
and never bools or strings, integers are not fractions or bools, flags are
booleans, strings are strings, enums hold one of their names, spans are
``[start, end]`` and court points ``[x, y, z]`` of finite numbers.

A value a codec rejects raises ``Malformed``, whose path gains each key and
index that holds the value as it passes up through the readers, so a path is
built only for a value that fails. ``located`` words it as that path, then
the problem; ``read_document`` turns it into one ``ValidationError`` such as
``malformed scene document: camera.keyframes[12].t must be a finite number,
got '0'``, and the clip reader raises the bare form, as in
``events[2].player_id must be a string, got ['p1']``. A rule a record's own
constructor checks is reported the same way, at the record's path.

``collector_paused`` turns Python's cyclic garbage collector off for the
length of a call and then restores the state it found: on again after a
normal return or a raise, still off if the caller had it off. The three
functions that build or read a whole document, ``ingest.parse_clip``,
``scene.parse_scene`` and ``simulate.project_clip``, run under it. A long
clip's JSON tree is 100-200k containers, enough to set off a full collection
over the whole heap, yet it holds no reference cycles, so reference counting
alone frees it. The pause is process-wide: another thread runs without the
collector while one of these calls runs.
"""

from __future__ import annotations

import gc
import json
import math
import reprlib
from functools import partial, wraps
from itertools import repeat
from operator import attrgetter
from typing import Any, Callable, Mapping, NamedTuple

from .court import CourtPoint
from .errors import ConfigError, ValidationError

# what a record's constructor raises for a rule its fields break
_INVALID = (ValidationError, ConfigError)


def collector_paused(fn: Callable) -> Callable:
    """``fn`` with the cyclic garbage collector off while it runs, then back as it was."""
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def is_finite_number(value) -> bool:
    """A JSON number, not a bool, that converts to a finite float (a huge integer does not)."""
    if type(value) is float:  # most values: finite exactly when it minus itself is zero
        return value - value == 0.0
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


class Malformed(Exception):
    """A JSON value its codec rejects. ``path`` gains each key and index that
    holds the value, innermost first, as the exception passes up through the
    readers."""

    def __init__(self, problem: str, *path: str):
        super().__init__(problem)
        self.path = list(path)

    def where(self) -> str:
        """The path from the outermost reader, as ``.key[0]["name"]``."""
        return "".join(reversed(self.path))


_short = reprlib.Repr()
_short.maxstring = _short.maxother = 40
_short.maxlist = 3


def bad(expected: str, value, *path: str) -> Malformed:
    return Malformed(f"must be {expected}, got {_short.repr(value)}", *path)


class Codec(NamedTuple):
    """How one field's value is written as JSON and read back."""

    write: Callable[[Any], Any]
    read: Callable[[Any], Any]  # raises Malformed
    defaulted: bool = False  # the key may be left out; the attribute keeps its default
    fields: tuple = ()  # a record's own field list, for a walk over the keys it accepts


def _same(value):
    return value


def _exactly(kind: type, expected: str) -> Codec:
    """A value of JSON type ``kind`` (a bool is not an int here), kept as read."""
    def read(value):
        if type(value) is not kind:
            raise bad(expected, value)
        return value
    return Codec(_same, read)


def _read_number(value) -> float:
    if not is_finite_number(value):
        raise bad("a finite number", value)
    return float(value)


def _read_count(value) -> int:
    if type(value) is not int or value < 0:
        raise bad("a non-negative integer", value)
    return value


def _numbers(value, n: int, expected: str) -> list:
    if not (type(value) is list and len(value) == n and all(map(is_finite_number, value))):
        raise bad(expected, value)
    return value


def _read_point(value, expected: str = "[x, y, z] of finite numbers") -> CourtPoint:
    if type(value) is list and len(value) == 3:  # most points: three floats, finite if their sum is
        x, y, z = value
        if type(x) is float and type(y) is float and type(z) is float and math.isfinite(x + y + z):
            return CourtPoint(x, y, z)
    return CourtPoint(*map(float, _numbers(value, 3, expected)))


def floats(n: int, expected: str) -> Codec:
    """A list of ``n`` finite numbers, read as a tuple of floats."""
    return Codec(list, lambda value: tuple(map(float, _numbers(value, n, expected))))


NUMBER = Codec(_same, _read_number)
INTEGER = _exactly(int, "an integer")
COUNT = Codec(_same, _read_count)
STRING = _exactly(str, "a string")
BOOL = _exactly(bool, "true or false")
OBJECT = _exactly(dict, "an object")  # cue payloads and motion_params, kept as read
SPAN = floats(2, "[start, end] of finite numbers")
XYZ = floats(3, "[x, y, z] of finite numbers")
POINT = Codec(lambda p: list(p.as_xyz()), _read_point)
# an entity name or a court point: camera look_at, shot target and cue anchor
PLACE = Codec(lambda p: list(p.as_xyz()) if isinstance(p, CourtPoint) else p,
              lambda v: v if type(v) is str else _read_point(
                  v, "an entity name or [x, y, z] of finite numbers"))


def one_of(names: Mapping[str, Any], expected: str = "one of") -> Codec:
    """One of the strings ``names`` holds, read as the value it maps to (written as is)."""
    expected = f"{expected} {', '.join(names)}"

    def read(value):
        if type(value) is not str or value not in names:
            raise bad(expected, value)
        return names[value]
    return Codec(_same, read)


def enum_of(cls) -> Codec:
    """One of the names of the enum ``cls``, read as its member."""
    return one_of({m.value: m for m in cls})._replace(write=attrgetter("value"))


def defaulted(codec: Codec) -> Codec:
    return codec._replace(defaulted=True)


def optional(codec: Codec) -> Codec:
    """``codec``'s value or null."""
    write, read = codec.write, codec.read
    return Codec(lambda value: None if value is None else write(value),
                 lambda value: None if value is None else read(value))


def _read_each(reads, values) -> tuple:
    """Each of ``values`` read by its reader in ``reads``; a rejected item gains its index."""
    out = []
    for i, (read, value) in enumerate(zip(reads, values)):
        try:
            out.append(read(value))
        except Malformed as e:
            e.path.append(f"[{i}]")
            raise
    return tuple(out)


def row(expected: str, *codecs: Codec) -> Codec:
    """A list of one value per codec, in order, read as a tuple."""
    writes = [c.write for c in codecs]
    reads = [c.read for c in codecs]

    def read(values) -> tuple:
        if type(values) is not list or len(values) != len(reads):
            raise bad(expected, values)
        return _read_each(reads, values)
    return Codec(lambda values: [w(v) for w, v in zip(writes, values)], read)


def list_of(codec: Codec) -> Codec:
    write, read = codec.write, codec.read

    def read_all(values) -> tuple:
        if type(values) is not list:
            raise bad("a list", values)
        return _read_each(repeat(read), values)
    return Codec(lambda values: [write(v) for v in values], read_all)


def _key_path(name: str) -> str:
    return f"[{json.dumps(name)}]"


def map_of(codec: Codec) -> Codec:
    """An object of string keys to values of ``codec``, read as a dict."""
    write, read = codec.write, codec.read

    def read_all(obj) -> dict:
        if type(obj) is not dict:
            raise bad("an object", obj)
        out = {}
        for name, value in obj.items():
            try:
                out[name] = read(value)
            except Malformed as e:
                e.path.append(_key_path(name))
                raise
        return out
    return Codec(lambda items: {k: write(v) for k, v in items.items()}, read_all)


def keyed_by(attr: str, codec: Codec, key: Callable = _same) -> Codec:
    """An object holding each item under ``key`` of the item's own ``attr``."""
    read, write, get = map_of(codec).read, codec.write, attrgetter(attr)

    def read_all(obj) -> dict:
        items = read(obj)
        for name, item in items.items():
            if key(get(item)) != name:
                raise bad(f"its key {name!r}", key(get(item)), "." + attr, _key_path(name))
        return {get(item): item for item in items.values()}
    return Codec(lambda items: {key(k): write(v) for k, v in items.items()}, read_all)


def field_list(suffix: str = "", **codecs: Codec) -> tuple:
    """(JSON key, attribute, codec) per field; a key is its attribute + ``suffix``."""
    return tuple((attr + suffix, attr, codec) for attr, codec in codecs.items())


def write_fields(fields: tuple, obj) -> dict:
    return {key: write(getattr(obj, attr)) for key, attr, (write, _, _, _) in fields}


def read_fields(fields: tuple, obj) -> dict:
    if type(obj) is not dict:
        raise bad("an object", obj)
    attributes = {}
    for key, attr, (_, read, optional_key, _) in fields:
        if key in obj:
            try:
                attributes[attr] = read(obj[key])
            except Malformed as e:
                e.path.append("." + key)
                raise
        elif not optional_key:
            raise Malformed("is missing", "." + key)
    return attributes


def record(cls, fields: tuple) -> Codec:
    """A JSON object with one key per field, read into ``cls(**attributes)``."""
    def read(obj):
        attributes = read_fields(fields, obj)
        try:
            return cls(**attributes)
        except _INVALID as e:
            raise Malformed(f"is invalid: {e}") from None
    return Codec(partial(write_fields, fields), read, fields=fields)


def located(e: Malformed, document: str) -> str:
    """The path of the value ``e`` rejects, then its problem: ``header.fps must be ...``.

    A document that is not an object at all is named ``document``.
    """
    path = e.where()[1:]  # each path starts with ".key"
    return f"{path or document} {e}"


def read_document(what: str, cls, fields: tuple, obj):
    """``cls(**attributes)``, the attributes read from the JSON object ``obj`` by ``fields``.

    A value a codec rejects, or a rule ``cls`` itself checks, raises
    ``ValidationError("malformed {what}: {path} {problem}")``.
    """
    try:
        return cls(**read_fields(fields, obj))
    except Malformed as e:
        problem = located(e, "the document")
    except _INVALID as e:
        problem = str(e)
    raise ValidationError(f"malformed {what}: {problem}") from None
