"""Reading and writing every file of a corpus or run directory.

A ``.json`` file holds one JSON object, whose ``schema`` and ``version`` keys
name its schema; a ``.jsonl`` file holds one object per line, after a
``{"schema": ..., "version": 1}`` header line when it has a schema; summaries
and timings are plain text; a ``.npy`` file holds one array. Objects are written with
sorted keys and a newline, arrays with ``np.save``'s fixed header, so equal content gives
equal bytes. Each file is written to ``<name>.tmp`` beside its target, creating the
directory if needed, and moved into place with ``os.replace``, so a failed write leaves
the earlier file, or none, never part of one.

Readers require every record to be an object, and check the schema and, given a field table,
each record's fields: each value must have exactly a JSON type its table lists, and every
number in it must be finite (no writer writes ``NaN``, ``Infinity`` or an integer too large
for a float). A violation raises the caller's error type naming ``path:line`` and the field.
:func:`record_fields` derives a field table.
"""

from __future__ import annotations

import json
import os
from itertools import chain, repeat
from pathlib import Path
from typing import get_type_hints

import numpy as np

VERSION = 1  # every schema is at version 1; readers reject any other
NUMBER = (int, float)  # json reads an integral value such as -1 back as an int
FLOAT_LIMIT = 2**1024 - 2**970  # float() of an int at least this large overflows


class NumberList:
    """The field type of a list whose items are all finite numbers."""


# The JSON types of each field annotation a record may hold
_JSON_TYPES = {int: int, bool: bool, str: str, float: NUMBER, float | None: (*NUMBER, type(None)),
               list[float]: NumberList}

# json.dumps(..., sort_keys=True) would build a new encoder for every record
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _dump(record: dict) -> str:
    return _ENCODER.encode(record) + "\n"


def record_fields(cls, skip=()) -> dict:
    """The field table of a dataclass's fields not in ``skip``, in field order: name -> JSON types."""
    hints = {name: hint for name, hint in get_type_hints(cls).items() if name not in skip}
    if unknown := {name: hint for name, hint in hints.items() if hint not in _JSON_TYPES}:
        raise TypeError(f"{cls.__name__}: no JSON type for the fields {unknown}")
    return {name: _JSON_TYPES[hint] for name, hint in hints.items()}


def _replace(path, write, binary: bool = False) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with tmp.open("wb") if binary else tmp.open("w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    _replace(path, lambda fh: fh.write(text))


def write_json(path, record: dict, schema: str | None = None) -> None:
    header = {} if schema is None else {"schema": schema, "version": VERSION}
    write_text(path, _dump({**header, **record}))


def write_jsonl(path, records, schema: str | None = None) -> None:
    """One line per record; a record already encoded (a ``str`` line) is written as is."""
    header = [] if schema is None else [{"schema": schema, "version": VERSION}]
    lines = (rec if isinstance(rec, str) else _dump(rec) for rec in chain(header, records))
    _replace(path, lambda fh: fh.writelines(lines))


def write_npy(path, array: np.ndarray) -> None:
    _replace(path, lambda fh: np.save(fh, array, allow_pickle=False), binary=True)


def read_npy(path, error) -> np.ndarray:
    """The one array of a ``.npy`` file: no pickled object, and no byte after its data."""
    path = Path(path)
    if not path.is_file():
        raise error(f"{path}: missing file")
    with path.open("rb") as fh:
        try:  # the .npy format alone: np.load would also open a zip (.npz) or pickle file
            array = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as e:  # an empty file, a cut or bad header, cut data, or pickled objects
            raise error(f"{path}: not a .npy array: {e}") from e
        if fh.read(1):
            raise error(f"{path}: bytes after the array's data")
    return array


def _parse(path, lineno: int, text: str, error) -> dict:
    try:
        rec = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer literal past int()'s digit limit
        # text starts at line ``lineno``; an error past its final newline is on its last line
        line = lineno + min(getattr(e, "lineno", 1), len(text.splitlines()) or 1) - 1
        raise error(f"{path}:{line}: invalid JSON: {getattr(e, 'msg', e)}") from e
    if not isinstance(rec, dict):
        raise error(f"{path}:{lineno}: record is not an object")
    return rec


def _check_schema(where: str, rec: dict, schema: str, error) -> None:
    if rec.get("schema") != schema or rec.get("version") != VERSION:
        raise error(f"{where}: expected {schema!r} version {VERSION}, "
                    f"found {rec.get('schema')!r} version {rec.get('version')!r}")


class _Fields:
    """A field table: name -> allowed type or types; a name ending in ``?`` may be absent."""

    def __init__(self, table: dict):
        self.types = {k.rstrip("?"): v if isinstance(v, tuple) else (v,) for k, v in table.items()}
        self.required = {k for k in table if not k.endswith("?")}

    def check(self, where: str, rec: dict, error) -> None:
        types, keys = self.types, rec.keys()
        if keys != types.keys() and not self.required <= keys <= types.keys():
            raise error(f"{where}: missing fields {sorted(self.required - keys)}, "
                        f"unknown fields {sorted(keys - types.keys())}")
        for name, value in rec.items():
            kind = type(value)
            if kind not in types[name]:  # exact: true and false are not numbers
                self._check_unlisted(where, name, value, error)
            elif kind is float and value - value:  # nan, not 0.0, for NaN or an infinity
                raise error(f"{where}: field {name!r} is {json.dumps(value)}, expected a finite number")
            elif kind is int and abs(value) >= FLOAT_LIMIT:  # in any field, so no message prints it
                raise error(f"{where}: field {name!r} is an integer beyond the float range, "
                            "expected a finite number")

    def _check_unlisted(self, where: str, name: str, value, error) -> None:
        """Refuse a value of an unlisted type, unless a list of finite numbers where NumberList is."""
        if type(value) is list and NumberList in self.types[name]:
            for i, item in enumerate(value):
                if type(item) not in NUMBER or item - item or abs(item) >= FLOAT_LIMIT:
                    shown = "an integer beyond the float range" if type(item) is int else json.dumps(item)
                    raise error(f"{where}: field {name!r} item {i} is {shown}, expected a finite number")
            return
        expected = " or ".join("list" if t is NumberList else t.__name__ for t in self.types[name])
        raise error(f"{where}: field {name!r} is {type(value).__name__}, expected {expected}")


def check_fields(where: str, rec: dict, table: dict, error) -> None:
    """The readers' field check of a record read otherwise; ``where`` starts each message."""
    _Fields(table).check(where, rec, error)


def read_json(path, error, schema: str, fields: dict | None = None) -> dict:
    """The object of a ``.json`` file; ``fields`` lists those besides schema and version."""
    path = Path(path)
    if not path.is_file():
        raise error(f"{path}: missing file")
    rec = _parse(path, 1, path.read_text(encoding="utf-8"), error)
    _check_schema(f"{path}:1", rec, schema, error)
    if fields is not None:
        _Fields({"schema": str, "version": int, **fields}).check(f"{path}:1", rec, error)
    return rec


def read_jsonl(path, error, fields: dict, schema: str | None = None):
    """The records after the header, if any, and ``where``: ``where(i)`` is record i's ``path:line``.

    All lines are parsed in one ``json.loads`` call when each holds one ``{`` and one ``}``
    (so no object spans two lines). If that call fails or finds another number of records
    than lines, each line is parsed alone instead. Each record is then checked in file order,
    so the first fault raises naming its ``path:line`` either way.
    """
    path = Path(path)
    if not path.is_file():
        raise error(f"{path}: missing file")
    table, name, first = _Fields(fields), str(path), 1 if schema is None else 2
    with path.open("r", encoding="utf-8") as fh:
        if schema is not None:
            _check_schema(f"{path}:1", _parse(path, 1, fh.readline(), error), schema, error)
        lines = fh.readlines()
    ones = [1] * len(lines)
    try:
        one_each = [*map(str.count, lines, repeat("{"))] == ones == [*map(str.count, lines, repeat("}"))]
        recs = json.loads(f"[{','.join(lines)}]") if one_each else None
    except ValueError:  # a JSONDecodeError, or an integer literal past int()'s digit limit
        recs = None
    if recs is None or len(recs) != len(lines):  # each line checked before the next is parsed
        recs = (_parse(name, lineno, line, error) for lineno, line in enumerate(lines, start=first))
    checked = []
    for lineno, rec in enumerate(recs, start=first):
        table.check(f"{name}:{lineno}", rec, error)
        checked.append(rec)
    return checked, lambda i: f"{name}:{first + i}"
