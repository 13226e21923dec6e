"""Reading and writing every file of a corpus or run directory.

A ``.json`` file holds one JSON object; a ``.jsonl`` file holds one object
per line, after a ``{"schema": ..., "version": 1}`` header line when it has a
schema; summaries and timings are plain text. Objects are written with sorted
keys and a newline, so equal content gives equal bytes. Each file is written
to ``<name>.tmp`` beside its target, creating the directory if needed, and
moved into place with ``os.replace``, so a failed write leaves the earlier
file, or none, never part of one.

Readers stream ``.jsonl`` files line by line, require every record to be an
object, and check the schema and, given a field table, each record's fields
and exact JSON value types. A violation raises the caller's error type naming
``path:line``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

VERSION = 1  # every schema is at version 1; readers reject any other
NUMBER = (int, float)  # json reads an integral value such as -1 back as an int

# json.dumps(..., sort_keys=True) would build a new encoder for every record
_ENCODER = json.JSONEncoder(sort_keys=True)


def _dump(record: dict) -> str:
    return _ENCODER.encode(record) + "\n"


def _replace(path, write) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    _replace(path, lambda fh: fh.write(text))


def write_json(path, record: dict) -> None:
    write_text(path, _dump(record))


def write_jsonl(path, records, schema: str | None = None) -> None:
    def write(fh):
        if schema is not None:
            fh.write(_dump({"schema": schema, "version": VERSION}))
        for rec in records:
            fh.write(_dump(rec))

    _replace(path, write)


def _parse(path, lineno: int, text: str, error) -> dict:
    try:
        rec = json.loads(text)
    except json.JSONDecodeError as e:
        # text starts at line ``lineno``; an error past its final newline is on its last line
        line = lineno + min(e.lineno, len(text.splitlines()) or 1) - 1
        raise error(f"{path}:{line}: invalid JSON: {e.msg}") from e
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
        keys = rec.keys()
        if keys != self.types.keys() and not self.required <= keys <= self.types.keys():
            raise error(f"{where}: missing fields {sorted(self.required - keys)}, "
                        f"unknown fields {sorted(keys - self.types.keys())}")
        for name, value in rec.items():
            if type(value) not in self.types[name]:  # exact: true and false are not numbers
                expected = " or ".join(t.__name__ for t in self.types[name])
                raise error(f"{where}: field {name!r} is {type(value).__name__}, expected {expected}")


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
    """Yield ``("path:line", record)`` for each record after the header, if any."""
    path = Path(path)
    if not path.is_file():
        raise error(f"{path}: missing file")
    table = _Fields(fields)
    with path.open("r", encoding="utf-8") as fh:
        if schema is not None:
            _check_schema(f"{path}:1", _parse(path, 1, fh.readline(), error), schema, error)
        name = str(path)
        for lineno, line in enumerate(fh, start=1 if schema is None else 2):
            where = f"{name}:{lineno}"
            rec = _parse(name, lineno, line, error)
            table.check(where, rec, error)
            yield where, rec
