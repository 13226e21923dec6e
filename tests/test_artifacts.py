import io
import pickle
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from iplfilter.artifacts import (NUMBER, NumberList, _check_schema, _Fields, _parse, check_fields, read_json,
                                 read_jsonl, read_npy, write_json, write_jsonl, write_npy)


class Bad(ValueError):
    pass


def records_then_failure(n):
    for i in range(n):
        yield {"i": i}
    raise RuntimeError("interrupted")


def _npz() -> bytes:
    out = io.BytesIO()
    np.savez(out, frames=np.zeros((2, 2)))
    return out.getvalue()


class TestAtomicWrite:
    def test_failed_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl(path, [{"i": 0}], "demo")
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="interrupted"):
            write_jsonl(path, records_then_failure(3), "demo")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            write_jsonl(tmp_path / "r.jsonl", records_then_failure(3))
        assert list(tmp_path.iterdir()) == []

    def test_format(self, tmp_path):
        write_jsonl(tmp_path / "r.jsonl", [{"b": 1, "a": [0.5]}], "demo")
        assert (tmp_path / "r.jsonl").read_text() == (
            '{"schema": "demo", "version": 1}\n{"a": [0.5], "b": 1}\n'
        )
        write_json(tmp_path / "r.json", {"version": 1, "schema": "demo"})
        assert (tmp_path / "r.json").read_text() == '{"schema": "demo", "version": 1}\n'

    @pytest.mark.parametrize("write", [
        lambda path: write_json(path, {"x": float("nan")}, "demo"),
        lambda path: write_jsonl(path, [{"x": 1.0}, {"x": [0.5, float("inf")]}], "demo"),
    ], ids=["json", "jsonl"])
    def test_non_finite_number_is_refused_and_nothing_written(self, tmp_path, write):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write(tmp_path / "r.json")
        assert list(tmp_path.iterdir()) == []

    def test_npy_bytes_are_np_save_s(self, tmp_path):
        frames = np.arange(6.0).reshape(3, 2)
        write_npy(tmp_path / "a.npy", frames)
        np.save(tmp_path / "b.npy", frames)
        assert (tmp_path / "a.npy").read_bytes() == (tmp_path / "b.npy").read_bytes()
        assert np.array_equal(read_npy(tmp_path / "a.npy", Bad), frames)

    def test_object_array_is_refused_and_nothing_written(self, tmp_path):
        with pytest.raises(ValueError, match="allow_pickle=False"):
            write_npy(tmp_path / "a.npy", np.array([1, "a"], dtype=object))
        assert list(tmp_path.iterdir()) == []


class TestReaders:
    FIELDS = {"n": int, "x": NUMBER, "note?": str, "xs?": NumberList}

    def write_lines(self, path, *lines):
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_streams_checked_records(self, tmp_path):
        path = self.write_lines(tmp_path / "r.jsonl", '{"schema": "demo", "version": 1}',
                                '{"n": 1, "x": 2}', '{"n": 2, "x": 0.5, "note": "y"}')
        assert read_pairs(path, Bad, self.FIELDS, "demo") == [
            (f"{path}:2", {"n": 1, "x": 2}),
            (f"{path}:3", {"n": 2, "x": 0.5, "note": "y"}),
        ]

    @pytest.mark.parametrize("lines, message", [
        (['{"schema": "other", "version": 1}'], r":1: expected 'demo' version 1, found 'other'"),
        (['{"schema": "demo", "version": 2}'], r":1: expected 'demo' version 1, .* version 2"),
        ([], r":1: invalid JSON"),
        (['{"schema": "demo", "version": 1}', "[1]"], r":2: record is not an object"),
        (['{"schema": "demo", "version": 1}', '{"n": 1, "x": 1}', '{"n": 1'], r":3: invalid JSON"),
        (['{"schema": "demo", "version": 1}', '{"n": 1}'], r":2: missing fields \['x'\]"),
        (['{"schema": "demo", "version": 1}', '{"n": 1, "x": 1, "z": 0}'],
         r":2: missing fields \[\], unknown fields \['z'\]"),
        (['{"schema": "demo", "version": 1}', '{"n": 1, "x": "1"}'],
         r":2: field 'x' is str, expected int or float"),
        (['{"schema": "demo", "version": 1}', '{"n": 1, "x": 1, "note": null}'],
         r":2: field 'note' is NoneType, expected str"),
        (['{"schema": "demo", "version": 1}', '{"n": 1, "x": NaN}'],
         r":2: field 'x' is NaN, expected a finite number"),
        (['{"schema": "demo", "version": 1}', '{"n": 1, "x": -1e999}'],
         r":2: field 'x' is -Infinity, expected a finite number"),
        (['{"schema": "demo", "version": 1}', '{"n": 1, "x": 1, "xs": 0.5}'],
         r":2: field 'xs' is float, expected list"),
        (['{"schema": "demo", "version": 1}', '{"n": 1, "x": 1, "xs": [1, 0.5, true]}'],
         r":2: field 'xs' item 2 is true, expected a finite number"),
        (['{"schema": "demo", "version": 1}', '{"n": 1, "x": 1, "xs": [Infinity]}'],
         r":2: field 'xs' item 0 is Infinity, expected a finite number"),
    ])
    def test_rejects_and_names_line(self, tmp_path, lines, message):
        path = self.write_lines(tmp_path / "r.jsonl", *lines)
        with pytest.raises(Bad, match=message) as info:
            list(read_jsonl(path, Bad, self.FIELDS, "demo"))
        assert str(info.value).startswith(f"{path}:")

    def test_an_object_across_two_lines_is_refused_though_the_counts_agree(self, tmp_path):
        # joined, the two lines hold two records that pass the table; the first line alone is not JSON
        path = self.write_lines(tmp_path / "r.jsonl", '{"tokens": [1', '2], "id": "a"}, {"tokens": [3], "id": "b"}')
        with pytest.raises(Bad, match=f"^{re.escape(str(path))}:1: invalid JSON"):
            read_jsonl(path, Bad, {"tokens": list, "id": str})

    def test_check_fields_checks_a_record_by_the_same_rule(self):
        check_fields("here", {"n": 1, "x": 0.5, "xs": [1, -2.5]}, self.FIELDS, Bad)
        with pytest.raises(Bad, match=r"^here: field 'xs' item 1 is \"1\", expected a finite number$"):
            check_fields("here", {"n": 1, "x": 0.5, "xs": [1, "1"]}, self.FIELDS, Bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(Bad, match="missing file"):
            list(read_jsonl(tmp_path / "nope.jsonl", Bad, {}))
        with pytest.raises(Bad, match="missing file"):
            read_json(tmp_path / "nope.json", Bad, "demo")
        with pytest.raises(Bad, match="missing file"):
            read_npy(tmp_path / "nope.npy", Bad)

    @pytest.mark.parametrize("raw", [_npz(), pickle.dumps(np.zeros((2, 2))), b"1.5\n"],
                             ids=["npz-archive", "pickle", "text"])
    def test_npy_reader_reads_the_npy_format_alone(self, tmp_path, raw):
        # np.load would open an .npz archive, and a pickle with allow_pickle=True
        path = tmp_path / "r.npy"
        path.write_bytes(raw)
        with pytest.raises(Bad, match=f"^{re.escape(str(path))}: not a .npy array: "):
            read_npy(path, Bad)

    def test_json_object(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"schema": "demo", "version": 1,\n "n": 1, "x": 2.5}\n')
        assert read_json(path, Bad, "demo", self.FIELDS) == {
            "schema": "demo", "version": 1, "n": 1, "x": 2.5}
        path.write_text('{"schema": "demo",\n "version": 1,\n "n": }\n')
        with pytest.raises(Bad, match=f"^{re.escape(str(path))}:3: invalid JSON"):
            read_json(path, Bad, "demo")
        path.write_text('{"schema": "demo", "version": 1, "n": 1}\n')
        with pytest.raises(Bad, match=r":1: missing fields \['x'\]"):
            read_json(path, Bad, "demo", self.FIELDS)


def reference_read_jsonl(path, error, fields, schema=None):
    """The reader as it was before its one-call parse: every line through ``json.loads``."""
    table = _Fields(fields)
    with path.open("r", encoding="utf-8") as fh:
        if schema is not None:
            _check_schema(f"{path}:1", _parse(path, 1, fh.readline(), error), schema, error)
        for lineno, line in enumerate(fh, start=1 if schema is None else 2):
            rec = _parse(str(path), lineno, line, error)
            table.check(f"{path}:{lineno}", rec, error)
            yield f"{path}:{lineno}", rec


def read_pairs(path, error, fields, schema=None):
    """``(path:line, record)`` of every record :func:`read_jsonl` reads."""
    recs, where = read_jsonl(path, error, fields, schema)
    return [(where(i), rec) for i, rec in enumerate(recs)]


def _outcome(read, *args):
    """The records a reader reads, or the message of its refusal."""
    try:
        return list(read(*args))
    except Bad as e:
        return str(e)


# Lines a reader may meet: a record padded or not, blank lines, two values on one line, an
# object split over two lines, values that are not objects, NaN, a 5000-digit integer, junk and
# whitespace that JSON does not count as whitespace
_RECORD = st.builds(lambda n, x: f'{{"n": {n}, "x": {x!r}}}', st.integers(-5, 5),
                    st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2**70, 2**70))
_PAD = st.sampled_from(["", " ", "\t", "  \t "])
_LINES = st.one_of(
    _RECORD,
    st.builds(lambda a, rec, b: a + rec + b, _PAD, _RECORD, _PAD),
    st.sampled_from(["", "   ", '{"n": 1, "x": 1} {"n": 2, "x": 2}', '{"n": 1,\n"x": 2}', "[1]", "1",
                     '"s"', "null", '{"n": 1, "x": NaN}', '{"n": 1, "x": 1}x', '{"n": 1, "x": 1}}',
                     '{"n": 1, "x": 1}\u00a0', '{"n": 1, "x": 1}\x0c', '\u3000{"n": 1, "x": 1}',
                     '{"n": 1, "x": 1, "note": "\u00e9\\"\u2028"}', '{"n": true, "x": 1}',
                     '{"n": 1, "x": ' + "1" * 5000 + "}", '{"n": 1' + "0" * 4999 + ', "x": 1}']),
)


@given(lines=st.lists(_LINES, max_size=6),
       ends=st.lists(st.sampled_from(["\n", "\r\n"]), min_size=6, max_size=6),
       last=st.booleans(), schema=st.sampled_from([None, "demo"]))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_jsonl_equals_the_json_loads_reader(tmp_path, lines, ends, last, schema):
    """Records, their order and every refusal message are those of ``json.loads`` line by line."""
    header = ['{"schema": "demo", "version": 1}'] if schema else []
    text = "".join(line + end for line, end in zip(header + lines, ends + ends))
    if last and text:  # no newline after the last line
        text = text.rstrip("\r\n")
    path = tmp_path / "r.jsonl"
    path.write_bytes(text.encode("utf-8"))
    fields = {"n": int, "x": NUMBER, "note?": str}
    assert _outcome(read_pairs, path, Bad, fields, schema) == _outcome(
        reference_read_jsonl, path, Bad, fields, schema)
