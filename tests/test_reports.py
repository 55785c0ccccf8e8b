"""Canonical report text: the column encoder against the recursive reference,
and the stage CSV against a per-cell reference."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvp import InputError
from cvp.reports import Encoded, canonical_json, write_csv


def _reference_fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise InputError("reports must contain only finite numbers")
    return "%.17g" % x


def _reference_canonical_json(obj, indent: int = 0) -> str:
    """The recursive encoder ``canonical_json`` replaced: slow, and the byte reference."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _reference_fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(str(k) for k in obj)
        raw = {str(k): v for k, v in obj.items()}
        items = [f"{inner}{json.dumps(k, ensure_ascii=False)}: "
                 f"{_reference_canonical_json(raw[k], indent + 1)}" for k in keys]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_reference_canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    # numpy scalars and similar
    if hasattr(obj, "item"):
        return _reference_canonical_json(obj.item(), indent)
    raise InputError(f"cannot serialize {type(obj).__name__} into a report")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                                1e308, -1e308, 1.7976931348623157e308, 0.1, 1e16, 1e17])
# quotes, backslashes, control characters, line and paragraph separators, non-ASCII,
# and the % of a format string
_TEXT = st.one_of(st.text(max_size=8),
                  st.text(st.sampled_from('a"\\/\x00\x01\x1f\x7f\b\f\n\r\t'
                                          '\u2028\u2029\u00e9\u20ac\U0001f600 %'), max_size=8))
_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-10 ** 40, 10 ** 40),
    _FINITE, _EDGE_FLOATS, _TEXT,
    _FINITE.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_KEYS = st.one_of(_TEXT, st.integers(-20, 20))

# The encoder formats a container of 8 or more values as a column. The values of
# one exact type each such a column may hold:
_UNIFORM = (st.one_of(_FINITE, _EDGE_FLOATS),
            st.one_of(st.integers(), st.integers(-10 ** 40, 10 ** 40),
                      st.integers(2 ** 63, 2 ** 70)),
            _TEXT, st.booleans(), st.none())
_LONG = {"min_size": 8, "max_size": 40}


def _insert(column, value, at):
    at %= len(column) + 1
    return column[:at] + [value] + column[at:]


def _uniform_column(n):
    return st.one_of(*(st.lists(v, min_size=n, max_size=n) for v in _UNIFORM))


def _long_columns():
    """Lists and dicts of 8-40 values of one type; some hold one other value,
    a numpy scalar or a bool among ints, say."""
    lists = st.one_of(*(st.lists(v, **_LONG) for v in _UNIFORM))
    return st.one_of(
        lists, lists.map(tuple),
        st.tuples(lists, _SCALARS, st.integers(0, 40)).map(lambda t: _insert(*t)),
        *(st.dictionaries(_TEXT, v, **_LONG) for v in _UNIFORM),
        st.dictionaries(_KEYS, _UNIFORM[0], **_LONG))


@st.composite
def _record_lists(draw, children):
    """8-40 records that share one key set, each key a column of one type or of
    trees; in some, one record differs, or the keys mix strings and ints."""
    keys = draw(st.lists(st.one_of(_TEXT, st.sampled_from(["%", "%s", "a%d%%"])), max_size=5,
                         unique=True))
    n = draw(st.integers(8, 40))
    columns = [draw(st.one_of(_uniform_column(n), st.lists(children, min_size=n, max_size=n)))
               for _ in keys]
    records = [dict(zip(keys, row)) for row in zip(*columns)] or [{} for _ in range(n)]
    at = draw(st.integers(0, n - 1))
    change = draw(st.sampled_from(["none", "none", "drop", "add", "int key", "int keys"]))
    if change == "drop" and keys:
        del records[at][keys[0]]
    elif change == "add":
        records[at][draw(_TEXT)] = draw(children)
    elif change == "int key":
        records[at][draw(st.integers(-3, 3))] = draw(children)
    elif change == "int keys":  # one key set for all, with a str and an int key
        key = draw(st.integers(-3, 3))
        for record in records:
            record[key] = draw(_SCALARS)
    return records


@st.composite
def _row_lists(draw, children):
    """8-40 lists (or tuples) of one length, each position a column."""
    n = draw(st.integers(8, 40))
    columns = [draw(st.one_of(_uniform_column(n), st.lists(children, min_size=n, max_size=n)))
               for _ in range(draw(st.integers(0, 4)))]
    rows = [list(row) for row in zip(*columns)] or [[] for _ in range(n)]
    return [tuple(row) for row in rows] if draw(st.booleans()) else rows


_TREES = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_TEXT, children, max_size=4),
    st.dictionaries(_KEYS, children, max_size=4),
    _long_columns(), _record_lists(children), _row_lists(children),
), max_leaves=24)


@given(tree=_TREES, indent=st.integers(0, 3))
@settings(max_examples=400, deadline=None)
def test_canonical_json_matches_the_reference(tree, indent):
    assert canonical_json(tree, indent) == _reference_canonical_json(tree, indent)


@given(tree=_TREES, indent=st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_indent_only_pads_every_later_line(tree, indent):
    assert canonical_json(tree, indent) == canonical_json(tree).replace("\n", "\n" + "  " * indent)


@given(tree=st.dictionaries(_KEYS, _TREES, max_size=4), indent=st.integers(0, 3),
       nest=st.sampled_from(["object", "array", "top"]))
@settings(max_examples=150, deadline=None)
def test_an_encoded_dict_writes_its_own_text(tree, indent, nest):
    encoded = Encoded(tree, canonical_json(tree))
    assert encoded == tree
    wrap = {"object": lambda v: {"a": 1, "config": v}, "array": lambda v: [[v], None],
            "top": lambda v: v}[nest]
    assert canonical_json(wrap(encoded), indent) == canonical_json(wrap(tree), indent)


def test_canonical_format():
    text = canonical_json({"b": [1.5, "é\"", (), {}], "a": None, "c": {"y": True, "x": -0.0}})
    assert text == ('{\n  "a": null,\n  "b": [\n    1.5,\n    "é\\"",\n    [],\n    {}\n  ],\n'
                    '  "c": {\n    "x": -0,\n    "y": true\n  }\n}')
    assert canonical_json(0.1) == "0.10000000000000001"
    assert canonical_json([np.float32(0.5), np.int64(-3), np.bool_(False)], 1) == (
        "[\n    0.5,\n    -3,\n    false\n  ]")


_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"),
                              np.float64("-inf"), np.float32("inf"), np.float32("nan")])
# a tree that holds a non-finite number somewhere, among finite values
_HOLDING_NONFINITE = st.recursive(_NONFINITE, lambda inner: st.one_of(
    st.tuples(_TREES, inner, _TREES).map(list),
    st.tuples(inner, _TREES).map(tuple),
    st.tuples(_TEXT, inner, st.dictionaries(_TEXT, _TREES, max_size=2)).map(
        lambda t: {**t[2], t[0]: t[1]}),
    # in a long float column, or in one column of records
    st.tuples(st.lists(_FINITE, **_LONG), inner, st.integers(0, 40)).map(lambda t: _insert(*t)),
    st.tuples(st.lists(_FINITE, **_LONG), inner, st.integers(0, 40)).map(
        lambda t: [{"%x": x, "y": "s"} for x in _insert(*t)]),
), max_leaves=4)


@given(tree=_HOLDING_NONFINITE, indent=st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_non_finite_numbers_are_refused_anywhere(tree, indent):
    with pytest.raises(InputError, match="^reports must contain only finite numbers$"):
        canonical_json(tree, indent)


@pytest.mark.parametrize("obj,name", [
    (object(), "object"), ({"a": [1, {2, 3}]}, "set"), ((1.0, 2j), "complex"),
    ({1: b"x"}, "bytes")])
def test_unknown_type_is_refused(obj, name):
    with pytest.raises(InputError, match=f"^cannot serialize {name} into a report$"):
        canonical_json(obj)


def _reference_csv(header, ids, columns):
    """The stage CSV cell by cell: floats ``%.17g``, anything else ``str``."""
    lines = [",".join(header)]
    for row in zip(ids, *columns):
        lines.append(",".join(_reference_fmt_float(c) if isinstance(c, float) else str(c)
                              for c in row))
    return "\n".join(lines) + "\n"


@given(ids=st.lists(_TEXT, max_size=30), data=st.data())
@settings(max_examples=150, deadline=None)
def test_write_csv_matches_the_per_cell_reference(ids, data):
    columns = [data.draw(st.lists(st.one_of(_FINITE, _EDGE_FLOATS), min_size=len(ids),
                                  max_size=len(ids)))
               for _ in range(data.draw(st.integers(0, 3)))]
    header = ["point"] + [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stage.csv")
        write_csv(path, header, ids, *columns)
        with open(path, "rb") as handle:
            assert handle.read() == _reference_csv(header, ids, columns).encode()


def test_write_csv_writes_negative_zero_and_subnormals(tmp_path):
    path = str(tmp_path / "stage.csv")
    write_csv(path, ["point", "ell", "weight"], ["a", "b"], [-0.0, 5e-324], [0.1, 1e308])
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == ("point,ell,weight\na,-0,0.10000000000000001\n"
                                 "b,4.9406564584124654e-324,1e+308\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_csv_refuses_a_non_finite_cell(tmp_path, bad):
    path = str(tmp_path / "stage.csv")
    with pytest.raises(InputError, match="^reports must contain only finite numbers$"):
        write_csv(path, ["point", "ell", "weight"], ["a", "b"], [0.5, 0.5], [1.0, bad])
    assert not os.path.exists(path)
