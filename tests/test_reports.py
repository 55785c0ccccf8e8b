"""Canonical report text: the single-pass encoder against the recursive reference."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvp import InputError
from cvp.reports import Encoded, canonical_json


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
# quotes, backslashes, control characters, line and paragraph separators, non-ASCII
_TEXT = st.one_of(st.text(max_size=8),
                  st.text(st.sampled_from('a"\\/\x00\x01\x1f\x7f\b\f\n\r\t'
                                          '\u2028\u2029\u00e9\u20ac\U0001f600 '), max_size=8))
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
_TREES = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_TEXT, children, max_size=4),
    st.dictionaries(_KEYS, children, max_size=4),
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
