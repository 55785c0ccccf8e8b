"""Canonical JSON and CSV reports, written atomically.

The canonical JSON text has sorted object keys, a two-space indent, floats
written as ``%.17g`` and non-ASCII characters kept (strings are escaped as
``json.dumps(s, ensure_ascii=False)`` escapes them); a NaN or an infinity
anywhere is refused. Reports carry no timestamps, so reruns are
byte-identical. A report's ``config_hash`` is the sha256 of the canonical
text of its embedded config.

The encoder works a container's values as a column: a long column of one
exact scalar type is formatted in one mapped call, and a long list of
records with one key set (or of lists of one length) through one template
per record, a column per key. Anything else goes value by value, by the
type dispatch that defines the bytes. A stage CSV is written from one row
template, its floats ``%.17g`` as in the JSON."""

from __future__ import annotations

import hashlib
import os
import tempfile
from json.encoder import encode_basestring
from math import isfinite

from .errors import InputError


_NOT_FINITE = "reports must contain only finite numbers"


def _fmt_float(x: float) -> str:
    if not isfinite(x):
        raise InputError(_NOT_FINITE)
    return "%.17g" % x


_BOOL_TEXT = {False: "false", True: "true"}
# Shorter containers go value by value: a column would cost more than it saves.
_COLUMN_MIN = 8


class Encoded(dict):
    """A dict that carries its canonical text at depth 0, which the encoder
    re-indents instead of encoding the dict again: a canonical string never
    holds a raw newline, so every newline of the text starts a line. The text
    is taken as given, so the dict must not change after it is made."""

    __slots__ = ("text",)

    def __init__(self, obj: dict, text: str):
        super().__init__(obj)
        self.text = text


def canonical_json(obj, indent: int = 0) -> str:
    """The canonical text of ``obj``, its lines padded as at nesting depth ``indent``."""
    return _text(obj, "\n" + "  " * indent)


def _text(obj, nl: str) -> str:
    """The text of ``obj``; ``nl`` is a newline and the padding of the line
    ``obj`` ends on. Exact types are dispatched first; subclasses and numpy
    scalars take the ``isinstance`` chain, which defines the bytes."""
    kind = type(obj)
    if kind is float:
        return _fmt_float(obj)
    if kind is str:
        return encode_basestring(obj)
    if kind is dict and set(map(type, obj)) <= {str}:
        return _object(sorted(obj), obj, nl)
    if kind is list or kind is tuple:
        return _array(obj, nl)
    if obj is None:
        return "null"
    if kind is Encoded:
        return obj.text.replace("\n", nl)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, dict):
        # a key twice when a str and an int print alike, with the value of the later
        return _object(sorted(str(k) for k in obj), {str(k): v for k, v in obj.items()}, nl)
    if isinstance(obj, (list, tuple)):
        return _array(obj, nl)
    if hasattr(obj, "item"):  # numpy scalars and similar
        return _text(obj.item(), nl)
    raise InputError(f"cannot serialize {kind.__name__} into a report")


def _object(keys: list[str], obj: dict, nl: str) -> str:
    """The object of the sorted ``keys`` of ``obj``."""
    if not keys:
        return "{}"
    inner = nl + "  "
    texts = _texts([obj[k] for k in keys], inner)
    return ("{" + inner + ("," + inner).join([encode_basestring(k) + ": " + text
                                              for k, text in zip(keys, texts)])
            + nl + "}")


def _array(values, nl: str) -> str:
    """The array of ``values``."""
    if not values:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(_texts(values, inner)) + nl + "]"


def _texts(values, nl: str):
    """The text of each of ``values``, ending on the line padded as ``nl``."""
    fmt, cells = _cells(values, nl)
    return cells if fmt == "%s" else map(fmt.__mod__, cells)


def _cells(values, nl: str) -> tuple[str, list]:
    """A format and a cell per value of ``values`` whose ``format % cell`` is
    the value's text, ending on the line padded as ``nl``.

    A column of one exact scalar type takes one mapped call at most: floats
    (after one finiteness pass) and ints are their own cells. A column of
    dicts with one key set, all strings, or of lists (or of tuples) of one
    length, is one template with a slot per key or position, each slot filled
    from the column of its values. Anything else goes value by value."""
    kinds = set(map(type, values)) if len(values) >= _COLUMN_MIN else ()
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind is float:
            if not all(map(isfinite, values)):
                raise InputError(_NOT_FINITE)
            return "%.17g", values
        if kind is int:
            return "%d", values
        if kind is str:
            return "%s", list(map(encode_basestring, values))
        if kind is bool:
            return "%s", list(map(_BOOL_TEXT.__getitem__, values))
        if kind is dict:
            keys = values[0].keys()
            if all(type(k) is str for k in keys) and all(v.keys() == keys for v in values):
                keys = sorted(keys)
                return "%s", _records("{", [encode_basestring(k) + ": " for k in keys], "}",
                                      [[v[k] for v in values] for k in keys], len(values), nl)
        elif kind is list or kind is tuple:
            lengths = set(map(len, values))
            if len(lengths) == 1:
                return "%s", _records("[", [""] * lengths.pop(), "]", list(zip(*values)),
                                      len(values), nl)
    texts = []
    append = texts.append
    for value in values:
        kind = type(value)
        if kind is float:
            append(_fmt_float(value))
        elif kind is str:
            append(encode_basestring(value))
        elif kind is bool:
            append("true" if value else "false")
        elif kind is int:
            append(str(value))
        elif value is None:
            append("null")
        else:
            append(_text(value, nl))
    return "%s", texts


def _records(open_: str, labels: list[str], close: str, columns: list, count: int,
             nl: str) -> list[str]:
    """The texts of ``count`` containers that share ``labels`` (``""`` in an
    array), the values at each label being one of ``columns``."""
    if not labels:
        return [open_ + close] * count
    inner = nl + "  "
    slots = [_cells(column, inner) for column in columns]
    template = (open_ + inner + ("," + inner).join(
        label.replace("%", "%%") + fmt for label, (fmt, _) in zip(labels, slots)) + nl + close)
    return list(map(template.__mod__, zip(*[cells for _, cells in slots])))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> str:
    text = canonical_json(obj) + "\n"
    atomic_write_text(path, text)
    return sha256_text(text)


def write_csv(path: str, header: list[str], ids, *columns) -> None:
    """Write ``header``, then one row per id: the id and its entry in each
    column of floats, written ``%.17g`` as in the JSON reports. Each column is
    checked finite in one pass, and the rows are formatted from one template."""
    for column in columns:
        if not all(map(isfinite, column)):
            raise InputError(_NOT_FINITE)
    row = "%s" + ",%.17g" * len(columns) + "\n"
    atomic_write_text(path, ",".join(header) + "\n"
                      + "".join(map(row.__mod__, zip(ids, *columns))))
