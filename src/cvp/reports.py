"""Canonical JSON and CSV reports, written atomically.

The canonical JSON text has sorted object keys, a two-space indent, floats
written as ``%.17g`` and non-ASCII characters kept (strings are escaped as
``json.dumps(s, ensure_ascii=False)`` escapes them); a NaN or an infinity
anywhere is refused. Reports carry no timestamps, so reruns are
byte-identical. A report's ``config_hash`` is the sha256 of the canonical
text of its embedded config."""

from __future__ import annotations

import hashlib
import os
import tempfile
from json.encoder import encode_basestring
from math import isfinite

from .errors import InputError


def _fmt_float(x: float) -> str:
    if not isfinite(x):
        raise InputError("reports must contain only finite numbers")
    return "%.17g" % x


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
    out: list[str] = []
    _emit(obj, "\n" + "  " * indent, out)
    return "".join(out)


def _emit(obj, nl: str, out: list[str]) -> None:
    """Append the text of ``obj`` to ``out``; ``nl`` is a newline and the padding
    of the line ``obj`` ends on. Exact types are dispatched first; subclasses
    and numpy scalars take the ``isinstance`` chain."""
    kind = type(obj)
    if kind is float:
        out.append(_fmt_float(obj))
    elif kind is str:
        out.append(encode_basestring(obj))
    elif kind is dict and set(map(type, obj)) <= {str}:
        _emit_object(sorted(obj.items()), nl, out)
    elif kind is list or kind is tuple:
        _emit_array(obj, nl, out)
    elif obj is None:
        out.append("null")
    elif kind is Encoded:
        out.append(obj.text.replace("\n", nl))
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        raw = {str(k): v for k, v in obj.items()}
        _emit_object([(k, raw[k]) for k in sorted(str(k) for k in obj)], nl, out)
    elif isinstance(obj, (list, tuple)):
        _emit_array(obj, nl, out)
    elif hasattr(obj, "item"):  # numpy scalars and similar
        _emit(obj.item(), nl, out)
    else:
        raise InputError(f"cannot serialize {type(obj).__name__} into a report")


def _emit_object(pairs, nl: str, out: list[str]) -> None:
    """Append the object of the sorted ``(key, value)`` pairs ``pairs``."""
    if not pairs:
        out.append("{}")
        return
    inner = nl + "  "
    comma = "," + inner
    append = out.append
    sep = "{" + inner
    for key, value in pairs:
        append(sep + encode_basestring(key) + ": ")
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
            _emit(value, inner, out)
        sep = comma
    append(nl + "}")


def _emit_array(values, nl: str, out: list[str]) -> None:
    """Append the array of ``values``."""
    if not values:
        out.append("[]")
        return
    inner = nl + "  "
    comma = "," + inner
    append = out.append
    sep = "[" + inner
    for value in values:
        append(sep)
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
            _emit(value, inner, out)
        sep = comma
    append(nl + "]")


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


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(_fmt_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")
