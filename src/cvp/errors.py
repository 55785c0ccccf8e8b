"""Exception types raised across the package, and the strict reader of JSON config values."""

import math


class CVPError(Exception):
    """Base class for all package-specific errors."""


class InputError(CVPError, ValueError):
    """Input the package refuses, with a message naming what is wrong: a
    malformed config, report or payload value, a space or kernel that breaks a
    structural invariant (ids, distances, triangle inequality, a positive
    diagonal), an exhaustion whose consecutive stages are identical, a stage
    too small to rescale, an unusable decay profile, a variation that is
    unbalanced or drives a weight negative, and an enumeration above its size
    cap. ``cvp`` exits 1 on it."""


class SolverFailure(CVPError, RuntimeError):
    """No start reached the KKT tolerance; carries the best iterate found."""

    def __init__(self, message, best_weights=None, best_value=None, residuals=None):
        super().__init__(message)
        self.best_weights = best_weights
        self.best_value = best_value
        self.residuals = residuals


class UsageError(CVPError, ValueError):
    """Bad command-line usage (an unknown flag or check name, a check without its setting)."""


# The JSON kinds a config value is read as, by the name an error gives them.
NUMBER = (int, float)
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "an integer", NUMBER: "a number"}


def typed(value, kind, what: str):
    """``value`` if it is a ``kind`` (a boolean is not a number); else InputError."""
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise InputError(f"{what} must be {_KIND_NAMES[kind]}, got {value!r:.60}")


def known_keys(section: dict, known, prefix: str, what: str) -> dict:
    """``section`` if each of its keys is in ``known``; else InputError naming the
    first other key, as ``<prefix><key> is not a <what> setting (known: ...)``."""
    for key in section:
        if key not in known:
            article = "an" if what[0] in "aeiou" else "a"
            raise InputError(f"{prefix}{key} is not {article} {what} setting "
                             f"(known: {', '.join(known)})")
    return section


def as_number(value, what: str) -> float:
    """A JSON number as a finite float; InputError naming ``what`` for anything
    else (a string, a boolean, null, an integer beyond the float range, and the
    NaN and infinities that Python's ``json`` reads)."""
    try:
        number = float(typed(value, NUMBER, what))
    except OverflowError:
        raise InputError(f"{what} must be a number, got {value!r:.60}") from None
    if not math.isfinite(number):
        raise InputError(f"{what} must be a finite number, got {number!r}")
    return number


def number_rows(value, what: str) -> list[list[float]]:
    """A JSON list of lists of numbers as floats; InputError naming the first
    entry that is not one, as ``<what>[i]`` or ``<what>[i][j]``."""
    return [[as_number(v, f"{what}[{i}][{j}]")
             for j, v in enumerate(typed(row, list, f"{what}[{i}]"))]
            for i, row in enumerate(typed(value, list, what))]
