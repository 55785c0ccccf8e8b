"""Exception types raised across the package, and the strict reader of JSON config values."""


class CVPError(Exception):
    """Base class for all package-specific errors."""


class InputError(CVPError, ValueError):
    """Malformed or inconsistent caller input (ids, radii, mismatched spaces)."""


class ConstructionError(CVPError, ValueError):
    """A kernel or space violates a structural invariant at build time."""


class DegenerateExhaustionError(CVPError, ValueError):
    """Consecutive exhaustion radii produce identical stages."""


class DegenerateStageError(CVPError, ValueError):
    """A stage cannot be rescaled (action value at or below tolerance)."""


class VolumeConstraintError(CVPError, ValueError):
    """A signed variation does not balance to zero total mass."""


class PositivityError(CVPError, ValueError):
    """A signed variation would drive some weight negative."""


class SizeError(CVPError, ValueError):
    """An exact/enumerative routine was asked to exceed its size cap."""


class ProfileError(CVPError, ValueError):
    """A decay profile is non-integrable or otherwise unusable."""


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
    """A JSON number as a float; InputError naming ``what`` for anything else
    (a string, a boolean, null, an integer beyond the float range)."""
    try:
        return float(typed(value, NUMBER, what))
    except OverflowError:
        raise InputError(f"{what} must be a number, got {value!r:.60}") from None


def number_rows(value, what: str) -> list[list[float]]:
    """A JSON list of lists of numbers as floats; InputError naming the first
    entry that is not one, as ``<what>[i]`` or ``<what>[i][j]``."""
    return [[as_number(v, f"{what}[{i}][{j}]")
             for j, v in enumerate(typed(row, list, f"{what}[{i}]"))]
            for i, row in enumerate(typed(value, list, what))]
