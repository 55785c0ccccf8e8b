"""Exception types raised across the package."""


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
    """Bad command-line usage (unknown check name, non-positive trial count)."""


def as_number(value, what: str, kind=float):
    """``kind(value)`` for a config field; InputError naming ``what`` if it fails."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be a number, got {value!r:.60}") from None
