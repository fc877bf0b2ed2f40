"""Exception types, and the integer and number checks, shared across the toolkit."""

from __future__ import annotations

import math
import numbers


class HpckitError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(HpckitError):
    """A config file or command line argument is unusable."""


class IngestionError(HpckitError):
    """A sweep CSV could not be parsed or failed validation."""


class RowError(ValueError):
    """A dataset row breaks a rule: ``row`` is its index from 0, ``fault`` the message after it."""

    def __init__(self, row: int, fault: str):
        super().__init__(f"row {row}{fault}")
        self.row, self.fault = row, fault


class DegenerateSeriesError(HpckitError):
    """A series has zero variance where variation is required."""


class MappingError(HpckitError):
    """A requirement has no defined correlation with any monitor."""


class UnreachableTargetError(HpckitError):
    """No server count within the cap reaches the availability target.

    Carries the best availability that was achievable so callers can
    report how far short the search fell.
    """

    def __init__(self, message: str, best_availability: float):
        super().__init__(message)
        self.best_availability = best_availability


class NoFeasibleConfigurationError(HpckitError):
    """Every configuration violates at least one requirement threshold.

    ``least_violating`` identifies the row that came closest to
    feasibility, measured by its largest relative threshold violation.
    """

    def __init__(self, message: str, least_violating=None, violation: float = float("inf")):
        super().__init__(message)
        self.least_violating = least_violating
        self.violation = violation


def require_int(name: str, value, minimum: int | None = None) -> None:
    """Reject a value that is not an ``int`` (``bool`` and ``2.0`` too) or is below ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


# The ranges ``require_number`` checks, each named by the words of its message.
FINITE = "finite"
POSITIVE = "positive and finite"
NON_NEGATIVE = "non-negative and finite"
_IN_RANGE = {
    FINITE: math.isfinite,
    POSITIVE: lambda v: 0 < v < math.inf,
    NON_NEGATIVE: lambda v: 0 <= v < math.inf,
}


def require_number(name: str, value, rule: str | None = None) -> float:
    """``value`` as a float, once it is a real number within the range ``rule`` names, if any.

    numpy's scalars pass; ``bool``, strings and None do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if rule is not None and not _IN_RANGE[rule](value):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return float(value)
