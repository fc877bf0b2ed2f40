"""Exception types, and the integer check, shared across the toolkit."""

from __future__ import annotations


class HpckitError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(HpckitError):
    """A config file or command line argument is unusable."""


class IngestionError(HpckitError):
    """A sweep CSV could not be parsed or failed validation."""


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


def require_int(name: str, value) -> None:
    """Reject any value that is not an ``int`` (``bool`` and ``2.0`` included)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
