"""Semantic exceptions shared across the package.

The CLI maps these onto process exit codes (validation 2, resource cap 3,
internal inconsistency 4), so library code should raise the most specific
class that applies.
"""

from __future__ import annotations

__all__ = [
    "ConfigError",
    "EntroflowError",
    "FlowDirectionError",
    "InconsistencyError",
    "ResourceCapError",
    "SpaceMismatchError",
    "ValidationError",
]


class EntroflowError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(EntroflowError, ValueError):
    """Malformed or out-of-domain input."""


class SpaceMismatchError(ValidationError):
    """Two objects that must share one probability space do not."""


class FlowDirectionError(ValidationError):
    """A partition sequence violates its declared flow direction."""


class ResourceCapError(EntroflowError):
    """An enumeration would exceed the configured size cap."""


class InconsistencyError(EntroflowError):
    """Two independent computation routes disagree beyond tolerance."""


class ConfigError(ValidationError):
    """An experiment config file failed validation.

    Carries the full list of violations so callers can report every
    problem at once instead of the first one found.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
