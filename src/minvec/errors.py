"""Exception types shared across the package, and the integer check that
raises ConfigError."""

import operator


class MinvecError(Exception):
    """Base class for all package-specific errors."""


class PrecisionError(MinvecError):
    """A result is not determined by the tracked p-adic digits."""


class NotInSupport(MinvecError):
    """A character or matrix coefficient was evaluated outside its support."""


class NoSolution(MinvecError):
    """A solve step found no solution; signals invalid input upstream."""


class SizeGuard(MinvecError):
    """An enumeration would exceed the configured desk-scale bound."""


class ConfigError(MinvecError):
    """Invalid run configuration."""


class NumericalError(MinvecError):
    """A numerical route failed to reach, or to confirm, the accuracy it needs."""


def require_int(name: str, value, low: int | None) -> int:
    """value as an int, read through operator.index; ConfigError unless it is
    an integer, and >= low unless low is None."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value
