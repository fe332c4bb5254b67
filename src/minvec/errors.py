"""Exception types shared across the package."""


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
