"""Exception types shared across the package."""


class TiltvalError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(TiltvalError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConfigError(TiltvalError, ValueError):
    """Inconsistent construction data or an invalid run configuration."""


class WindowError(DomainError):
    """A requested index falls outside the truncation or sampling window."""


class PrecisionError(TiltvalError, ValueError):
    """The requested p-adic precision is too small to be meaningful."""


class VerificationError(TiltvalError, ArithmeticError):
    """An internal cross-check that must hold identically has failed.

    Raised only when two independent routes to the same exact quantity
    disagree; seeing one means a bug, not bad input.
    """
