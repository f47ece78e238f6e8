"""The package's only two exception types, one per failing exit status of the CLI:
DomainError for a refused input (exit 2), VerificationError for a failed cross-check (exit 1)."""


class DomainError(ValueError):
    """A refused input: outside an operation's domain, a bad run config, too narrow a window, too low a precision."""


class VerificationError(ArithmeticError):
    """An internal cross-check that must hold identically has failed.

    Raised only when two independent routes to the same exact quantity
    disagree; seeing one means a bug, not bad input.
    """
