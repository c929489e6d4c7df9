"""Exception hierarchy shared across the package."""


class EndocheckError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(EndocheckError):
    """A design matrix lost full column rank under the rank rule of ``linalg``;
    ``column`` is its ``linalg.weakest_column``."""

    def __init__(self, column: int, message: str | None = None):
        self.column = column
        super().__init__(message or f"rank-deficient matrix: column {column} is nearly a combination of the others")


class NotPositiveDefinite(EndocheckError):
    """A matrix required to be symmetric positive definite is not."""


class DegenerateVariance(EndocheckError):
    """A residual-variance estimate is (numerically) zero, so the test statistics are undefined."""


class ConfigInvalid(EndocheckError):
    """A simulation configuration violates its invariants or cannot be parsed."""
