"""Exception hierarchy shared across the package."""


class EndocheckError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(EndocheckError):
    """A design matrix lost full column rank under the rank rule of ``linalg``.

    ``column`` indexes the matrix's columns: from a pivoted QR, the first whose
    pivot fell to the tolerance; from ``compute_statistics``, the one with the
    largest weight in the smallest singular direction.
    """

    def __init__(self, column: int, message: str | None = None):
        self.column = column
        super().__init__(message or f"rank-deficient matrix: pivot for column {column} below tolerance")


class NotPositiveDefinite(EndocheckError):
    """A matrix required to be symmetric positive definite is not."""


class DegenerateVariance(EndocheckError):
    """A residual-variance estimate is (numerically) zero, so the test statistics are undefined."""


class ConfigInvalid(EndocheckError):
    """A simulation configuration violates its invariants or cannot be parsed."""
