"""Exception hierarchy shared across the package."""


class EndocheckError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(EndocheckError):
    """A design of ``Dataset.designs`` lost full column rank under the rank rule of
    ``linalg``; raised by ``Dataset.require_rank`` alone, with the design's message
    of ``RANK_MESSAGES``. ``column`` is the design's ``linalg.weakest_column``."""

    def __init__(self, column: int, message: str):
        self.column = column
        super().__init__(message)


class NotPositiveDefinite(EndocheckError):
    """A matrix required to be symmetric positive definite is not."""


class DegenerateVariance(EndocheckError):
    """A residual-variance estimate is (numerically) zero, so the test statistics are undefined."""


class ConfigInvalid(EndocheckError):
    """A simulation configuration violates its invariants or cannot be parsed."""
