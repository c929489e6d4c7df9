"""The package's rank rule and its SPD solve.

The rank rule: a matrix has full column rank when its smallest singular
value exceeds ``rank_tolerance``; ``RankDeficient`` names ``weakest_column``.
``Dataset.rank`` applies it once per dataset, to small designs on the rows of
the triangular factor ``Dataset.r`` of ``[Z1 | Z2 | Y1 | y2]``; the n-row data
are factored once, there. ``spd_solve`` lets Cholesky decide positive
definiteness.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite

# A matrix whose smallest singular value is at or below this times its
# largest column norm has lost full column rank.
RANK_TOL = 1e-10


def rank_tolerance(a) -> np.ndarray:
    """``RANK_TOL * max column norm`` of each matrix of the stack ``a``
    (..., m, k): the one rank tolerance of the package. The column norms are
    ``np.linalg.norm(a, axis=-2)``'s, bit for bit, without its argument handling."""
    a = np.asarray(a, dtype=float)
    return RANK_TOL * np.sqrt(np.add.reduce(a * a, axis=-2)).max(axis=-1, initial=0.0)


def full_rank(a) -> tuple[np.ndarray, np.ndarray]:
    """The rank rule on each matrix of the stack ``a`` (..., m, k), m >= k:
    whether its smallest singular value exceeds ``rank_tolerance``, and its
    singular values in descending order."""
    a = np.asarray(a, dtype=float)
    sigma = np.linalg.svd(a, compute_uv=False)
    return sigma[..., -1] > rank_tolerance(a), sigma


def weakest_column(vt: np.ndarray) -> int:
    """The column of largest weight in the smallest singular direction, the
    last row of the right singular vectors ``vt``."""
    return int(np.abs(vt[-1]).argmax())


def spd_solve(s, b) -> np.ndarray:
    """Solve S X = B for symmetric positive definite S; Cholesky decides SPD.

    Raises
    ------
    NotPositiveDefinite
        If ``s`` is not finite, is not symmetric to relative 1e-10, or a
        Cholesky pivot is non-positive.
    """
    s = np.asarray(s, dtype=float)
    b_in = np.asarray(b, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise NotPositiveDefinite("matrix is not finite")
    scale = np.abs(s).max() if s.size else 0.0
    if np.abs(s - s.T).max(initial=0.0) > 1e-10 * max(scale, 1e-300):
        raise NotPositiveDefinite("matrix is not symmetric")
    try:
        np.linalg.cholesky(s)
        return np.linalg.solve(s, b_in)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc

