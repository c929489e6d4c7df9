"""Dense linear algebra primitives used by the estimators.

Least squares goes through a thin SVD rather than the normal equations: the
test statistics downstream difference two nearly equal coefficient vectors,
so squaring the condition number here is not acceptable.
The statistics path solves only small problems here, on the rows of the
triangular factor ``Dataset.r`` of ``[Z1 | Z2 | Y1 | y2]``; the n-row data
are factored once, there.

The rank rule: a matrix has full column rank when its smallest singular
value exceeds ``rank_tolerance``; ``RankDeficient`` names ``weakest_column``.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite, RankDeficient

# A matrix whose smallest singular value is at or below this times its
# largest column norm has lost full column rank.
RANK_TOL = 1e-10


def _as_2d(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"expected a vector or matrix, got ndim={a.ndim}")
    return a


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


def full_rank_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``(u, sigma, vt)`` of ``a`` (m, k), m >= k; raises
    ``RankDeficient`` naming ``weakest_column`` where ``full_rank`` is false.
    With k = 0 (no Z1 in ``verify_identities``) ``a`` has full column rank vacuously."""
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    if sigma.size and not sigma[-1] > rank_tolerance(a):
        raise RankDeficient(weakest_column(vt))
    return u, sigma, vt


def solve_least_squares(a, b) -> np.ndarray:
    """Minimize ||A C - B||_F over C, one column of B at a time.

    Parameters
    ----------
    a : (n, k) array_like, n >= k, full column rank
    b : (n,) or (n, m) array_like

    Returns
    -------
    (k, m) ndarray, or (k,) if ``b`` was one-dimensional.

    Raises
    ------
    RankDeficient
        If the smallest singular value of ``a`` is at or below
        ``rank_tolerance(a)``.
    """
    a = _as_2d(a)
    b_in = np.asarray(b, dtype=float)
    b2 = _as_2d(b_in)
    n, k = a.shape
    if b2.shape[0] != n:
        raise ValueError(f"shape mismatch: A has {n} rows, B has {b2.shape[0]}")
    if n < k:
        raise ValueError(f"underdetermined system: n={n} < k={k}")
    u, sigma, vt = full_rank_svd(a)
    with np.errstate(over="ignore", invalid="ignore"):  # the callers reject non-finite coefficients
        c = vt.T @ ((u.T @ b2) / sigma[:, None])
    return c[:, 0] if b_in.ndim == 1 else c


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

