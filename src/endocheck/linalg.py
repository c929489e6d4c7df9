"""Dense linear algebra primitives used by the estimators.

Least squares goes through a column-pivoted QR factorization rather than the
normal equations: the test statistics downstream difference two nearly equal
coefficient vectors, so squaring the condition number here is not acceptable.
The statistics path solves only small problems here, on the rows of the
triangular factor ``Dataset.r`` of ``[Z1 | Z2 | Y1 | y2]``; the n-row data
are factored once, there.

The rank rule: a matrix has full column rank when its smallest singular
value exceeds ``rank_tolerance``, the tolerance the pivot guard of
``solve_least_squares`` uses too.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

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


def _full_rank_qr(a: np.ndarray):
    """Economy QR with column pivoting, ``(q, r, perm)``; raises ``RankDeficient``
    at the first pivot at or below ``rank_tolerance(a)``. Every pivot is at
    least the smallest singular value, so a matrix ``full_rank`` admits
    passes."""
    q, r, perm = scipy.linalg.qr(a, mode="economic", pivoting=True)
    small = np.flatnonzero(np.abs(np.diag(r)) <= rank_tolerance(a))
    if small.size:
        raise RankDeficient(int(perm[small[0]]))
    return q, r, perm


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
        If a pivot of the QR factorization is at or below
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
    q, r, perm = _full_rank_qr(a)
    c_perm = scipy.linalg.solve_triangular(r, q.T @ b2)
    c = np.empty_like(c_perm)
    c[perm] = c_perm
    return c[:, 0] if b_in.ndim == 1 else c


def spd_solve(s, b) -> np.ndarray:
    """Solve S X = B for symmetric positive definite S via Cholesky.

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
        cf = scipy.linalg.cho_factor(s, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return scipy.linalg.cho_solve(cf, b_in)

