"""Dense linear algebra primitives used by the estimators.

Least squares goes through a column-pivoted QR factorization rather than the
normal equations: the test statistics downstream difference two nearly equal
coefficient vectors, so squaring the condition number here is not acceptable.
The statistics path solves only small problems here, on the rows of the
triangular factor ``Dataset.r`` of ``[Z1 | Z2 | Y1 | y2]``; the n-row data
are factored once, there.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefinite, RankDeficient

# Relative pivot threshold below which a column is declared dependent.
RANK_TOL = 1e-10


def _as_2d(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"expected a vector or matrix, got ndim={a.ndim}")
    return a


def _pivoted_qr(a: np.ndarray):
    """Economy QR with column pivoting, plus the rank evidence.

    Returns ``(q, r, perm, pivots, tol)`` with ``pivots = |diag(r)|`` and
    ``tol = RANK_TOL * max column norm``; a pivot at or below ``tol`` marks
    a dependent column.
    """
    q, r, perm = scipy.linalg.qr(a, mode="economic", pivoting=True)
    col_norms = np.linalg.norm(a, axis=0)
    tol = RANK_TOL * (col_norms.max() if col_norms.size else 0.0)
    return q, r, perm, np.abs(np.diag(r)), tol


def _full_rank_qr(a: np.ndarray):
    """``(q, r, perm)`` of ``_pivoted_qr``; raises ``RankDeficient`` at a dependent column."""
    q, r, perm, pivots, tol = _pivoted_qr(a)
    small = np.nonzero(pivots <= tol)[0]
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
        If a pivot of the QR factorization falls below
        ``RANK_TOL * max column norm``.
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
        If ``s`` is not symmetric to relative 1e-10, or a Cholesky pivot
        is non-positive.
    """
    s = np.asarray(s, dtype=float)
    b_in = np.asarray(b, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    scale = np.abs(s).max() if s.size else 0.0
    if np.abs(s - s.T).max(initial=0.0) > 1e-10 * max(scale, 1e-300):
        raise NotPositiveDefinite("matrix is not symmetric")
    try:
        cf = scipy.linalg.cho_factor(s, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return scipy.linalg.cho_solve(cf, b_in)


def rank_report(a) -> tuple[bool, float]:
    """Cheap full-rank check with a condition estimate.

    Returns ``(full_rank, cond_estimate)`` where the estimate is the ratio of
    extreme pivot magnitudes of the pivoted QR factorization (inf when the
    smallest pivot is zero).
    """
    a = _as_2d(a)
    _, _, _, pivots, tol = _pivoted_qr(a)
    # With fewer rows than columns, some columns get no pivot at all.
    dmin = pivots.min() if 0 < pivots.size == a.shape[1] else 0.0
    dmax = pivots.max() if pivots.size else 0.0
    cond = float(dmax / dmin) if dmin > 0 else float("inf")
    return bool(dmin > tol), cond


def smallest_singular_value(a) -> tuple[np.ndarray, np.ndarray]:
    """For each matrix of the stack ``a`` (..., m, k) with m >= k: its
    smallest singular value and the rank tolerance ``RANK_TOL * max column
    norm`` that ``_pivoted_qr`` would apply to it.

    Every pivot of ``_pivoted_qr`` is at least the smallest singular value,
    so where that exceeds the tolerance by a wide margin no rank check on the
    matrix fails.
    """
    a = np.asarray(a, dtype=float)
    sigma_min = np.linalg.svd(a, compute_uv=False)[..., -1]
    return sigma_min, RANK_TOL * np.linalg.norm(a, axis=-2).max(axis=-1)
