"""Endogeneity test statistics, chi-square inference, and identity verification.

The generic Hausman statistic compares the OLS and 2SLS coefficient vectors of
the endogenous block through a difference of their estimated asymptotic
variances; its three named versions differ only in which residual-variance
estimates enter the weighting matrix. The control-function Wald statistic is
computed directly from the augmented regression and coincides with the
Hausman form evaluated at the control-function residual variance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.special import chdtr, chdtrc, chdtri

from . import linalg
from .data import Dataset
from .errors import DegenerateVariance
from .estimators import CfFit, FitResult, fit_cf, fit_ols, fit_tsls

TEST_NAMES = ("t_h1", "t_h2", "t_h3", "t_cf")


# ---------------------------------------------------------------------------
# Chi-square distribution
# ---------------------------------------------------------------------------

def chi2_cdf(df: int, x: float) -> float:
    """CDF of the chi-square distribution with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    # chdtr is nan below zero, where the CDF is zero.
    return float(chdtr(df, x)) if x > 0.0 else 0.0


def chi2_quantile(df: int, p: float) -> float:
    """Inverse chi-square CDF: the ``x`` with ``chi2_cdf(df, x) == p``."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return float(chdtri(df, 1.0 - p))


# ---------------------------------------------------------------------------
# Test statistics
# ---------------------------------------------------------------------------

def hausman_statistic(beta_gap, factor_2sls, factor_ols, sigma2_1: float, sigma2_2: float) -> float:
    """Generic Hausman quadratic form in the OLS/2SLS coefficient gap.

    The grams enter as factors ``B`` of ``G = B'B`` (G2 = gram_2sls,
    G1 = gram_ols), and ``G·gap`` is ``B'(B·gap)``, which keeps the weak
    direction a formed ill-conditioned gram loses. The weighting matrix
    ``W = sigma2_1 * G2^-1 - sigma2_2 * G1^-1`` has inverse ``G1 K^-1 G2``
    with ``K = sigma2_1 * G1 - sigma2_2 * G2``: one SPD solve, no inverse.

    Raises
    ------
    NotPositiveDefinite
        When ``K`` (equivalently the weighting matrix) is not SPD, which
        signals an invalid variance pairing (it cannot happen for the three
        named versions when the 2SLS variance is at least the OLS one).
    """
    gap = np.asarray(beta_gap, dtype=float).reshape(-1)
    if not np.any(gap):
        return 0.0
    b2 = np.asarray(factor_2sls, dtype=float)
    b1 = np.asarray(factor_ols, dtype=float)
    k = sigma2_1 * (b1.T @ b1) - sigma2_2 * (b2.T @ b2)
    return float((b1.T @ (b1 @ gap)) @ linalg.spd_solve(k, b2.T @ (b2 @ gap)))


def cf_statistic(cf: CfFit, ds: Dataset) -> float:
    """Wald statistic for a zero coefficient on the control-function block.

    Computed directly from the augmented regression as
    ``||M_X V_hat rho||^2 / sigma2_u``, one least-squares fit on R's rows.
    """
    if cf.sigma2_u <= _variance_floor(ds.r, ds.n):
        raise DegenerateVariance("control-function residual variance is numerically zero")
    _, x, v = ds._blocks()
    v_rho = v @ cf.rho_cf
    mv = v_rho - x @ linalg.solve_least_squares(x, v_rho)
    return float(mv @ mv) / cf.sigma2_u


def compute_h_n(beta_gap, gram_ols, sigma2_2sls: float, n: int) -> float:
    """Scalar linking the control-function and 2SLS variance estimates."""
    gap = np.asarray(beta_gap, dtype=float).reshape(-1)
    gram = np.asarray(gram_ols, dtype=float)
    return float(gap @ gram @ gap) / (n * sigma2_2sls)


def _variance_floor(r: np.ndarray, n: int):
    # Exact fits leave residuals at rounding scale; anything this small is
    # a degenerate variance, not sampling noise. mean(y2^2) is read from R,
    # one value per stacked R.
    return 1e-24 * (np.sum(np.square(r[..., -1]), axis=-1) / n + 1.0)


@dataclass(frozen=True)
class StatisticValues:
    """The four test statistics: floats for one dataset, or arrays over a
    block of replications."""

    t_h1: float | np.ndarray
    t_h2: float | np.ndarray
    t_h3: float | np.ndarray
    t_cf: float | np.ndarray

    def by_name(self) -> dict:
        return {name: getattr(self, name) for name in TEST_NAMES}

    def ordered(self, slack=0.0, strict: bool = False):
        """Whether ``t_cf >= t_h1 >= t_h2 >= t_h3`` holds, each step up to
        ``slack``; with ``strict``, ``>`` in place of ``>=``. A bool for
        floats, a bool array (elementwise) for arrays."""
        chain = (self.t_cf, self.t_h1, self.t_h2, self.t_h3)
        holds = np.greater if strict else np.greater_equal
        ok = np.logical_and.reduce([holds(a, b - slack) for a, b in zip(chain, chain[1:])])
        return ok if np.ndim(ok) else bool(ok)


@dataclass(frozen=True)
class Statistics(StatisticValues):
    """All four statistics plus the p-sized fits and grams behind them."""

    h_n: float
    df: int
    beta_gap: np.ndarray
    ols: FitResult
    tsls: FitResult
    cf: CfFit
    gram_2sls: np.ndarray  # Y1_hat' M_Z1 Y1_hat
    gram_ols: np.ndarray   # Y1' M_Z1 Y1


def _gram_factors(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    # (gram_2sls, gram_ols) = B'B: M_Z1 drops the Z1 rows of R; P_Z then keeps the Z2 rows.
    y1, _, _ = ds._blocks()
    return y1[ds.d_z1:ds.d_z1 + ds.d_z2], y1[ds.d_z1:]


def compute_statistics(ds: Dataset) -> Statistics:
    """Fit all estimators and evaluate the four test statistics."""
    ols = fit_ols(ds)
    tsls = fit_tsls(ds)
    cf = fit_cf(ds)
    floor = _variance_floor(ds.r, ds.n)
    for label, s2 in (("ols", ols.sigma2), ("tsls", tsls.sigma2), ("cf", cf.sigma2_u)):
        if s2 <= floor:
            raise DegenerateVariance(f"{label} residual variance is numerically zero")
    b2, b1 = _gram_factors(ds)
    gram_ols = b1.T @ b1
    gap = ols.beta_hat - tsls.beta_hat
    return Statistics(
        t_h1=hausman_statistic(gap, b2, b1, ols.sigma2, ols.sigma2),
        t_h2=hausman_statistic(gap, b2, b1, tsls.sigma2, tsls.sigma2),
        t_h3=hausman_statistic(gap, b2, b1, tsls.sigma2, ols.sigma2),
        t_cf=cf_statistic(cf, ds),
        h_n=compute_h_n(gap, gram_ols, tsls.sigma2, ds.n),
        df=ds.d_y1,
        beta_gap=gap,
        ols=ols,
        tsls=tsls,
        cf=cf,
        gram_2sls=b2.T @ b2,
        gram_ols=gram_ols,
    )


# How far the block screen stays from each threshold at which
# compute_statistics raises: a rank check's pivot tolerance and the variance
# floor (times _SCREEN_MARGIN), and K's conditioning (lambda_min above
# _K_MARGIN * ||K||). _ROUNDING_LIMIT bounds the estimated rounding error of
# the statistics against 1 + t_cf, far below the ordering slack of
# run_monte_carlo (1e-9 * (1 + t_cf)).
_SCREEN_MARGIN = 1e4
_K_MARGIN = 1e-8
_ROUNDING_LIMIT = 1e-12
_EPS = np.finfo(float).eps


def _mT(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _least_squares_block(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solutions of the stacked full-rank least-squares problems ``a c = y``:
    the QR of ``[a | y]``, then the triangular system."""
    k = a.shape[-1]
    t = np.linalg.qr(np.concatenate([a, y[..., None]], axis=-1), mode="r")
    return np.linalg.solve(t[:, :k, :k], t[:, :k, k:])[..., 0]


def _sq_norm(a: np.ndarray) -> np.ndarray:
    return np.einsum("bi,bi->b", a, a)


def _near_singular(k: np.ndarray) -> np.ndarray:
    """For each symmetric matrix of the stack ``k``: whether it is not finite
    or its smallest eigenvalue is at most ``_K_MARGIN`` times its norm."""
    bad = ~np.isfinite(k).all(axis=(-2, -1))
    lam = np.linalg.eigvalsh(np.where(bad[:, None, None], np.eye(k.shape[-1]), k))
    return bad | ~(lam[:, 0] > _K_MARGIN * np.abs(lam).max(axis=1))


def block_statistics(r: np.ndarray, n: int, d_z1: int, d_z2: int) -> tuple[StatisticValues, np.ndarray]:
    """The four statistics of a block of datasets from their stacked R factors alone.

    ``r`` is (B, m, p): R of each dataset's ``W = [Z1 | Z2 | Y1 | y2]``, with
    ``m = min(n, p)``. With ``R23``, ``R33`` the Z2 and Y1 rows of the Y1
    columns and ``r24``, ``r34``, ``r44`` the matching pieces of the y2
    column (Z1 is concentrated out by dropping its rows):

    * ``G2 = R23'R23`` and ``G1 = G2 + R33'R33``;
    * ``beta_2sls`` and ``beta_ols`` are the least-squares solutions of
      ``R23 b = r24`` and ``[R23; R33] b = [r24; r34]``;
    * ``n*sigma2`` for OLS and 2SLS is ``r44^2 + ||[r24; r34] - [R23; R33] b||^2``
      at their ``b``, and ``n*sigma2_u`` is ``r44^2 + ||r24 - R23 beta_2sls||^2``;
    * ``t_h1..t_h3`` are the K form of ``hausman_statistic``;
    * ``t_cf`` is the control-function Wald statistic by the direct route
      ``(SSR_ols - SSR_u) / sigma2_u``, the difference taken as the squared
      norm of the difference of the two residuals,
      ``||R23 gap||^2 + ||r34 - R33 beta_ols||^2``.

    Returns the statistics as (B,) arrays and a (B,) flag. The flag is a
    conservative screen: it marks every dataset on which
    ``compute_statistics`` could raise, or could come out different enough
    to change a decision of the Monte Carlo: ``n < p``; ``sigma_min`` of X,
    P_Z X, Z or [X | V] within ``_SCREEN_MARGIN`` of the rank tolerance; a
    variance within ``_SCREEN_MARGIN`` of the floor; a K with ``lambda_min``
    at most ``_K_MARGIN * ||K||``; an estimated rounding error of the
    statistics above ``_ROUNDING_LIMIT * (1 + t_cf)``, which also covers a K
    that rounds to non-positive in ``compute_statistics``; a non-finite
    statistic. Flagged entries hold nan.
    """
    size, m, p = r.shape
    dz = d_z1 + d_z2
    k = p - dz - 1
    values = np.full((len(TEST_NAMES), size), np.nan)
    if m < p:
        return StatisticValues(*values), np.ones(size, dtype=bool)
    y1 = slice(dz, dz + k)
    x = np.concatenate([r[:, :dz + k, y1], r[:, :dz + k, :d_z1]], axis=2)  # X = [Y1 | Z1]
    v = np.zeros((size, dz + k, k))
    v[:, dz:] = r[:, y1, y1]  # V_hat = M_Z Y1
    flagged = np.zeros(size, dtype=bool)
    sigma_min = []  # of X, P_Z X, Z and [X | V]
    for a in (x, x[:, :dz], r[:, :dz, :dz], np.concatenate([x, v], axis=2)):
        sigma, tol = linalg.smallest_singular_value(a)
        flagged |= sigma <= _SCREEN_MARGIN * tol
        sigma_min.append(sigma)
    kept = np.flatnonzero(~flagged)
    if kept.size:
        sigma_x, sigma_pzx = sigma_min[0][kept], sigma_min[1][kept]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            stats, unsafe = _screened_statistics(r[kept], n, d_z1, d_z2, sigma_x, sigma_pzx)
        values[:, kept] = np.where(unsafe, np.nan, stats)
        flagged[kept] = unsafe
    return StatisticValues(*values), flagged


def _screened_statistics(r: np.ndarray, n: int, d_z1: int, d_z2: int,
                         sigma_x: np.ndarray, sigma_pzx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``block_statistics`` on R factors that passed the rank screen, given
    ``sigma_min`` of X and P_Z X: the (4, B) statistics and the rest of the
    screen's flag."""
    dz = d_z1 + d_z2
    k = r.shape[-1] - dz - 1
    b2 = r[:, d_z1:dz, dz:dz + k]       # R23
    b1 = r[:, d_z1:dz + k, dz:dz + k]   # [R23; R33]
    y = r[:, d_z1:dz + k, -1]           # [r24; r34]
    r44_sq = np.square(r[:, -1, -1])
    beta_ols = _least_squares_block(b1, y)
    beta_2sls = _least_squares_block(b2, y[:, :d_z2])
    e_ols = y - (b1 @ beta_ols[..., None])[..., 0]
    e_2sls = y - (b1 @ beta_2sls[..., None])[..., 0]
    s_ols = (r44_sq + _sq_norm(e_ols)) / n
    s_2sls = (r44_sq + _sq_norm(e_2sls)) / n
    s_u = (r44_sq + _sq_norm(e_2sls[:, :d_z2])) / n
    floor = _SCREEN_MARGIN * _variance_floor(r, n)
    unsafe = (s_ols <= floor) | (s_2sls <= floor) | (s_u <= floor)

    # Relative rounding error of the statistics, over eps: the gap is a
    # difference of two fits, each off by about eps * ||y|| / sigma_min; K is
    # a difference of grams that cancels down to R33'R33 (||G1|| over
    # sigma_min(R33)^2), weighted by variances that are residuals of y
    # (||y|| / ||e||).
    y_norm = np.linalg.norm(r[:, :, -1], axis=1)
    gap = beta_ols - beta_2sls
    r33_min = np.linalg.svd(r[:, dz:dz + k, dz:dz + k], compute_uv=False)[:, -1]
    kappa = ((y_norm / sigma_x + np.linalg.norm(r[:, :dz, -1], axis=1) / sigma_pzx) / np.linalg.norm(gap, axis=1)
             + _sq_norm(b1.reshape(len(r), -1)) / np.square(r33_min) * y_norm / np.sqrt(n * s_ols))

    gap = gap[..., None]
    b2_gap, b1_gap = b2 @ gap, b1 @ gap
    g1_gap = _mT(b1) @ b1_gap
    g2_gap = _mT(b2) @ b2_gap
    gram_2sls = _mT(b2) @ b2
    gram_ols = _mT(b1) @ b1
    hausman = []
    for s1, s2 in ((s_ols, s_ols), (s_2sls, s_2sls), (s_2sls, s_ols)):
        kk = s1[:, None, None] * gram_ols - s2[:, None, None] * gram_2sls
        not_pd = _near_singular(kk)
        kk[not_pd] = np.eye(k)
        unsafe |= not_pd
        hausman.append((_mT(g1_gap) @ np.linalg.solve(kk, g2_gap))[:, 0, 0])
    t_cf = (_sq_norm(b2_gap[..., 0]) + _sq_norm(e_ols[:, d_z2:])) / s_u
    stats = np.array([*hausman, t_cf])
    unsafe |= ~(_EPS * kappa * t_cf <= _ROUNDING_LIMIT * (1.0 + t_cf))
    return stats, unsafe | ~np.isfinite(stats).all(axis=0)


@dataclass(frozen=True)
class TestReport(Statistics):
    """The four statistics with chi-square p-values and per-level reject decisions."""

    p_values: dict[str, float]
    decisions: dict[float, dict[str, bool]]

    def statistics(self) -> dict[str, float]:
        return self.by_name()


def run_all_tests(ds: Dataset, alphas=(0.01, 0.05, 0.10)) -> TestReport:
    """Compute all four statistics, p-values, and per-level reject decisions."""
    stats = compute_statistics(ds)
    values = stats.by_name()
    # The upper tail straight from chdtrc stays accurate where 1 - CDF rounds
    # to zero; chdtrc is nan below zero, where the tail is one.
    p_values = {name: float(chdtrc(stats.df, max(t, 0.0))) for name, t in values.items()}
    decisions = {}
    for alpha in alphas:
        crit = chi2_quantile(stats.df, 1.0 - alpha)
        decisions[float(alpha)] = {name: bool(t > crit) for name, t in values.items()}
    return TestReport(**vars(stats), p_values=p_values, decisions=decisions)


# ---------------------------------------------------------------------------
# Identity verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    """Relative discrepancies of the exact finite-sample identities.

    Every gap is zero in real arithmetic on admissible data; the report
    measures how far floating point strays.
    """

    theta_cf_vs_tsls_gap: float      # CF theta equals the 2SLS theta
    rho_closed_form_gap: float       # rho equals its closed form in the beta gap
    tcf_equivalence_gap: float       # direct Wald form vs Hausman form of t_cf
    variance_link_ols_gap: float     # sigma2_u vs sigma2_ols * (1 - t_h1/n)
    variance_link_tsls_gap: float    # sigma2_u vs sigma2_tsls * (1 - t_h2/n - h_n)
    scaled_statistic_gap: float      # sigma2_ols*t_h1 = sigma2_tsls*t_h2 = sigma2_u*t_cf
    theta_gap_transform_gap: float   # theta gap as a linear map of the beta gap
    ordering_ok: bool

    def gaps(self) -> dict[str, float]:
        """Every ``*_gap`` field, keyed by its name without the suffix."""
        return {f.name.removesuffix("_gap"): getattr(self, f.name)
                for f in fields(self) if f.name.endswith("_gap")}

    def max_gap(self) -> float:
        return max(self.gaps().values())

    def within(self, tol: float) -> bool:
        return self.max_gap() < tol and self.ordering_ok


def _rel_vec(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))


def _rel_scalar(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(b))


def verify_identities(ds: Dataset, tol: float = 1e-8) -> IdentityReport:
    """Evaluate every exact finite-sample identity on one dataset.

    ``tol`` only affects ``ordering_ok``: it is the slack for near-ties; the
    gaps themselves are always reported.
    """
    stats = compute_statistics(ds)
    ols, tsls, cf = stats.ols, stats.tsls, stats.cf
    n = ds.n
    gap = stats.beta_gap

    # CF estimates against their closed forms in the beta gap.
    y1, _, mz_y1 = ds._blocks()  # mz_y1: annihilator of Z applied to Y1
    gram_mz = mz_y1.T @ mz_y1
    rho_closed = linalg.spd_solve(gram_mz, stats.gram_ols @ gap)

    # Direct Wald form against the Hausman form at the CF variance.
    t_cf_hausman = hausman_statistic(gap, *_gram_factors(ds), cf.sigma2_u, cf.sigma2_u)

    # Structural coefficient gap as a linear transform of the beta gap.
    z1y1 = linalg.solve_least_squares(ds.r[:ds.d_z1, :ds.d_z1], y1[:ds.d_z1])  # (Z1'Z1)^-1 Z1'Y1
    transform = np.vstack([np.eye(ds.d_y1), -z1y1])
    theta_gap_pred = transform @ gap

    scaled = (
        ols.sigma2 * stats.t_h1,
        tsls.sigma2 * stats.t_h2,
        cf.sigma2_u * stats.t_cf,
    )
    scaled_gap = max(
        _rel_scalar(scaled[0], scaled[2]),
        _rel_scalar(scaled[1], scaled[2]),
        _rel_scalar(scaled[0], scaled[1]),
    )

    # The identities fix the first two steps of the chain: t_cf - t_h1 =
    # t_cf * t_h1 / n and t_h1 - t_h2 = t_h1 * h_n. Strictness is asserted
    # only where both exceed the slack; a closer tie is below what floating
    # point resolves, so the chain is then checked up to the slack.
    slack = tol * (1.0 + stats.t_cf)
    if min(stats.t_cf * stats.t_h1 / n, stats.t_h1 * stats.h_n) > slack:
        ordering_ok = stats.ordered(strict=True)
    else:
        ordering_ok = stats.ordered(slack)

    return IdentityReport(
        theta_cf_vs_tsls_gap=_rel_vec(cf.theta_cf, tsls.theta_hat),
        rho_closed_form_gap=_rel_vec(cf.rho_cf, rho_closed),
        tcf_equivalence_gap=_rel_scalar(stats.t_cf, t_cf_hausman),
        variance_link_ols_gap=_rel_scalar(cf.sigma2_u, ols.sigma2 * (1.0 - stats.t_h1 / n)),
        variance_link_tsls_gap=_rel_scalar(
            cf.sigma2_u, tsls.sigma2 * (1.0 - stats.t_h2 / n - stats.h_n)
        ),
        scaled_statistic_gap=scaled_gap,
        theta_gap_transform_gap=_rel_vec(ols.theta_hat - tsls.theta_hat, theta_gap_pred),
        ordering_ok=ordering_ok,
    )
