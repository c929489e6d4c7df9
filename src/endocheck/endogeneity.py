"""Endogeneity test statistics, chi-square inference, and identity verification.

The generic Hausman statistic compares the OLS and 2SLS coefficient vectors of
the endogenous block through a difference of their estimated asymptotic
variances; its three named versions differ only in which residual-variance
estimates enter the weighting matrix. The control-function Wald statistic is
computed directly from the augmented regression and coincides with the
Hausman form evaluated at the control-function residual variance.
"""

from __future__ import annotations

import operator
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

def hausman_statistic(beta_gap, gram_2sls, gram_ols, sigma2_1: float, sigma2_2: float) -> float:
    """Generic Hausman quadratic form in the OLS/2SLS coefficient gap.

    The weighting matrix is ``sigma2_1 * gram_2sls^-1 - sigma2_2 * gram_ols^-1``.

    Raises
    ------
    NotPositiveDefinite
        When the weighting matrix is not SPD, which signals an invalid
        variance pairing (it cannot happen for the three named versions
        when the 2SLS variance is at least the OLS one).
    """
    gap = np.asarray(beta_gap, dtype=float).reshape(-1)
    if not np.any(gap):
        return 0.0
    k = gap.shape[0]
    eye = np.eye(k)
    inv_2sls = linalg.spd_solve(np.asarray(gram_2sls, dtype=float), eye)
    inv_ols = linalg.spd_solve(np.asarray(gram_ols, dtype=float), eye)
    w = sigma2_1 * inv_2sls - sigma2_2 * inv_ols
    w = 0.5 * (w + w.T)  # kill rounding asymmetry before the SPD solve
    return float(gap @ linalg.spd_solve(w, gap))


def cf_statistic(cf: CfFit, ds: Dataset) -> float:
    """Wald statistic for a zero coefficient on the control-function block.

    Computed directly from the augmented regression as
    ``rho' (V_hat' M_X V_hat) rho / sigma2_u``.
    """
    if cf.sigma2_u <= _variance_floor(ds.y2):
        raise DegenerateVariance("control-function residual variance is numerically zero")
    _, x, v = ds._blocks()
    mv = linalg.annihilate(x, v)
    gram = mv.T @ mv
    return float(cf.rho_cf @ gram @ cf.rho_cf) / cf.sigma2_u


def compute_h_n(beta_gap, gram_ols, sigma2_2sls: float, n: int) -> float:
    """Scalar linking the control-function and 2SLS variance estimates."""
    gap = np.asarray(beta_gap, dtype=float).reshape(-1)
    gram = np.asarray(gram_ols, dtype=float)
    return float(gap @ gram @ gap) / (n * sigma2_2sls)


def _variance_floor(y2: np.ndarray) -> float:
    # Exact fits leave residuals at rounding scale; anything this small is
    # a degenerate variance, not sampling noise.
    return 1e-24 * (float(np.mean(np.square(y2))) + 1.0)


@dataclass(frozen=True)
class Statistics:
    """All four statistics plus the fit bundle they were computed from."""

    t_h1: float
    t_h2: float
    t_h3: float
    t_cf: float
    h_n: float
    df: int
    beta_gap: np.ndarray
    ols: FitResult
    tsls: FitResult
    cf: CfFit
    gram_2sls: np.ndarray  # Y1_hat' M_Z1 Y1_hat
    gram_ols: np.ndarray   # Y1' M_Z1 Y1

    def by_name(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in TEST_NAMES}

    def ordered(self, slack: float = 0.0, strict: bool = False) -> bool:
        """Whether ``t_cf >= t_h1 >= t_h2 >= t_h3`` holds, each step up to
        ``slack``; with ``strict``, ``>`` in place of ``>=``."""
        chain = (self.t_cf, self.t_h1, self.t_h2, self.t_h3)
        holds = operator.gt if strict else operator.ge
        return all(holds(a, b - slack) for a, b in zip(chain, chain[1:]))


def _grams(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    # M_Z1 drops the Z1 rows of R; P_Z then keeps the Z2 rows.
    y1, _, _ = ds._blocks()
    m1, m2 = y1[ds.d_z1:], y1[ds.d_z1:ds.d_z1 + ds.d_z2]
    return m2.T @ m2, m1.T @ m1


def compute_statistics(ds: Dataset) -> Statistics:
    """Fit all estimators and evaluate the four test statistics."""
    ols = fit_ols(ds)
    tsls = fit_tsls(ds)
    cf = fit_cf(ds)
    floor = _variance_floor(ds.y2)
    for label, s2 in (("ols", ols.sigma2), ("tsls", tsls.sigma2), ("cf", cf.sigma2_u)):
        if s2 <= floor:
            raise DegenerateVariance(f"{label} residual variance is numerically zero")
    gram_2sls, gram_ols = _grams(ds)
    gap = ols.beta_hat - tsls.beta_hat
    return Statistics(
        t_h1=hausman_statistic(gap, gram_2sls, gram_ols, ols.sigma2, ols.sigma2),
        t_h2=hausman_statistic(gap, gram_2sls, gram_ols, tsls.sigma2, tsls.sigma2),
        t_h3=hausman_statistic(gap, gram_2sls, gram_ols, tsls.sigma2, ols.sigma2),
        t_cf=cf_statistic(cf, ds),
        h_n=compute_h_n(gap, gram_ols, tsls.sigma2, ds.n),
        df=ds.d_y1,
        beta_gap=gap,
        ols=ols,
        tsls=tsls,
        cf=cf,
        gram_2sls=gram_2sls,
        gram_ols=gram_ols,
    )


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
    t_cf_hausman = hausman_statistic(gap, stats.gram_2sls, stats.gram_ols, cf.sigma2_u, cf.sigma2_u)

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
