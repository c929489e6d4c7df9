"""Endogeneity test statistics, chi-square inference, and identity verification.

The generic Hausman statistic compares the OLS and 2SLS coefficient vectors of
the endogenous block through a difference of their estimated asymptotic
variances; its three named versions differ only in which residual-variance
estimates enter the weighting matrix. The control-function Wald statistic
coincides with the Hausman form evaluated at the control-function residual
variance. One core on the designs of the triangular factor R
(``data.designs``) gives all four statistics of a dataset or of a Monte Carlo
block. ``verify_identities`` compares the core against the fits and the
Hausman K form, ``K = gram_ols - gram_2sls = R33'R33`` (R33 the block of R
that holds V_hat), read off the 2SLS and OLS residuals on R33's rows. P-values
and critical values are the chi-square upper tail of ``chi2_sf`` and
``chi2_critical``, from ``scipy.special``, which they import on their first
call: the statistics and ``verify_identities`` never load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .data import RANK_MESSAGES, Dataset, InvalidDataset, designs, rank_checks
from .errors import DegenerateVariance, EndocheckError
from .estimators import fit_cf, fit_ols, fit_tsls

TEST_NAMES = ("t_h1", "t_h2", "t_h3", "t_cf")


# ---------------------------------------------------------------------------
# Chi-square distribution
# ---------------------------------------------------------------------------

def chi2_sf(df: int, x: float) -> float:
    """Upper tail ``P(X > x)`` of the chi-square distribution with ``df``
    degrees of freedom, accurate where ``1 - CDF`` rounds to zero."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    from scipy.special import chdtrc  # deferred: most of the import time; verify never needs it
    return float(chdtrc(df, max(x, 0.0)))  # chdtrc is nan below zero, where the tail is one


def chi2_critical(df: int, alpha: float) -> float:
    """The ``x`` with ``chi2_sf(df, x) == alpha``: the level-``alpha`` critical
    value, also for levels below ~1.1e-16, where ``1 - alpha`` rounds to one."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    from scipy.special import chdtri  # deferred: most of the import time; verify never needs it
    return float(chdtri(df, alpha))


# ---------------------------------------------------------------------------
# Test statistics
# ---------------------------------------------------------------------------

def _variance_floor(designs: tuple[np.ndarray, ...], n: int):
    # Exact fits leave residuals at rounding scale; anything this small is
    # a degenerate variance, not sampling noise. mean(y2^2) is read from the
    # outcome's rows of R, one value per stacked R.
    *_, y, r44 = designs
    return 1e-24 * ((np.square(y).sum(axis=-1) + np.square(r44)) / n + 1.0)


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

    def ordered(self, strict: bool = False):
        """Whether ``t_cf >= t_h1 >= t_h2 >= t_h3`` holds; with ``strict``,
        ``>`` in place of ``>=``. A bool for floats, a bool array
        (elementwise) for arrays. The statistics core makes the non-strict
        chain hold in floating point, so the Monte Carlo checks it with no
        slack."""
        chain = (self.t_cf, self.t_h1, self.t_h2, self.t_h3)
        if isinstance(self.t_cf, float):  # a nan anywhere makes the chained comparison false
            cf, h1, h2, h3 = chain
            return bool(cf > h1 > h2 > h3 if strict else cf >= h1 >= h2 >= h3)
        holds = np.greater if strict else np.greater_equal
        ok = np.logical_and.reduce([holds(a, b) for a, b in zip(chain, chain[1:])])
        return ok if np.ndim(ok) else bool(ok)


@dataclass(frozen=True)
class Statistics(StatisticValues):
    """All four statistics plus ``h_n``, the degrees of freedom and ``beta_ols - beta_2sls``."""

    h_n: float
    df: int
    beta_gap: np.ndarray


def compute_statistics(ds: Dataset) -> Statistics:
    """The four test statistics, ``h_n`` and the beta gap of ``ds`` by the decision of
    ``block_statistics`` on a stack of one, with the rank flags of ``ds.rank``; it runs no
    fit. Raises its first failed check: ``RankDeficient`` (``Dataset.require_rank`` of
    all four rank checks), ``DegenerateVariance`` (the OLS or CF variance at the floor)
    or ``InvalidDataset`` (non-finite results)."""
    ds.require_rank(*range(len(RANK_MESSAGES)))
    d = tuple(a[None] for a in ds.designs)
    values, h_n, gap, failed = _decide(d, ds.rank[0][:, None], ds.n, ds.d_z1, ds.d_z2)
    if failed[0]:
        raise _failure(int(failed[0]))
    return Statistics(*values[:, 0].tolist(), h_n=float(h_n[0]), df=ds.d_y1, beta_gap=gap[0])


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` on stacks, with nan for each singular ``a`` in place
    of one error for the whole stack."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(b.shape, np.nan)
        return np.concatenate([_solve(a[i:i + 1], b[i:i + 1]) for i in range(len(a))])


def _statistics_core(designs: tuple[np.ndarray, ...], n: int, d_z1: int, d_z2: int) -> tuple[np.ndarray, ...]:
    """The (4, B) statistics ``t_h1, t_h2, t_h3, t_cf``, (2, B) variances
    ``sigma2_ols, sigma2_u``, (B, d_y1) gaps ``beta_ols - beta_2sls`` and (B,)
    ``h_n`` of the ``data.designs`` of stacked R factors, meaningful where
    they pass the rank rule. With ``R23``, ``R33`` the Z2 and Y1 rows of X's
    Y1 columns and ``r24``, ``r34`` the matching rows of ``y`` (Z1 is
    concentrated out by dropping its rows), all comes from one SVD:

    * ``R23 R33^-1 = U S Q'`` with the full U, ``U'r24 = [c1; c2]`` (``c1`` its
      first d_y1 entries) and ``w = Q'r34``. As ``R23 = U1 S Q'R33``,
      ``beta_2sls = R33^-1 Q S^-1 c1``; its residual ``e`` is ``c2`` on the Z2
      rows, so ``n*sigma2_u = r44^2 + ||c2||^2``, and ``Q'e_Y1 = w - c1/s``;
    * ``G2 = R33'Q S^2 Q'R33``, ``G1 = R33'Q (1 + S^2) Q'R33`` and ``G1 gap =
      R33'e_Y1``, so ``z = Q'R33 gap = (s w - c1) / (s (1 + s^2))``, and ``gap =
      R33^-1 Q z`` is no difference of fits;
    * each statistic is ``sum_j a_j / v_j`` over ``a = s^2 (1 + s^2) z^2 = (s w -
      c1)^2 / (1 + s^2)``, with ``v`` = ``sigma2_u`` (t_cf), ``sigma2_ols =
      sigma2_u + sum(a)/n`` (t_h1), ``sigma2_2sls = sigma2_ols + c`` (t_h2) and
      ``sigma2_2sls + c s^2`` (t_h3), where ``c = sum((1 + s^2) z^2)/n`` and
      ``h_n = c / sigma2_2sls``.

    Each ``v`` is the one before it plus a non-negative term, so it rounds to
    at least that one, and the four sums run in the same order: ``t_cf >= t_h1
    >= t_h2 >= t_h3`` holds in floating point with no slack; an ``s`` of zero
    leaves ``z`` non-finite. No gram is formed. A replication's values depend,
    bit for bit, on its own R only.
    """
    x, _, _, _, y, r44 = designs
    d_y1, dz = x.shape[-1] - d_z1, d_z1 + d_z2
    r23, r33 = x[:, d_z1:dz, :d_y1], x[:, dz:, :d_y1]
    r24, r34 = y[:, d_z1:dz, None], y[:, dz:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = _solve(r33.swapaxes(1, 2), r23.swapaxes(1, 2)).swapaxes(1, 2)  # R23 R33^-1
        # A stacked SVD raises on any nan; the rank stage flags each replication that has one here.
        u, s, qt = np.linalg.svd(np.where(np.isfinite(ratio), ratio, 0.0))
        uc = (u.swapaxes(1, 2) @ r24)[..., 0]
        c1, c2 = uc[:, :d_y1], uc[:, d_y1:]
        w = (qt @ r34)[..., 0]
        s2 = np.square(s)
        s2p1 = 1.0 + s2
        s_u = (np.square(r44) + np.square(c2).sum(axis=-1)) / n
        t = s * w - c1
        a = np.square(t) / s2p1
        z = t / (s * s2p1)
        gap = _solve(r33, qt.swapaxes(1, 2) @ z[..., None])[..., 0]
        c = (s2p1 * np.square(z)).sum(axis=-1) / n  # sigma2_2sls - sigma2_ols
        s_ols = s_u + a.sum(axis=-1) / n
        s_2sls = s_ols + c
        h_n = c / s_2sls
        # The variances of t_h1, t_h2, t_h3 and t_cf, one row each, over which a sums.
        v = np.empty((4, *a.shape))
        v[0], v[1], v[3] = s_ols[:, None], s_2sls[:, None], s_u[:, None]
        np.add(s_2sls[:, None], c[:, None] * s2, out=v[2])
        stats = (a / v).sum(axis=-1)
    return stats, np.array([s_ols, s_u]), gap, h_n


_VARIANCE_LABELS = ("ols", "cf")


def _decide(d: tuple[np.ndarray, ...], full_rank: np.ndarray, n: int, d_z1: int, d_z2: int) -> tuple[np.ndarray, ...]:
    """Decide each dataset of the stacked ``data.designs`` ``d`` of B square R factors.

    The checks, in order: the (4, B) flags ``full_rank`` of ``data.rank_checks``
    on ``d``, which the caller runs (``Dataset.rank`` for ``compute_statistics``);
    the variance floor on the core's variances (ols, cf: sigma2_2sls = sigma2_ols
    + c with c >= 0 or nan is below the floor only where sigma2_ols is); finite
    core results. Returns the (4, B) statistics, (B,) ``h_n``, (B, d_y1) beta gaps,
    all nan where a check fails, and (B,) codes: 1 + the index of the first
    failed check, or 0.
    """
    stats, variances, gap, h_n = _statistics_core(d, n, d_z1, d_z2)
    finite = np.isfinite(np.concatenate([stats, h_n[None], gap.T])).all(axis=0)
    fails = np.concatenate([~full_rank, variances <= _variance_floor(d, n), ~finite[None]])
    if not fails.any():  # the common case: no codes to find, no column to mask
        return stats, h_n, gap, np.zeros(len(h_n), dtype=np.intp)
    failed = np.where(fails.any(axis=0), fails.argmax(axis=0) + 1, 0)
    bad = failed > 0
    stats[:, bad] = h_n[bad] = gap[bad] = np.nan
    return stats, h_n, gap, failed


def _failure(code: int) -> EndocheckError:
    """The error that a variance or finiteness failure ``code`` of ``_decide`` raises."""
    code -= len(RANK_MESSAGES)
    if code <= len(_VARIANCE_LABELS):
        return DegenerateVariance(f"{_VARIANCE_LABELS[code - 1]} residual variance is numerically zero")
    return InvalidDataset("the test statistics are not finite in double precision; rescale the data")


def block_statistics(r: np.ndarray, n: int, d_z1: int, d_z2: int) -> tuple[StatisticValues, np.ndarray]:
    """The four statistics of a block of datasets from their stacked R factors alone.

    ``r`` is (B, p, p): ``data.factor`` of each dataset's ``W = [Z1 | Z2 | Y1 | y2]``.
    Each dataset is decided as ``compute_statistics`` decides it on a stack
    of one, so the values are equal bit for bit.

    Returns the statistics as (B,) arrays and a (B,) flag, true exactly
    where ``compute_statistics`` raises. Flagged entries hold nan.
    """
    d = designs(r, d_z1, d_z2)
    values, _, _, failed = _decide(d, rank_checks(d)[0], n, d_z1, d_z2)
    return StatisticValues(*values), failed > 0


@dataclass(frozen=True)
class TestReport(Statistics):
    """The four statistics with chi-square p-values and per-level reject decisions."""

    p_values: dict[str, float]
    decisions: dict[float, dict[str, bool]]


def run_all_tests(ds: Dataset, alphas=(0.01, 0.05, 0.10)) -> TestReport:
    """Compute all four statistics, p-values, and per-level reject decisions."""
    stats = compute_statistics(ds)
    values = stats.by_name()
    p_values = {name: chi2_sf(stats.df, t) for name, t in values.items()}
    decisions = {}
    for alpha in alphas:
        crit = chi2_critical(stats.df, alpha)
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
    tcf_equivalence_gap: float       # the core's t_cf vs the Hausman K form of t_cf
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
        """The largest gap; nan when any gap is nan."""
        return float(np.max(list(self.gaps().values())))

    def within(self, tol: float) -> bool:
        """Every gap finite and below ``tol``, and the ordering holds."""
        return self.max_gap() < tol and self.ordering_ok


def _rel_vec(a: np.ndarray, b: np.ndarray) -> float:
    # hypot scales, so coefficients near 1e160 do not overflow the norm.
    return math.hypot(*(a - b).tolist()) / (1.0 + math.hypot(*b.tolist()))


def _rel_scalar(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(b))


def verify_identities(ds: Dataset, tol: float = 1e-8) -> IdentityReport:
    """Evaluate every exact finite-sample identity on one dataset.

    ``tol`` only affects ``ordering_ok``: the chain must hold strictly where
    its first two steps, ``t_cf * t_h1 / n`` and ``t_h1 * h_n``, both exceed
    ``tol * (1 + t_cf)``, and non-strictly elsewhere; the gaps themselves
    are always reported.
    """
    stats = compute_statistics(ds)  # decides the dataset before any fit
    # The reference side of each identity: the SVD fits, independent of the core.
    ols, tsls, cf = fit_ols(ds), fit_tsls(ds), fit_cf(ds)
    n = ds.n
    gap = ols.beta_hat - tsls.beta_hat
    x, z, _, _, y, _ = ds.designs
    dz = ds.d_z1 + ds.d_z2
    # M_Z1 drops the Z1 rows, so gram_ols = B1'B1 with B1 = [R23; R33] and
    # gram_2sls = R23'R23: gram_ols - gram_2sls = R33'R33 = V_hat'V_hat.
    b1_gap = x[ds.d_z1:, :ds.d_y1] @ gap
    h_n = float(b1_gap @ b1_gap) / (n * tsls.sigma2)

    # R33^-T G1 gap and R33^-T G2 gap are the 2SLS and OLS residuals on R33's
    # rows: below the Z1 rows B1 gap = e_2sls - e_ols, R23'e_2sls = 0 and B1'e_ols = 0.
    f1, f2 = ((y - x @ fit.theta_hat)[dz:] for fit in (tsls, ols))
    # rho's closed form (V_hat'V_hat)^-1 G1 gap; R33 is nonsingular once
    # compute_statistics has passed [X | V_hat], whose last columns are [0; R33].
    rho_closed = np.linalg.solve(x[dz:, :ds.d_y1], f1)
    # The Hausman K form at unit variance, (G1 gap)'K^-1 (G2 gap) with K =
    # R33'R33, is sigma2 * t for every sigma2: over the CF variance it is the
    # Hausman form of t_cf, against the core's.
    form = float(f1 @ f2)
    t_cf_hausman = form / cf.sigma2_u

    # Structural coefficient gap as a linear transform of the beta gap: the Z1
    # coefficients move by -(Z1'Z1)^-1 Z1'Y1 gap = -R11^-1 R13 gap, with R11 the
    # triangular Z1 block of R, nonsingular once Z has full rank.
    theta_gap_pred = np.concatenate([gap, -np.linalg.solve(z[:ds.d_z1, :ds.d_z1], x[:ds.d_z1, :ds.d_y1] @ gap)])

    # sigma2 * t is the same for t_h1, t_h2 and t_cf, so the 2SLS side is the
    # Hausman K form itself.
    scaled = (ols.sigma2 * stats.t_h1, form, cf.sigma2_u * stats.t_cf)
    scaled_gap = max(
        _rel_scalar(scaled[0], scaled[2]),
        _rel_scalar(scaled[1], scaled[2]),
        _rel_scalar(scaled[0], scaled[1]),
    )

    # The identities fix the first two steps of the chain: t_cf - t_h1 =
    # t_cf * t_h1 / n and t_h1 - t_h2 = t_h1 * h_n. Strictness is asserted
    # only where both exceed tol * (1 + t_cf); a closer tie is below what
    # floating point resolves. The non-strict chain holds by construction.
    ordering_ok = stats.ordered(strict=min(stats.t_cf * stats.t_h1 / n, stats.t_h1 * h_n) > tol * (1.0 + stats.t_cf))

    return IdentityReport(
        theta_cf_vs_tsls_gap=_rel_vec(cf.theta_cf, tsls.theta_hat),
        rho_closed_form_gap=_rel_vec(cf.rho_cf, rho_closed),
        tcf_equivalence_gap=_rel_scalar(stats.t_cf, t_cf_hausman),
        variance_link_ols_gap=_rel_scalar(cf.sigma2_u, ols.sigma2 * (1.0 - stats.t_h1 / n)),
        variance_link_tsls_gap=_rel_scalar(
            cf.sigma2_u, tsls.sigma2 * (1.0 - stats.t_h2 / n - h_n)
        ),
        scaled_statistic_gap=scaled_gap,
        theta_gap_transform_gap=_rel_vec(ols.theta_hat - tsls.theta_hat, theta_gap_pred),
        ordering_ok=ordering_ok,
    )
