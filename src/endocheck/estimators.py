"""OLS, 2SLS and control-function estimation.

All residual variances use divisor n (no degrees-of-freedom correction); the
finite-sample identities between the variance estimators are exact only under
that convention. 2SLS residuals are computed against the original design, not
the instrumented one.

Every fit takes its rank verdict from the Dataset's one rank stage,
``Dataset.rank``, through ``Dataset.require_rank``, and solves the matrices of
``Dataset.designs`` that it judges by SVD least squares (``np.linalg.lstsq``),
not the normal equations: the identities difference nearly equal coefficient
vectors, so squaring the condition number is not acceptable. The fits are the
reference side of ``verify_identities``, independent of the QR closed forms of
the statistics core. Residual norms are taken in R's coordinates, so the fits
hold no n-row array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, InvalidDataset


def _finite(coef: np.ndarray) -> np.ndarray:
    if not np.isfinite(coef).all():  # residuals from overflowed coefficients would be nan
        raise InvalidDataset("the fitted coefficients are not finite in double precision; rescale the data")
    return coef


@dataclass(frozen=True)
class FitResult:
    """Coefficients and residual variance of one structural-equation fit."""

    theta_hat: np.ndarray  # (d_y1 + d_z1,)
    beta_hat: np.ndarray   # leading (d_y1,) subvector of theta_hat
    sigma2: float          # ||y2 - X theta_hat||^2 / n


@dataclass(frozen=True)
class CfFit:
    """Control-function fit: outcome regressed on [X | first-stage residuals]."""

    theta_cf: np.ndarray  # (d_y1 + d_z1,)
    rho_cf: np.ndarray    # (d_y1,), coefficients on the residual block
    sigma2_u: float       # ||u_hat||^2 / n


def _sigma2(ds: Dataset, a: np.ndarray, coef: np.ndarray) -> float:
    """``||y2 - A coef||^2 / n`` for A = X or [X | V_hat]; ``InvalidDataset`` if ``coef`` is not finite."""
    *_, y, r44 = ds.designs
    resid = y - a @ _finite(coef)
    r44 = float(r44)  # a 0-d array; Python floats round alike and cost less
    return (r44 * r44 + float(resid @ resid)) / ds.n


def _structural(ds: Dataset, theta: np.ndarray) -> FitResult:
    """The residual variance is against X = [Y1 | Z1], whichever design gave ``theta``."""
    return FitResult(theta, theta[:ds.d_y1].copy(), _sigma2(ds, ds.designs[0], theta))


def fit_ols(ds: Dataset) -> FitResult:
    """Least squares of the outcome on X = [Y1 | Z1]."""
    ds.require_rank(0)
    x, *_, y, _ = ds.designs
    return _structural(ds, np.linalg.lstsq(x, y, rcond=None)[0])


def fit_tsls(ds: Dataset) -> FitResult:
    """Two-stage least squares: regress the outcome on the projection of X
    onto the instrument space; residuals are taken against the original X.

    In R's coordinates P_Z keeps the leading Z rows, so this is the outcome's
    Z rows on P_Z X once Z is checked for full rank.
    """
    ds.require_rank(1, 2)
    _, _, pzx, _, y, _ = ds.designs
    return _structural(ds, np.linalg.lstsq(pzx, y[:len(pzx)], rcond=None)[0])


def fit_cf(ds: Dataset) -> CfFit:
    """Joint least squares of the outcome on [X | V_hat].

    Raises RankDeficient when V_hat has no variation left (Y1 perfectly
    explained by Z).
    """
    ds.require_rank(3)
    *_, xv, y, _ = ds.designs
    coef = np.linalg.lstsq(xv, y, rcond=None)[0]
    k = ds.d_y1 + ds.d_z1
    return CfFit(coef[:k].copy(), coef[k:].copy(), _sigma2(ds, xv, coef))
