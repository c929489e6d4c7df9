"""OLS, 2SLS, reduced-form, and control-function estimation.

All residual variances use divisor n (no degrees-of-freedom correction); the
finite-sample identities between the variance estimators are exact only under
that convention. 2SLS residuals are computed against the original design, not
the instrumented one.

Every fit reads only ``Dataset.r``: ``y2 - W_S c = Q (R[:, -1] - R[:, S] c)``,
so residual norms are taken in R's coordinates and the fits hold no n-row
array; ``residuals(ds)`` forms the n-row vector on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import Dataset, InvalidDataset


def _finite(coef: np.ndarray) -> np.ndarray:
    if not np.isfinite(coef).all():  # residuals from overflowed coefficients would be nan
        raise InvalidDataset("the fitted coefficients are not finite in double precision; rescale the data")
    return coef


def _structural_residuals(ds: Dataset, theta: np.ndarray) -> np.ndarray:
    return ds.y2 - ds.y1 @ theta[:ds.d_y1] - ds.z1 @ theta[ds.d_y1:]


@dataclass(frozen=True)
class FitResult:
    """Coefficients and residual variance of one structural-equation fit."""

    theta_hat: np.ndarray  # (d_y1 + d_z1,)
    beta_hat: np.ndarray   # leading (d_y1,) subvector of theta_hat
    sigma2: float          # ||y2 - X theta_hat||^2 / n
    method: str            # 'ols' or 'tsls'

    def residuals(self, ds: Dataset) -> np.ndarray:
        """The (n,) residuals ``y2 - X theta_hat`` of ``ds``, from its data blocks."""
        return _structural_residuals(ds, self.theta_hat)


@dataclass(frozen=True)
class ReducedFormFit:
    """First-stage regression of the endogenous block on all exogenous columns."""

    pi_hat: np.ndarray  # (d_z1 + d_z2, d_y1)

    def residuals(self, ds: Dataset) -> np.ndarray:
        """The (n, d_y1) control functions ``V_hat = Y1 - Z pi_hat`` of ``ds``, orthogonal to Z."""
        return ds.y1 - ds.z1 @ self.pi_hat[:ds.d_z1] - ds.z2 @ self.pi_hat[ds.d_z1:]


@dataclass(frozen=True)
class CfFit:
    """Control-function fit: outcome regressed on [X | first-stage residuals]."""

    theta_cf: np.ndarray  # (d_y1 + d_z1,)
    rho_cf: np.ndarray    # (d_y1,), coefficients on the residual block
    sigma2_u: float       # ||u_hat||^2 / n

    def residuals(self, ds: Dataset) -> np.ndarray:
        """The (n,) residuals ``u_hat = y2 - X theta_cf - V_hat rho_cf`` of ``ds``,
        with ``V_hat`` from ``fit_reduced_form``."""
        return _structural_residuals(ds, self.theta_cf) - fit_reduced_form(ds).residuals(ds) @ self.rho_cf


def _structural(ds: Dataset, x: np.ndarray, theta: np.ndarray, method: str) -> FitResult:
    """The residual variance is against X = [Y1 | Z1], whichever design gave ``theta``."""
    resid = ds.r[:, -1] - x @ _finite(theta)
    return FitResult(theta, theta[:ds.d_y1].copy(), float(resid @ resid) / ds.n, method)


def fit_ols(ds: Dataset) -> FitResult:
    """Least squares of the outcome on X = [Y1 | Z1]."""
    x = ds._blocks()[1]
    return _structural(ds, x, linalg.solve_least_squares(x, ds.r[:, -1]), "ols")


def fit_tsls(ds: Dataset) -> FitResult:
    """Two-stage least squares: regress the outcome on the projection of X
    onto the instrument space; residuals are taken against the original X.

    In R's coordinates P_Z keeps the leading ``d_z1 + d_z2`` rows, so this is
    the outcome's Z rows on X's Z rows once Z is checked for full rank.
    """
    dz = ds.d_z1 + ds.d_z2
    linalg.full_rank_svd(ds.r[:dz, :dz])
    x = ds._blocks()[1]
    return _structural(ds, x, linalg.solve_least_squares(x[:dz], ds.r[:dz, -1]), "tsls")


def fit_reduced_form(ds: Dataset) -> ReducedFormFit:
    """First stage: Y1 on Z = [Z1 | Z2]; residuals are the control functions."""
    dz = ds.d_z1 + ds.d_z2
    y1, _, _ = ds._blocks()
    return ReducedFormFit(pi_hat=linalg.solve_least_squares(ds.r[:dz, :dz], y1[:dz]))


def fit_cf(ds: Dataset) -> CfFit:
    """Joint least squares of the outcome on [X | V_hat].

    Raises RankDeficient when V_hat has no variation left (Y1 perfectly
    explained by Z).
    """
    _, x, v = ds._blocks()
    xv = np.hstack([x, v])
    coef = _finite(linalg.solve_least_squares(xv, ds.r[:, -1]))
    resid = ds.r[:, -1] - xv @ coef
    k = ds.d_y1 + ds.d_z1
    return CfFit(coef[:k].copy(), coef[k:].copy(), float(resid @ resid) / ds.n)
