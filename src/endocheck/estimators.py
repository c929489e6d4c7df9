"""OLS, 2SLS, reduced-form, and control-function estimation.

All residual variances use divisor n (no degrees-of-freedom correction); the
finite-sample identities between the variance estimators are exact only under
that convention. 2SLS residuals are computed against the original design, not
the instrumented one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import Dataset


@dataclass(frozen=True)
class FitResult:
    """Coefficients and residuals of one structural-equation fit."""

    theta_hat: np.ndarray  # (d_y1 + d_z1,)
    beta_hat: np.ndarray   # leading (d_y1,) subvector of theta_hat
    residuals: np.ndarray  # (n,)
    sigma2: float          # ||residuals||^2 / n
    method: str            # 'ols' or 'tsls'


@dataclass(frozen=True)
class ReducedFormFit:
    """First-stage regression of the endogenous block on all exogenous columns."""

    pi_hat: np.ndarray  # (d_z1 + d_z2, d_y1)
    v_hat: np.ndarray   # (n, d_y1), residuals orthogonal to Z


@dataclass(frozen=True)
class CfFit:
    """Control-function fit: outcome regressed on [X | first-stage residuals]."""

    theta_cf: np.ndarray  # (d_y1 + d_z1,)
    rho_cf: np.ndarray    # (d_y1,), coefficients on the residual block
    v_hat: np.ndarray     # (n, d_y1)
    u_hat: np.ndarray     # (n,)
    sigma2_u: float       # ||u_hat||^2 / n


def _structural(ds: Dataset, design: np.ndarray, method: str) -> FitResult:
    """The outcome on ``design`` in the coordinates of ``ds.r``: X = [Y1 | Z1] for OLS,
    P_Z X for 2SLS (projecting raises on collinear Z). Residuals are against X."""
    theta = linalg.solve_least_squares(design, ds.r[:, -1])
    residuals = ds.y2 - ds.y1 @ theta[:ds.d_y1] - ds.z1 @ theta[ds.d_y1:]
    return FitResult(
        theta_hat=theta,
        beta_hat=theta[:ds.d_y1].copy(),
        residuals=residuals,
        sigma2=float(residuals @ residuals) / ds.n,
        method=method,
    )


def fit_ols(ds: Dataset) -> FitResult:
    """Least squares of the outcome on X = [Y1 | Z1]."""
    return _structural(ds, ds._blocks()[1], "ols")


def fit_tsls(ds: Dataset) -> FitResult:
    """Two-stage least squares: regress the outcome on the projection of X
    onto the instrument space; residuals are taken against the original X."""
    _, x, _ = ds._blocks()
    return _structural(ds, linalg.project(ds.r[:, :ds.d_z1 + ds.d_z2], x), "tsls")


def fit_reduced_form(ds: Dataset) -> ReducedFormFit:
    """First stage: Y1 on Z = [Z1 | Z2]; residuals are the control functions."""
    dz = ds.d_z1 + ds.d_z2
    y1, _, _ = ds._blocks()
    pi_hat = linalg.solve_least_squares(ds.r[:dz, :dz], y1[:dz])
    return ReducedFormFit(pi_hat=pi_hat, v_hat=ds.y1 - ds.z1 @ pi_hat[:ds.d_z1] - ds.z2 @ pi_hat[ds.d_z1:])


def fit_cf(ds: Dataset) -> CfFit:
    """Joint least squares of the outcome on [X | V_hat].

    Raises RankDeficient when V_hat has no variation left (Y1 perfectly
    explained by Z).
    """
    _, x, v = ds._blocks()
    coef = linalg.solve_least_squares(np.hstack([x, v]), ds.r[:, -1])
    k = ds.d_y1 + ds.d_z1
    v_hat = fit_reduced_form(ds).v_hat
    u_hat = ds.y2 - ds.y1 @ coef[:ds.d_y1] - ds.z1 @ coef[ds.d_y1:k] - v_hat @ coef[k:]
    return CfFit(
        theta_cf=coef[:k].copy(),
        rho_cf=coef[k:].copy(),
        v_hat=v_hat,
        u_hat=u_hat,
        sigma2_u=float(u_hat @ u_hat) / ds.n,
    )
