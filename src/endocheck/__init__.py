"""Endogeneity testing for linear instrumental-variable models.

OLS / 2SLS / control-function estimation, four endogeneity test statistics
with chi-square inference, exact finite-sample identity verification, and
seeded Monte Carlo size/power studies.
"""

from .data import Dataset, ValidationReport, load_csv, validate
from .endogeneity import (
    IdentityReport,
    Statistics,
    TestReport,
    TEST_NAMES,
    compute_statistics,
    run_all_tests,
    verify_identities,
)
from .errors import (
    ConfigInvalid,
    DegenerateVariance,
    EndocheckError,
    RankDeficient,
)
from .estimators import CfFit, FitResult, fit_cf, fit_ols, fit_tsls
from .simulation import DgpConfig, SimConfig, SimResult, generate_dataset, power_curve, run_monte_carlo

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ValidationReport",
    "load_csv",
    "validate",
    "IdentityReport",
    "Statistics",
    "TestReport",
    "TEST_NAMES",
    "compute_statistics",
    "run_all_tests",
    "verify_identities",
    "ConfigInvalid",
    "DegenerateVariance",
    "EndocheckError",
    "RankDeficient",
    "CfFit",
    "FitResult",
    "fit_cf",
    "fit_ols",
    "fit_tsls",
    "DgpConfig",
    "SimConfig",
    "SimResult",
    "generate_dataset",
    "power_curve",
    "run_monte_carlo",
    "__version__",
]
