"""The exact finite-sample null law of ``t_cf`` as an oracle with no reference
implementation.

At rho = 0 the Gaussian process makes u independent of (Z, V), so given
(Z, Y1) the control-function regression of y2 on ``[X | V_hat]`` is a
classical linear model, and ``F = t_cf (n - k) / (n d_y1) ~ F(d_y1, n - k)``
exactly, with ``k = 2 d_y1 + d_z1``, at any instrument strength (Wu,
*Econometrica* 41, 1973). A wrong draw, residual, variance or degree of
freedom shows up as F p-values that are not uniform.
"""

import numpy as np
import pytest
from scipy.special import fdtrc
from scipy.stats import kstest

from endocheck import DgpConfig
from endocheck.endogeneity import block_statistics
from endocheck.simulation import _factor_block

REPLICATIONS = 12000

NULL_CONFIGS = {
    "n12": DgpConfig(n=12, rho=(0.0,)),
    "d_y1_2_weak": DgpConfig(n=20, d_y1=2, d_z2=3, beta=(1.0, 1.0), pi2_strength=0.3, rho=(0.0, 0.0)),
    "d_z1_2_very_weak": DgpConfig(n=24, d_z1=2, d_z2=3, gamma=(1.0, -1.0), pi2_strength=0.05, rho=(0.0,),
                                  sigma_u=2.0),
}


@pytest.mark.parametrize("name", sorted(NULL_CONFIGS))
def test_t_cf_follows_its_exact_f_law(name):
    cfg = NULL_CONFIGS[name]
    values, failed = block_statistics(_factor_block(cfg, 20261020, range(REPLICATIONS)), cfg.n, cfg.d_z1, cfg.d_z2)
    assert not failed.any()
    df2 = cfg.n - (2 * cfg.d_y1 + cfg.d_z1)
    p_values = fdtrc(cfg.d_y1, df2, values.t_cf * df2 / (cfg.n * cfg.d_y1))
    assert kstest(p_values, "uniform").pvalue > 1e-3
