import math

import numpy as np
import pytest
from scipy.integrate import quad

from endocheck import chi2_cdf, chi2_quantile, endogeneity


def chi2_cdf_integration_oracle(df, x):
    """Adaptive quadrature of the chi-square density."""
    def density(t):
        half = df / 2.0
        return math.exp((half - 1.0) * math.log(t) - t / 2.0 - half * math.log(2.0) - math.lgamma(half))

    val, _ = quad(density, 0.0, x, limit=200)
    return val


class TestCdf:
    def test_df2_closed_form(self):
        for x in np.linspace(0.0, 50.0, 201):
            assert chi2_cdf(2, x) == pytest.approx(1.0 - math.exp(-x / 2.0), abs=1e-12)

    def test_zero_and_negative(self):
        for df in (1, 2, 5, 17):
            assert chi2_cdf(df, 0.0) == 0.0
            assert chi2_cdf(df, -3.0) == 0.0

    def test_df2_median(self):
        assert chi2_cdf(2, 2.0 * math.log(2.0)) == pytest.approx(0.5, abs=1e-12)

    def test_df1_critical_value(self):
        assert chi2_cdf(1, 3.8414588) == pytest.approx(0.95, abs=1e-6)

    def test_matches_integration_oracle(self):
        for df in (1, 2, 3, 7, 12):
            for x in (0.3, 1.0, float(df), 3.0 * df, 40.0):
                assert chi2_cdf(df, x) == pytest.approx(chi2_cdf_integration_oracle(df, x), abs=1e-10)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 60.0, 400)
        for df in (1, 4, 9):
            vals = [chi2_cdf(df, x) for x in xs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert 0.0 <= min(vals) and max(vals) <= 1.0

    def test_df_validation(self):
        with pytest.raises(ValueError):
            chi2_cdf(0, 1.0)


class TestQuantile:
    def test_df2_analytic_inverse(self):
        assert chi2_quantile(2, 0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-10)

    def test_df1_95(self):
        assert chi2_quantile(1, 0.95) == pytest.approx(3.8414588, abs=1e-5)

    def test_round_trip(self):
        for df in (1, 2, 5, 20):
            for p in np.arange(0.01, 1.0, 0.01):
                x = chi2_quantile(df, float(p))
                assert chi2_cdf(df, x) == pytest.approx(p, abs=1e-9)

    def test_p_validation(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                chi2_quantile(2, p)


@pytest.mark.parametrize("df", [1, 2, 5])
@pytest.mark.parametrize("t", [40.0, 80.0, 200.0])
def test_run_all_tests_tail_p_values(monkeypatch, df, t):
    """p-values far in the upper tail keep full relative accuracy."""
    mpmath = pytest.importorskip("mpmath")
    stats = endogeneity.Statistics(
        t_h1=t, t_h2=t, t_h3=t, t_cf=t, h_n=0.0, df=df, beta_gap=np.zeros(df),
        ols=None, tsls=None, cf=None, gram_2sls=None, gram_ols=None,
    )
    monkeypatch.setattr(endogeneity, "compute_statistics", lambda ds: stats)
    report = endogeneity.run_all_tests(None)
    with mpmath.workdps(40):
        expected = float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(t) / 2, mpmath.inf, regularized=True))
    for name, p in report.p_values.items():
        assert p == pytest.approx(expected, rel=1e-12, abs=0.0), name
