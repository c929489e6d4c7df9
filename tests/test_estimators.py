import numpy as np
import pytest

from endocheck import Dataset, RankDeficient, design_matrices, fit_cf, fit_ols, fit_reduced_form, fit_tsls
from endocheck.linalg import annihilate, project

from conftest import random_admissible_dataset


def exact_fit_dataset(rng, n=40):
    z1 = np.column_stack([np.ones(n), rng.standard_normal(n)])
    z2 = rng.standard_normal((n, 2))
    y1 = (z2 @ np.array([1.0, -0.5]) + rng.standard_normal(n))[:, None]
    theta0 = np.array([1.0, 2.0, -1.0])
    x = np.hstack([y1, z1])
    return Dataset(y2=x @ theta0, y1=y1, z1=z1, z2=z2), theta0


class TestOls:
    def test_exact_fit(self):
        ds, theta0 = exact_fit_dataset(np.random.default_rng(0))
        fit = fit_ols(ds)
        np.testing.assert_allclose(fit.theta_hat, theta0, rtol=1e-10)
        assert fit.sigma2 == pytest.approx(0.0, abs=1e-24)
        np.testing.assert_allclose(fit.beta_hat, fit.theta_hat[: ds.d_y1])

    def test_f1_oracle(self, f1_dataset, f1_expected):
        fit = fit_ols(f1_dataset)
        np.testing.assert_allclose(fit.theta_hat, f1_expected["theta_ols"], rtol=1e-10)
        assert fit.sigma2 == pytest.approx(f1_expected["sigma2_ols"], rel=1e-10)

    def test_beta_partialled_out_form(self):
        # beta from the full regression equals the residualized-design formula
        rng = np.random.default_rng(1)
        for _ in range(10):
            ds = random_admissible_dataset(rng, n=80)
            fit = fit_ols(ds)
            m1y1 = annihilate(ds.z1, ds.y1)
            beta = np.linalg.solve(m1y1.T @ m1y1, m1y1.T @ annihilate(ds.z1, ds.y2))
            np.testing.assert_allclose(fit.beta_hat, beta, rtol=1e-8)


class TestTsls:
    def test_exact_structural_fit(self):
        ds, theta0 = exact_fit_dataset(np.random.default_rng(2))
        fit = fit_tsls(ds)
        np.testing.assert_allclose(fit.theta_hat, theta0, rtol=1e-8)
        assert fit.sigma2 == pytest.approx(0.0, abs=1e-20)

    def test_f1_oracle(self, f1_dataset, f1_expected):
        fit = fit_tsls(f1_dataset)
        np.testing.assert_allclose(fit.theta_hat, f1_expected["theta_tsls"], rtol=1e-10)
        assert fit.sigma2 == pytest.approx(f1_expected["sigma2_tsls"], rel=1e-10)

    def test_beta_projection_difference_form(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            ds = random_admissible_dataset(rng, n=80)
            dm = design_matrices(ds)
            fit = fit_tsls(ds)
            d = project(dm.z, ds.y1) - project(ds.z1, ds.y1)  # (P_Z - P_Z1) Y1
            beta = np.linalg.solve(d.T @ ds.y1, d.T @ ds.y2)
            np.testing.assert_allclose(fit.beta_hat, beta, rtol=1e-8)

    def test_collinear_instruments_raise(self):
        rng = np.random.default_rng(13)
        ds0 = random_admissible_dataset(rng, n=50, d_y1=1, d_z1=1, d_z2=2)
        ds = Dataset(y2=ds0.y2, y1=ds0.y1, z1=ds0.z1, z2=np.hstack([ds0.z2[:, :1], 2.0 * ds0.z2[:, :1]]))
        with pytest.raises(RankDeficient):
            fit_tsls(ds)

    def test_residuals_against_original_design(self):
        rng = np.random.default_rng(4)
        ds = random_admissible_dataset(rng, n=60)
        dm = design_matrices(ds)
        fit = fit_tsls(ds)
        np.testing.assert_allclose(fit.residuals, ds.y2 - dm.x @ fit.theta_hat, rtol=1e-12)


class TestReducedForm:
    def test_exact_first_stage(self):
        rng = np.random.default_rng(5)
        n = 30
        z1 = np.ones((n, 1))
        z2 = rng.standard_normal((n, 2))
        pi0 = np.array([[0.5], [1.0], [-1.0]])
        y1 = np.hstack([z1, z2]) @ pi0
        ds = Dataset(y2=rng.standard_normal(n), y1=y1, z1=z1, z2=z2)
        rf = fit_reduced_form(ds)
        np.testing.assert_allclose(rf.pi_hat, pi0, rtol=1e-10)
        assert np.abs(rf.v_hat).max() < 1e-12

    def test_f1_oracle(self, f1_dataset, f1_expected):
        rf = fit_reduced_form(f1_dataset)
        np.testing.assert_allclose(rf.pi_hat[:, 0], f1_expected["pi_hat"], rtol=1e-10)

    def test_residuals_orthogonal_to_instruments(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            ds = random_admissible_dataset(rng, n=int(rng.integers(30, 80)))
            dm = design_matrices(ds)
            rf = fit_reduced_form(ds)
            bound = 1e-10 * np.linalg.norm(dm.z) * np.linalg.norm(ds.y1)
            assert np.abs(dm.z.T @ rf.v_hat).max() <= bound


class TestCf:
    def test_constructed_orthogonal_residual(self):
        rng = np.random.default_rng(7)
        ds0, theta0 = exact_fit_dataset(rng)
        dm = design_matrices(ds0)
        v_hat = annihilate(dm.z, ds0.y1)
        w = rng.standard_normal(ds0.n)
        remainder = annihilate(np.hstack([dm.x, v_hat]), w)
        assert np.linalg.norm(remainder) > 1e-6
        ds = Dataset(y2=dm.x @ theta0 + remainder, y1=ds0.y1, z1=ds0.z1, z2=ds0.z2)
        cf = fit_cf(ds)
        np.testing.assert_allclose(cf.theta_cf, theta0, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(cf.rho_cf, 0.0, atol=1e-10)
        assert cf.sigma2_u == pytest.approx(np.linalg.norm(remainder) ** 2 / ds.n, rel=1e-10)

    def test_f1_oracle(self, f1_dataset, f1_expected):
        cf = fit_cf(f1_dataset)
        np.testing.assert_allclose(cf.theta_cf, f1_expected["theta_cf"], rtol=1e-10)
        np.testing.assert_allclose(cf.rho_cf, f1_expected["rho_cf"], rtol=1e-10)
        assert cf.sigma2_u == pytest.approx(f1_expected["sigma2_u"], rel=1e-10)

    def test_normal_equations(self):
        rng = np.random.default_rng(8)
        ds = random_admissible_dataset(rng, n=70)
        dm = design_matrices(ds)
        cf = fit_cf(ds)
        design = np.hstack([dm.x, cf.v_hat])
        bound = 1e-10 * np.linalg.norm(design) * np.linalg.norm(ds.y2)
        assert np.abs(design.T @ cf.u_hat).max() <= bound

    def test_rho_closed_form(self):
        # rho equals a fixed linear transform of the OLS/2SLS beta gap
        rng = np.random.default_rng(9)
        for _ in range(10):
            ds = random_admissible_dataset(rng, n=90)
            cf = fit_cf(ds)
            gap = fit_ols(ds).beta_hat - fit_tsls(ds).beta_hat
            m1 = annihilate(ds.z1, ds.y1)
            closed = np.linalg.solve(cf.v_hat.T @ cf.v_hat, (m1.T @ m1) @ gap)
            np.testing.assert_allclose(cf.rho_cf, closed, rtol=1e-8, atol=1e-12)


class TestCrossEstimatorIdentities:
    def test_theta_cf_equals_theta_tsls(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            ds = random_admissible_dataset(rng)
            np.testing.assert_allclose(fit_cf(ds).theta_cf, fit_tsls(ds).theta_hat, rtol=1e-8)

    def test_theta_gap_linear_in_beta_gap(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ds = random_admissible_dataset(rng, n=60)
            ols, tsls = fit_ols(ds), fit_tsls(ds)
            gap = ols.beta_hat - tsls.beta_hat
            z1y1 = np.linalg.solve(ds.z1.T @ ds.z1, ds.z1.T @ ds.y1)
            predicted = np.vstack([np.eye(ds.d_y1), -z1y1]) @ gap
            np.testing.assert_allclose(ols.theta_hat - tsls.theta_hat, predicted, rtol=1e-8, atol=1e-12)

    def test_weak_variance_ordering(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            ds = random_admissible_dataset(rng, n=int(rng.integers(30, 200)))
            s_u = fit_cf(ds).sigma2_u
            s_ols = fit_ols(ds).sigma2
            s_tsls = fit_tsls(ds).sigma2
            assert s_u <= s_ols + 1e-12
            assert s_ols <= s_tsls + 1e-12
