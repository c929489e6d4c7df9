import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from endocheck import (
    Dataset,
    DegenerateVariance,
    RankDeficient,
    compute_statistics,
    fit_cf,
    fit_ols,
    fit_tsls,
    load_csv,
)
from endocheck.data import RANK_MESSAGES, InvalidDataset

from conftest import (
    SCALED_ROLES, Blocks, annihilate, design_matrices, first_stage, project, random_admissible_blocks,
    random_admissible_dataset, scaled_csv,
)


def exact_fit_blocks(rng, n=40):
    z1 = np.column_stack([np.ones(n), rng.standard_normal(n)])
    z2 = rng.standard_normal((n, 2))
    y1 = (z2 @ np.array([1.0, -0.5]) + rng.standard_normal(n))[:, None]
    theta0 = np.array([1.0, 2.0, -1.0])
    x = np.hstack([y1, z1])
    return Blocks(x @ theta0, y1, z1, z2), theta0


class TestOls:
    def test_exact_fit(self):
        b, theta0 = exact_fit_blocks(np.random.default_rng(0))
        ds = b.dataset()
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
            b = random_admissible_blocks(rng, n=80)
            fit = fit_ols(b.dataset())
            m1y1 = annihilate(b.z1, b.y1)
            beta = np.linalg.solve(m1y1.T @ m1y1, m1y1.T @ annihilate(b.z1, b.y2))
            np.testing.assert_allclose(fit.beta_hat, beta, rtol=1e-8)

    def test_matches_normal_equations_oracle(self):
        # the whole theta against the normal equations formed in long double
        # on the n-row data, independent of the SVD solve on R's rows
        rng = np.random.default_rng(11)
        for _ in range(20):
            b = random_admissible_blocks(rng, n=25)
            x, y = np.asarray(design_matrices(b).x, dtype=np.longdouble), np.asarray(b.y2, dtype=np.longdouble)
            oracle = np.linalg.solve((x.T @ x).astype(float), (x.T @ y).astype(float))
            np.testing.assert_allclose(fit_ols(b.dataset()).theta_hat, oracle, rtol=1e-8)


    def test_rank_deficient_column_matches_compute_statistics(self):
        # An included exogenous column twice the endogenous one: X = [y1 | 1 | 2 y1].
        rng = np.random.default_rng(4)
        y1 = rng.standard_normal(40)
        ds = Dataset(y2=rng.standard_normal(40), y1=y1, z1=np.column_stack([np.ones(40), 2.0 * y1]),
                     z2=rng.standard_normal((40, 2)))
        with pytest.raises(RankDeficient) as fit:
            fit_ols(ds)
        with pytest.raises(RankDeficient) as core:
            compute_statistics(ds)
        assert fit.value.column == core.value.column == 0


class TestTsls:
    def test_exact_structural_fit(self):
        b, theta0 = exact_fit_blocks(np.random.default_rng(2))
        fit = fit_tsls(b.dataset())
        np.testing.assert_allclose(fit.theta_hat, theta0, rtol=1e-8)
        assert fit.sigma2 == pytest.approx(0.0, abs=1e-20)

    def test_f1_oracle(self, f1_dataset, f1_expected):
        fit = fit_tsls(f1_dataset)
        np.testing.assert_allclose(fit.theta_hat, f1_expected["theta_tsls"], rtol=1e-10)
        assert fit.sigma2 == pytest.approx(f1_expected["sigma2_tsls"], rel=1e-10)

    def test_beta_projection_difference_form(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            b = random_admissible_blocks(rng, n=80)
            dm = design_matrices(b)
            fit = fit_tsls(b.dataset())
            d = project(dm.z, b.y1) - project(b.z1, b.y1)  # (P_Z - P_Z1) Y1
            beta = np.linalg.solve(d.T @ b.y1, d.T @ b.y2)
            np.testing.assert_allclose(fit.beta_hat, beta, rtol=1e-8)

    def test_collinear_instruments_raise(self):
        rng = np.random.default_rng(13)
        b = random_admissible_blocks(rng, n=50, d_y1=1, d_z1=1, d_z2=2)
        ds = Dataset(y2=b.y2, y1=b.y1, z1=b.z1, z2=np.hstack([b.z2[:, :1], 2.0 * b.z2[:, :1]]))
        with pytest.raises(RankDeficient):
            fit_tsls(ds)

    def test_residuals_against_original_design(self):
        rng = np.random.default_rng(4)
        b = random_admissible_blocks(rng, n=60)
        dm = design_matrices(b)
        fit = fit_tsls(b.dataset())
        resid = b.y2 - dm.x @ fit.theta_hat
        assert fit.sigma2 == pytest.approx(resid @ resid / b.n, rel=1e-12)


class TestReducedForm:
    def test_exact_first_stage(self):
        rng = np.random.default_rng(5)
        n = 30
        z1 = np.ones((n, 1))
        z2 = rng.standard_normal((n, 2))
        pi0 = np.array([[0.5], [1.0], [-1.0]])
        y1 = np.hstack([z1, z2]) @ pi0
        b = Blocks(rng.standard_normal(n), y1, z1, z2)
        pi_hat = first_stage(b.dataset())
        np.testing.assert_allclose(pi_hat, pi0, rtol=1e-10)
        assert np.abs(b.y1 - design_matrices(b).z @ pi_hat).max() < 1e-12

    def test_f1_oracle(self, f1_dataset, f1_expected):
        np.testing.assert_allclose(first_stage(f1_dataset)[:, 0], f1_expected["pi_hat"], rtol=1e-10)

    def test_residuals_orthogonal_to_instruments(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            b = random_admissible_blocks(rng, n=int(rng.integers(30, 80)))
            dm = design_matrices(b)
            v_hat = b.y1 - dm.z @ first_stage(b.dataset())
            bound = 1e-10 * np.linalg.norm(dm.z) * np.linalg.norm(b.y1)
            assert np.abs(dm.z.T @ v_hat).max() <= bound


class TestCf:
    def test_constructed_orthogonal_residual(self):
        rng = np.random.default_rng(7)
        b0, theta0 = exact_fit_blocks(rng)
        dm = design_matrices(b0)
        v_hat = annihilate(dm.z, b0.y1)
        w = rng.standard_normal(b0.n)
        remainder = annihilate(np.hstack([dm.x, v_hat]), w)
        assert np.linalg.norm(remainder) > 1e-6
        ds = Dataset(y2=dm.x @ theta0 + remainder, y1=b0.y1, z1=b0.z1, z2=b0.z2)
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
        b = random_admissible_blocks(rng, n=70)
        ds = b.dataset()
        dm = design_matrices(b)
        cf = fit_cf(ds)
        design = np.hstack([dm.x, b.y1 - dm.z @ first_stage(ds)])
        u_hat = b.y2 - design @ np.concatenate([cf.theta_cf, cf.rho_cf])
        bound = 1e-10 * np.linalg.norm(design) * np.linalg.norm(b.y2)
        assert np.abs(design.T @ u_hat).max() <= bound

    def test_rho_closed_form(self):
        # rho equals a fixed linear transform of the OLS/2SLS beta gap
        rng = np.random.default_rng(9)
        for _ in range(10):
            b = random_admissible_blocks(rng, n=90)
            ds = b.dataset()
            cf = fit_cf(ds)
            gap = fit_ols(ds).beta_hat - fit_tsls(ds).beta_hat
            m1 = annihilate(b.z1, b.y1)
            v_hat = b.y1 - design_matrices(b).z @ first_stage(ds)
            closed = np.linalg.solve(v_hat.T @ v_hat, (m1.T @ m1) @ gap)
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
            b = random_admissible_blocks(rng, n=60)
            ds = b.dataset()
            ols, tsls = fit_ols(ds), fit_tsls(ds)
            gap = ols.beta_hat - tsls.beta_hat
            z1y1 = np.linalg.solve(b.z1.T @ b.z1, b.z1.T @ b.y1)
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


# The rank checks of each fit: indices into RANK_MESSAGES, and so into ``ds.rank``.
FIT_CHECKS = ((fit_ols, (0,)), (fit_tsls, (1, 2)), (fit_cf, (3,)))


@st.composite
def _rank_datasets(draw):
    """A small random Dataset (d_z1 = 0 included), with one column made exactly
    dependent in X, Z, P_Z X or [X | V_hat] in most draws."""
    d_y1, d_z1 = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    d_z2 = draw(st.integers(d_y1, d_y1 + 2))
    n = draw(st.integers(2 * d_y1 + d_z1 + 1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y1, z1, z2 = (rng.standard_normal((n, d)) for d in (d_y1, d_z1, d_z2))
    z = np.hstack([z1, z2])
    defect = draw(st.sampled_from((None, 0, 1, 2, 3)))
    if defect == 0:    # X's last column twice its first, or X = [0]
        if d_y1 + d_z1 == 1:
            y1[:] = 0.0
        else:
            (z1 if d_z1 else y1)[:, -1] = 2.0 * y1[:, 0]
    elif defect == 1:  # Z's last column twice its first, or Z = [0]
        z2[:, -1] = 2.0 * z[:, 0] if z.shape[1] > 1 else 0.0
    elif defect == 2:  # P_Z Y1's first column in span(Z1)
        y1[:, 0] = annihilate(z, y1[:, 0]) + z1 @ rng.standard_normal(d_z1)
    elif defect == 3:  # Y1's first column in span(Z): no first-stage residual
        y1[:, 0] = z @ rng.standard_normal(z.shape[1])
    return Dataset(y2=rng.standard_normal(n), y1=y1, z1=z1, z2=z2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ds=_rank_datasets())
def test_fits_raise_exactly_where_the_rank_stage_flags(ds):
    """Each fit raises ``RankDeficient`` exactly when ``ds.rank`` flags one of its
    designs, with the message and column that ``compute_statistics`` gives that design."""
    failed = np.flatnonzero(~ds.rank[0])

    def expected(k):
        return RANK_MESSAGES[k], int(np.abs(np.linalg.svd(ds.designs[k])[2][-1]).argmax())

    try:
        compute_statistics(ds)
    except RankDeficient as exc:
        assert (str(exc), exc.column) == expected(failed[0])
    except (DegenerateVariance, InvalidDataset):
        assert not failed.size
    else:
        assert not failed.size
    for fit, checks in FIT_CHECKS:
        flagged = [k for k in checks if k in failed]
        if not flagged:
            fit(ds)
            continue
        with pytest.raises(RankDeficient) as err:
            fit(ds)
        assert (str(err.value), err.value.column) == expected(flagged[0]), fit.__name__


@pytest.mark.parametrize("fit", [fit_ols, fit_tsls, fit_cf], ids=["ols", "tsls", "cf"])
def test_overflowing_coefficients_raise_before_residuals(fit, tmp_path):
    # A design near 1e-300 with y near 1e50: the coefficients overflow to inf,
    # and residuals formed from them would be nan.
    path = scaled_csv(tmp_path / "tiny.csv", 1e-300, 1e50)[0]
    with pytest.raises(InvalidDataset, match="not finite in double precision; rescale the data"):
        fit(load_csv(path, SCALED_ROLES))
