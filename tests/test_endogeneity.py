import numpy as np
import pytest

from endocheck import (
    Dataset,
    DegenerateVariance,
    NotPositiveDefinite,
    cf_statistic,
    compute_h_n,
    compute_statistics,
    design_matrices,
    fit_cf,
    hausman_statistic,
    run_all_tests,
    verify_identities,
)
from endocheck.linalg import annihilate

from conftest import random_admissible_dataset
from test_estimators import exact_fit_dataset


class TestHausmanStatistic:
    def test_zero_gap(self):
        assert hausman_statistic(np.zeros(2), np.eye(2), 2.0 * np.eye(2), 1.0, 1.0) == 0.0

    def test_scalar_hand_value(self):
        # g=1, a=1, b=2, s=1: g^2 / (s*(1/a - 1/b)) = 1 / 0.5 = 2
        assert hausman_statistic([1.0], [[1.0]], [[2.0]], 1.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_invalid_variance_pairing(self):
        # large sigma2_2 flips the weighting matrix negative
        with pytest.raises(NotPositiveDefinite):
            hausman_statistic([1.0], [[1.0]], [[2.0]], 1.0, 10.0)

    def test_f1_oracle(self, f1_dataset, f1_expected):
        stats = compute_statistics(f1_dataset)
        assert stats.t_h1 == pytest.approx(f1_expected["t_h1"], rel=1e-8)
        assert stats.t_h2 == pytest.approx(f1_expected["t_h2"], rel=1e-8)
        assert stats.t_h3 == pytest.approx(f1_expected["t_h3"], rel=1e-8)


class TestCfStatistic:
    def test_zero_rho_gives_zero(self):
        rng = np.random.default_rng(0)
        ds0, theta0 = exact_fit_dataset(rng)
        dm = design_matrices(ds0)
        v_hat = annihilate(dm.z, ds0.y1)
        remainder = annihilate(np.hstack([dm.x, v_hat]), rng.standard_normal(ds0.n))
        ds = Dataset(y2=dm.x @ theta0 + remainder, y1=ds0.y1, z1=ds0.z1, z2=ds0.z2)
        cf = fit_cf(ds)
        assert cf_statistic(cf, ds) == pytest.approx(0.0, abs=1e-12)

    def test_f1_oracle(self, f1_dataset, f1_expected):
        assert cf_statistic(fit_cf(f1_dataset), f1_dataset) == pytest.approx(
            f1_expected["t_cf"], rel=1e-8
        )

    def test_equals_hausman_form(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            ds = random_admissible_dataset(rng, n=int(rng.integers(30, 100)))
            stats = compute_statistics(ds)
            alt = hausman_statistic(
                stats.beta_gap, stats.gram_2sls, stats.gram_ols,
                stats.cf.sigma2_u, stats.cf.sigma2_u,
            )
            assert stats.t_cf == pytest.approx(alt, rel=1e-8)


class TestHn:
    def test_zero_gap(self):
        assert compute_h_n(np.zeros(2), np.eye(2), 1.0, 10) == 0.0

    def test_scalar_arithmetic(self):
        assert compute_h_n([2.0], [[3.0]], 1.0, 4) == pytest.approx(3.0, rel=1e-14)

    def test_f1_oracle(self, f1_dataset, f1_expected):
        stats = compute_statistics(f1_dataset)
        assert stats.h_n == pytest.approx(f1_expected["h_n"], rel=1e-10)


class TestRunAllTests:
    def test_exact_fit_degenerate(self):
        ds, _ = exact_fit_dataset(np.random.default_rng(2))
        with pytest.raises(DegenerateVariance):
            run_all_tests(ds)

    def test_f1_oracle(self, f1_dataset, f1_expected):
        report = run_all_tests(f1_dataset)
        for name, value in report.statistics().items():
            assert value == pytest.approx(f1_expected[name], rel=1e-8)
            assert report.p_values[name] == pytest.approx(f1_expected["p_values"][name], rel=1e-8)
        assert report.df == 1
        t = report.statistics()
        assert t["t_cf"] > t["t_h1"] > t["t_h2"] > t["t_h3"]

    def test_pvalues_antitone_in_statistics(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ds = random_admissible_dataset(rng)
            report = run_all_tests(ds)
            t = report.statistics()
            order = sorted(t, key=t.get)
            ps = [report.p_values[name] for name in order]
            assert all(b <= a + 1e-15 for a, b in zip(ps, ps[1:]))

    def test_decisions_monotone_across_tests(self):
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(30):
            ds = random_admissible_dataset(rng, n=40)
            report = run_all_tests(ds, alphas=(0.01, 0.05, 0.10, 0.5))
            for alpha, dec in report.decisions.items():
                if dec["t_h3"]:
                    assert dec["t_h2"] and dec["t_h1"] and dec["t_cf"]
                if dec["t_h2"]:
                    assert dec["t_h1"] and dec["t_cf"]
                if dec["t_h1"]:
                    assert dec["t_cf"]
                hits += sum(dec.values())
        assert hits > 0  # the check must have been exercised


class TestVerifyIdentities:
    def test_f1_all_gaps_small(self, f1_dataset):
        report = verify_identities(f1_dataset)
        assert report.max_gap() < 1e-8
        assert report.ordering_ok

    def test_zero_rho_weak_ordering(self):
        rng = np.random.default_rng(5)
        ds0, theta0 = exact_fit_dataset(rng)
        dm = design_matrices(ds0)
        v_hat = annihilate(dm.z, ds0.y1)
        remainder = annihilate(np.hstack([dm.x, v_hat]), rng.standard_normal(ds0.n))
        ds = Dataset(y2=dm.x @ theta0 + remainder, y1=ds0.y1, z1=ds0.z1, z2=ds0.z2)
        report = verify_identities(ds)
        assert report.max_gap() < 1e-8
        assert report.ordering_ok
        stats = compute_statistics(ds)
        for value in stats.by_name().values():
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_near_tie_ordering_not_flagged(self):
        # A tiny control-function coefficient makes a small nonzero beta gap;
        # the four statistics then differ by less than rounding, and the
        # ordering is checked up to the slack instead of strictly.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ds0, theta0 = exact_fit_dataset(rng)
            dm = design_matrices(ds0)
            v_hat = annihilate(dm.z, ds0.y1)
            remainder = annihilate(np.hstack([dm.x, v_hat]), rng.standard_normal(ds0.n))
            for delta in (1e-8, 1e-7, 1e-6):
                y2 = dm.x @ theta0 + remainder + delta * v_hat[:, 0]
                report = verify_identities(Dataset(y2=y2, y1=ds0.y1, z1=ds0.z1, z2=ds0.z2))
                assert report.max_gap() < 1e-8
                assert report.ordering_ok

    def test_lemma_arithmetic_on_random_data(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            ds = random_admissible_dataset(rng)
            stats = compute_statistics(ds)
            n = ds.n
            lhs = stats.cf.sigma2_u
            assert lhs == pytest.approx(stats.ols.sigma2 * (1 - stats.t_h1 / n), rel=1e-8)
            assert lhs == pytest.approx(
                stats.tsls.sigma2 * (1 - stats.t_h2 / n - stats.h_n), rel=1e-8
            )

    def test_scaled_statistics_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            ds = random_admissible_dataset(rng)
            stats = compute_statistics(ds)
            a = stats.ols.sigma2 * stats.t_h1
            b = stats.tsls.sigma2 * stats.t_h2
            c = stats.cf.sigma2_u * stats.t_cf
            assert a == pytest.approx(c, rel=1e-8)
            assert b == pytest.approx(c, rel=1e-8)

    def test_th3_weighting_matrix_spd(self):
        from endocheck.linalg import spd_solve

        rng = np.random.default_rng(8)
        for _ in range(30):
            ds = random_admissible_dataset(rng)
            stats = compute_statistics(ds)
            k = ds.d_y1
            w = stats.tsls.sigma2 * np.linalg.inv(stats.gram_2sls) - stats.ols.sigma2 * np.linalg.inv(
                stats.gram_ols
            )
            spd_solve(0.5 * (w + w.T), np.eye(k))

    def test_invariance_under_instrument_reparameterization(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            ds = random_admissible_dataset(rng, n=60, d_y1=2, d_z1=1, d_z2=3)
            t = compute_statistics(ds).by_name()
            g = rng.standard_normal((3, 3))
            while abs(np.linalg.det(g)) < 0.1:
                g = rng.standard_normal((3, 3))
            ds2 = Dataset(y2=ds.y2, y1=ds.y1, z1=ds.z1, z2=ds.z2 @ g)
            t2 = compute_statistics(ds2).by_name()
            for name in t:
                assert t2[name] == pytest.approx(t[name], rel=1e-8)
