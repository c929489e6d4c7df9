import numpy as np
import pytest

from endocheck import (
    Dataset,
    DegenerateVariance,
    DgpConfig,
    IdentityReport,
    compute_statistics,
    fit_cf,
    fit_ols,
    fit_tsls,
    generate_dataset,
    run_all_tests,
    validate,
    verify_identities,
)
from endocheck import data
from endocheck.cli import _random_dataset, main

from conftest import (
    STRONG_FIRST_STAGE, Blocks, annihilate, design_matrices, generated_blocks, project, random_admissible_blocks,
    random_admissible_dataset,
)
from test_cli import F1_ARGS
from test_estimators import exact_fit_blocks


def _random_blocks(c: float) -> Blocks:
    """The data of ``verify --random n=60 d_y1=2 d_z2=3 c=<c> seed=1``."""
    tokens = ["n=60", "d_y1=2", "d_z2=3", f"c={c:g}", "seed=1"]
    cfg = DgpConfig(n=60, d_y1=2, d_z2=3, beta=(1.0, 1.0), pi2_strength=c, rho=(0.5, 0.5))
    b = generated_blocks(cfg, 0, 1)
    np.testing.assert_array_equal(b.dataset().r, _random_dataset(tokens).r)
    return b


ILL_CONDITIONED_DRAWS = {
    # Just identified with a weak first stage: the 2SLS gram has cond ~1.5e9.
    "weak": lambda: generated_blocks(
        DgpConfig(n=30, d_y1=2, d_z1=2, d_z2=2, beta=(1.0, 1.0), gamma=(1.0, 1.0),
                  pi2_strength=1.125, rho=(0.0, 0.0)),
        29, 31,
    ),
    # A strong first stage: gram_2sls ~ gram_ols, so their inverses nearly cancel in W.
    "strong": lambda: _random_blocks(1000.0),
    # A rank-one pi2 identified by noise only: the 2SLS gram has cond ~2.9e11,
    # past what a formed gram resolves.
    "rank_one": lambda: generated_blocks(
        DgpConfig(n=334, d_y1=2, d_z1=1, d_z2=2, beta=(1.0, 1.0), gamma=(1.0,),
                  pi2_strength=1.439375351085026,
                  rho=(-0.25934038458711484, -2.4286149700989267e-149)),
        1417, 1782221302,
    ),
}


def grams(b: Blocks) -> tuple[np.ndarray, np.ndarray]:
    """(gram_2sls, gram_ols) = (Y1_hat' M_Z1 Y1_hat, Y1' M_Z1 Y1) from the n-row data."""
    a2 = annihilate(b.z1, project(design_matrices(b).z, b.y1))
    a1 = annihilate(b.z1, b.y1)
    return a2.T @ a2, a1.T @ a1


def _near_exact_fit() -> Blocks:
    dgp, seed = STRONG_FIRST_STAGE["strong_first_stage_near_exact_fit"]
    return generated_blocks(dgp, 42, seed)


# Strong first stages, where the OLS and 2SLS fits nearly coincide.
STRONG_FIRST_STAGE_DRAWS = {
    "near_exact_fit": _near_exact_fit,
    "c_10000": lambda: _random_blocks(10000.0),
}


class TestHausmanStatistic:
    def test_f1_oracle(self, f1_dataset, f1_expected):
        stats = compute_statistics(f1_dataset)
        assert stats.t_h1 == pytest.approx(f1_expected["t_h1"], rel=1e-8)
        assert stats.t_h2 == pytest.approx(f1_expected["t_h2"], rel=1e-8)
        assert stats.t_h3 == pytest.approx(f1_expected["t_h3"], rel=1e-8)

    @pytest.mark.parametrize("draw", sorted(ILL_CONDITIONED_DRAWS))
    def test_ill_conditioned_draws_match_oracle(self, draw):
        # Subtracting two Gram inverses lost 1e-6 (weak) and 4e-2 (strong)
        # of t_h1 on these draws.
        pytest.importorskip("mpmath")
        import oracle

        b = ILL_CONDITIONED_DRAWS[draw]()
        expected = oracle.compute(*b)
        stats = compute_statistics(b.dataset())
        for name in ("t_h1", "t_h2", "t_h3", "t_cf", "h_n"):
            assert getattr(stats, name) == pytest.approx(expected[name], rel=1e-7), name
        np.testing.assert_allclose(stats.beta_gap, expected["beta_gap"], rtol=1e-7)

    @pytest.mark.parametrize("draw", sorted(STRONG_FIRST_STAGE_DRAWS))
    def test_strong_first_stage_draws_match_oracle(self, draw):
        # A K formed as a difference of nearly equal grams lost 4e-6
        # (near_exact_fit) and 2e-7 (c_10000) of t_h1, and a gap taken as a
        # difference of two fits lost 1e-5 of near_exact_fit's gap and h_n.
        pytest.importorskip("mpmath")
        import oracle

        b = STRONG_FIRST_STAGE_DRAWS[draw]()
        expected = oracle.compute(*b)
        stats = compute_statistics(b.dataset())
        for name in ("t_h1", "t_h2", "t_h3", "t_cf", "h_n"):
            assert getattr(stats, name) == pytest.approx(expected[name], rel=1e-7), name
        np.testing.assert_allclose(stats.beta_gap, expected["beta_gap"], rtol=1e-7)

    def test_t_h3_matches_its_definition(self):
        """t_h3 = gap'(sigma2_2sls G2^-1 - sigma2_ols G1^-1)^-1 gap from the SVD
        fits and the n-row grams, at d_y1 from 1 to 3."""
        rng = np.random.default_rng(20261021)
        for _ in range(300):
            b = random_admissible_blocks(rng, d_y1=int(rng.integers(1, 4)))
            ds = b.dataset()
            ols, tsls = fit_ols(ds), fit_tsls(ds)
            gap = ols.beta_hat - tsls.beta_hat
            gram_2sls, gram_ols = grams(b)
            w = tsls.sigma2 * np.linalg.inv(gram_2sls) - ols.sigma2 * np.linalg.inv(gram_ols)
            assert compute_statistics(ds).t_h3 == pytest.approx(gap @ np.linalg.solve(w, gap), rel=1e-9)

    def test_no_cholesky_anywhere(self, monkeypatch):
        # Neither the statistics core nor verify's reference side forms a gram
        # to factor: both solve with R's blocks.
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
        ds = random_admissible_dataset(np.random.default_rng(10), n=80, d_y1=2)
        compute_statistics(ds)
        verify_identities(ds)
        assert len(calls) == 0

    def test_small_factorization_budget(self, monkeypatch, f1_path):
        # The rank stage's four SVDs of R's blocks decide every command, once
        # per Dataset, and the statistics core makes one more, of the
        # d_z2 x d_y1 R23 R33^-1; only the reference side of verify solves
        # least squares, each problem on a few rows of R.
        svds, solves, stages = [], [], []
        np_svd, np_lstsq, checks = np.linalg.svd, np.linalg.lstsq, data.rank_checks
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: svds.append(1) or np_svd(*args, **kw))
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda a, *args, **kw: solves.append(np.shape(a)) or np_lstsq(a, *args, **kw))
        # verify's least squares: the three fits and (Z1'Z1)^-1 Z1'Y1
        for command, expected in (("test", (5, 0)), ("verify", (5, 4))):
            svds.clear()
            solves.clear()
            assert main([command, str(f1_path), *F1_ARGS]) == 0
            assert (len(svds), len(solves)) == expected, command

        ds = random_admissible_dataset(np.random.default_rng(10), n=80, d_y1=2)
        monkeypatch.setattr(data, "rank_checks", lambda d: stages.append(1) or checks(d))
        solves.clear()
        for run in (validate, compute_statistics, run_all_tests, verify_identities, fit_ols, fit_tsls, fit_cf):
            run(ds)
        assert len(stages) == 1
        assert len(solves) == 7 and all(rows <= ds.r.shape[0] for rows, _ in solves)


class TestDataScale:
    @staticmethod
    def scaled(design_scale: float, outcome_scale: float | None = None) -> Dataset:
        b = generated_blocks(DgpConfig(n=40, d_y1=2, d_z2=3, beta=(1.0, 1.0), rho=(0.5, 0.3)), 0, 1)
        outcome_scale = design_scale if outcome_scale is None else outcome_scale
        return Dataset(y2=outcome_scale * b.y2, y1=design_scale * b.y1, z1=design_scale * b.z1,
                       z2=design_scale * b.z2)

    @pytest.mark.parametrize(("scale", "outcome_scale"),
                             [(1e100, None), (1e150, None), (1e-160, 1.0), (1e-250, 1.0)],
                             ids=["1e+100", "1e+150", "1e-160-1.0", "1e-250-1.0"])
    def test_statistics_invariant_to_data_scale(self, scale, outcome_scale):
        # sigma2 times a gram overflowed here when K was formed unscaled; at
        # 1e-160 the grams are subnormal and at 1e-250 R33'R33 underflows to
        # zero. Neither the core nor verify's reference side forms a gram.
        expected = compute_statistics(self.scaled(1.0)).by_name()
        scaled = self.scaled(scale, outcome_scale)
        for name, value in compute_statistics(scaled).by_name().items():
            assert value == pytest.approx(expected[name], rel=1e-10), name
        assert verify_identities(scaled).max_gap() < 1e-12


class TestCfStatistic:
    """The core's control-function Wald statistic ``t_cf``."""

    def test_zero_rho_gives_zero(self):
        rng = np.random.default_rng(0)
        b0, theta0 = exact_fit_blocks(rng)
        dm = design_matrices(b0)
        v_hat = annihilate(dm.z, b0.y1)
        remainder = annihilate(np.hstack([dm.x, v_hat]), rng.standard_normal(b0.n))
        ds = Dataset(y2=dm.x @ theta0 + remainder, y1=b0.y1, z1=b0.z1, z2=b0.z2)
        assert compute_statistics(ds).t_cf == pytest.approx(0.0, abs=1e-12)

    def test_equals_hausman_form(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            b = random_admissible_blocks(rng, n=int(rng.integers(30, 100)))
            ds = b.dataset()
            stats = compute_statistics(ds)
            sigma2_u = fit_cf(ds).sigma2_u
            gram_2sls, gram_ols = grams(b)
            w = sigma2_u * (np.linalg.inv(gram_2sls) - np.linalg.inv(gram_ols))
            assert stats.t_cf == pytest.approx(stats.beta_gap @ np.linalg.solve(w, stats.beta_gap), rel=1e-8)


class TestHn:
    def test_f1_oracle(self, f1_dataset, f1_expected):
        stats = compute_statistics(f1_dataset)
        assert stats.h_n == pytest.approx(f1_expected["h_n"], rel=1e-10)


class TestRunAllTests:
    def test_exact_fit_degenerate(self):
        b, _ = exact_fit_blocks(np.random.default_rng(2))
        with pytest.raises(DegenerateVariance):
            run_all_tests(b.dataset())

    def test_f1_oracle(self, f1_dataset, f1_expected):
        report = run_all_tests(f1_dataset)
        for name, value in report.by_name().items():
            assert value == pytest.approx(f1_expected[name], rel=1e-8)
            assert report.p_values[name] == pytest.approx(f1_expected["p_values"][name], rel=1e-8)
        assert report.df == 1
        t = report.by_name()
        assert t["t_cf"] > t["t_h1"] > t["t_h2"] > t["t_h3"]

    def test_pvalues_antitone_in_statistics(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ds = random_admissible_dataset(rng)
            report = run_all_tests(ds)
            t = report.by_name()
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

    def test_nan_gap_is_not_within(self):
        # A nan after the first gap was skipped by a plain max.
        report = IdentityReport(1e-17, np.nan, 0.0, 0.0, 0.0, 0.0, 0.0, True)
        assert np.isnan(report.max_gap())
        assert not report.within(1e-8)

    def test_rank_one_draw_within_gate(self):
        # A formed 2SLS gram put this draw's Hausman routes 3.2e-7 apart.
        assert verify_identities(ILL_CONDITIONED_DRAWS["rank_one"]().dataset()).max_gap() < 1e-7

    def test_zero_rho_weak_ordering(self):
        rng = np.random.default_rng(5)
        b0, theta0 = exact_fit_blocks(rng)
        dm = design_matrices(b0)
        v_hat = annihilate(dm.z, b0.y1)
        remainder = annihilate(np.hstack([dm.x, v_hat]), rng.standard_normal(b0.n))
        ds = Dataset(y2=dm.x @ theta0 + remainder, y1=b0.y1, z1=b0.z1, z2=b0.z2)
        report = verify_identities(ds)
        assert report.max_gap() < 1e-8
        assert report.ordering_ok
        stats = compute_statistics(ds)
        for value in stats.by_name().values():
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_near_tie_ordering_not_flagged(self):
        # A tiny control-function coefficient makes a small nonzero beta gap;
        # the four statistics then differ by less than rounding, and the
        # ordering is checked non-strictly instead of strictly.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            b0, theta0 = exact_fit_blocks(rng)
            dm = design_matrices(b0)
            v_hat = annihilate(dm.z, b0.y1)
            remainder = annihilate(np.hstack([dm.x, v_hat]), rng.standard_normal(b0.n))
            for delta in (1e-8, 1e-7, 1e-6):
                y2 = dm.x @ theta0 + remainder + delta * v_hat[:, 0]
                report = verify_identities(Dataset(y2=y2, y1=b0.y1, z1=b0.z1, z2=b0.z2))
                assert report.max_gap() < 1e-8
                assert report.ordering_ok

    def test_lemma_arithmetic_on_random_data(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            ds = random_admissible_dataset(rng)
            stats = compute_statistics(ds)
            n = ds.n
            lhs = fit_cf(ds).sigma2_u
            assert lhs == pytest.approx(fit_ols(ds).sigma2 * (1 - stats.t_h1 / n), rel=1e-8)
            assert lhs == pytest.approx(
                fit_tsls(ds).sigma2 * (1 - stats.t_h2 / n - stats.h_n), rel=1e-8
            )

    def test_scaled_statistics_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            ds = random_admissible_dataset(rng)
            stats = compute_statistics(ds)
            a = fit_ols(ds).sigma2 * stats.t_h1
            b = fit_tsls(ds).sigma2 * stats.t_h2
            c = fit_cf(ds).sigma2_u * stats.t_cf
            assert a == pytest.approx(c, rel=1e-8)
            assert b == pytest.approx(c, rel=1e-8)

    def test_th3_weighting_matrix_spd(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            b = random_admissible_blocks(rng)
            ds = b.dataset()
            gram_2sls, gram_ols = grams(b)
            w = fit_tsls(ds).sigma2 * np.linalg.inv(gram_2sls) - fit_ols(ds).sigma2 * np.linalg.inv(gram_ols)
            np.linalg.cholesky(0.5 * (w + w.T))

    def test_invariance_under_instrument_reparameterization(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            b = random_admissible_blocks(rng, n=60, d_y1=2, d_z1=1, d_z2=3)
            t = compute_statistics(b.dataset()).by_name()
            g = rng.standard_normal((3, 3))
            while abs(np.linalg.det(g)) < 0.1:
                g = rng.standard_normal((3, 3))
            ds2 = Dataset(y2=b.y2, y1=b.y1, z1=b.z1, z2=b.z2 @ g)
            t2 = compute_statistics(ds2).by_name()
            for name in t:
                assert t2[name] == pytest.approx(t[name], rel=1e-8)
