"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines. The Monte Carlo criteria take a few minutes at desk scale.
"""

import json
import math
import time

import numpy as np
import pytest

import endocheck as ec
from endocheck.endogeneity import chi2_critical, chi2_sf
from endocheck.simulation import result_document, write_result_csv, write_result_json

from conftest import first_stage, random_admissible_dataset
from test_chi2 import chi2_cdf_integration_oracle

N_SUITE_DATASETS = 1000


def report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def identity_suite():
    """1000 randomized admissible datasets with their statistics and identity reports."""
    rng = np.random.default_rng(20240102)
    out = []
    start = time.monotonic()
    while len(out) < N_SUITE_DATASETS:
        ds = random_admissible_dataset(rng)
        try:
            stats = ec.compute_statistics(ds)
            ident = ec.verify_identities(ds)
        except ec.EndocheckError:
            continue  # inadmissible draw; redraw
        out.append((ds, stats, ident))
    return out, time.monotonic() - start


def test_criterion_1_identity_suite(identity_suite):
    suite, elapsed = identity_suite
    max_gap = max(ident.max_gap() for _, _, ident in suite)
    ordering_failures = sum(not ident.ordering_ok for _, _, ident in suite)
    strict_checked = 0
    strict_failures = 0
    for ds, stats, _ in suite:
        gap_norm = np.linalg.norm(stats.beta_gap)
        if gap_norm > 1e-8 * (1.0 + np.linalg.norm(ec.fit_ols(ds).beta_hat)):
            strict_checked += 1
            if not (stats.t_cf > stats.t_h1 > stats.t_h2 > stats.t_h3):
                strict_failures += 1
    ok = max_gap < 1e-7 and ordering_failures == 0 and strict_failures == 0 and elapsed < 60.0
    report(
        "1 (identity suite)",
        ok,
        f"{len(suite)} datasets, max gap {max_gap:.3e}, "
        f"{strict_failures}/{strict_checked} strict-ordering failures, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_fixture(f1_dataset, f1_expected):
    stats = ec.compute_statistics(f1_dataset)
    ols, tsls, cf = ec.fit_ols(f1_dataset), ec.fit_tsls(f1_dataset), ec.fit_cf(f1_dataset)
    rel = lambda a, b: np.max(np.abs(np.atleast_1d(a) - np.atleast_1d(b))) / (
        1.0 + np.max(np.abs(np.atleast_1d(b)))
    )
    checks = {
        "theta_ols": rel(ols.theta_hat, f1_expected["theta_ols"]),
        "theta_tsls": rel(tsls.theta_hat, f1_expected["theta_tsls"]),
        "theta_cf": rel(cf.theta_cf, f1_expected["theta_cf"]),
        "rho_cf": rel(cf.rho_cf, f1_expected["rho_cf"]),
        "pi_hat": rel(first_stage(f1_dataset)[:, 0], f1_expected["pi_hat"]),
        "sigma2_ols": rel(ols.sigma2, f1_expected["sigma2_ols"]),
        "sigma2_tsls": rel(tsls.sigma2, f1_expected["sigma2_tsls"]),
        "sigma2_u": rel(cf.sigma2_u, f1_expected["sigma2_u"]),
        "t_h1": rel(stats.t_h1, f1_expected["t_h1"]),
        "t_h2": rel(stats.t_h2, f1_expected["t_h2"]),
        "t_h3": rel(stats.t_h3, f1_expected["t_h3"]),
        "t_cf": rel(stats.t_cf, f1_expected["t_cf"]),
        "h_n": rel(stats.h_n, f1_expected["h_n"]),
    }
    worst = max(checks, key=checks.get)
    ok = checks[worst] < 1e-8
    report("2 (oracle fixture F1)", ok, f"worst agreement {worst} at rel {checks[worst]:.3e}")


def test_criterion_3_variance_identities(identity_suite):
    suite, _ = identity_suite
    worst_link = 0.0
    ordering_violation = 0.0
    for ds, stats, _ in suite:
        n = ds.n
        s_u, s_ols, s_tsls = ec.fit_cf(ds).sigma2_u, ec.fit_ols(ds).sigma2, ec.fit_tsls(ds).sigma2
        worst_link = max(
            worst_link,
            abs(s_u - s_ols * (1 - stats.t_h1 / n)) / (1 + s_u),
            abs(s_u - s_tsls * (1 - stats.t_h2 / n - stats.h_n)) / (1 + s_u),
        )
        ordering_violation = max(ordering_violation, s_u - s_ols, s_ols - s_tsls)
    ok = worst_link < 1e-8 and ordering_violation <= 1e-12
    report(
        "3 (variance identities)",
        ok,
        f"worst link gap {worst_link:.3e}, worst ordering slack {ordering_violation:.3e}",
    )


def test_criterion_4_chi_square_accuracy():
    worst_sf = max(abs(chi2_sf(2, x) - math.exp(-x / 2.0)) for x in np.linspace(0.0, 50.0, 501))
    q95 = chi2_critical(1, 0.05)
    oracle_err = abs(q95 - 3.8414588)
    oracle_cdf = chi2_cdf_integration_oracle(1, q95)
    worst_rt = 0.0
    for df in (1, 2, 5, 20):
        for p in np.arange(0.01, 1.0, 0.01):
            worst_rt = max(worst_rt, abs(chi2_sf(df, chi2_critical(df, float(p))) - p))
    ok = worst_sf < 1e-12 and oracle_err < 1e-5 and abs(oracle_cdf - 0.95) < 1e-8 and worst_rt < 1e-9
    report(
        "4 (chi-square accuracy)",
        ok,
        f"df=2 sf err {worst_sf:.2e}, q(1,.95) err {oracle_err:.2e}, round trip {worst_rt:.2e}",
    )


def test_criterion_5_size_under_null():
    dgp = ec.DgpConfig(n=2000, rho=(0.0,), pi2_strength=1.0, sigma_u=1.0, sigma_v=1.0)
    sim = ec.SimConfig(replications=10_000, seed=20240103, alphas=(0.05,))
    start = time.monotonic()
    res = ec.run_monte_carlo(dgp, sim)
    elapsed = time.monotonic() - start
    rates = {t: res.rejection_rate[t][0.05] for t in sim.tests}
    ok = (
        all(0.04 <= r <= 0.06 for r in rates.values())
        and res.degenerate_count == 0
        and elapsed < 300.0
    )
    rate_str = ", ".join(f"{t}={r:.4f}" for t, r in rates.items())
    report("5 (size under the null)", ok, f"{rate_str}; {elapsed:.0f}s")


def test_criterion_6_power_ordering():
    dgp = ec.DgpConfig(n=200, rho=(0.0,))
    sim = ec.SimConfig(replications=1000, seed=20240104)
    curve = ec.power_curve(dgp, [(0.0,), (0.2,), (0.4,)], sim)
    violations = sum(res.ordering_violations for _, res in curve)
    count_ok = all(
        res.rejection_count["t_cf"][a]
        >= res.rejection_count["t_h1"][a]
        >= res.rejection_count["t_h2"][a]
        >= res.rejection_count["t_h3"][a]
        for _, res in curve
        for a in sim.alphas
    )
    ok = violations == 0 and count_ok
    report(
        "6 (power ordering)",
        ok,
        f"{len(curve)} grid points x {len(sim.alphas)} levels, "
        f"count ordering exact, {violations} per-replication violations",
    )


def test_criterion_7_determinism(tmp_path):
    dgp = ec.DgpConfig(n=100, rho=(0.3,))
    sim = ec.SimConfig(replications=200, seed=20240105)
    blobs = []
    for run in ("a", "b"):
        res = ec.run_monte_carlo(dgp, sim)
        doc = result_document(dgp, sim, [(dgp.rho, res)])
        jp, cp = tmp_path / f"{run}.json", tmp_path / f"{run}.csv"
        write_result_json(jp, doc)
        write_result_csv(cp, doc)
        blobs.append(jp.read_bytes() + cp.read_bytes())
    ok = blobs[0] == blobs[1]
    # the JSON must also parse back to the same document
    ok = ok and json.loads((tmp_path / "a.json").read_text()) == doc
    report("7 (determinism)", ok, "repeat runs byte-identical in JSON and CSV")
