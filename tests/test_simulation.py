import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from endocheck import ConfigInvalid, DgpConfig, SimConfig, generate_dataset, power_curve, run_monte_carlo
from endocheck.simulation import (
    load_config,
    result_document,
    write_result_csv,
    write_result_json,
)

from conftest import generated_blocks


class TestDgpConfig:
    def test_defaults_match_fixture_shape(self):
        cfg = DgpConfig()
        assert (cfg.n, cfg.d_y1, cfg.d_z1, cfg.d_z2) == (16, 1, 1, 2)

    def test_too_small_sample_rejected(self):
        with pytest.raises(ConfigInvalid):
            DgpConfig(n=3)

    def test_order_condition(self):
        with pytest.raises(ConfigInvalid):
            DgpConfig(d_y1=2, d_z2=1, beta=(1.0, 1.0), rho=(0.0, 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigInvalid):
            DgpConfig(beta=(1.0, 2.0))

    def test_nonpositive_sigma(self):
        with pytest.raises(ConfigInvalid):
            DgpConfig(sigma_u=0.0)


class TestGenerateDataset:
    def test_deterministic(self):
        cfg = DgpConfig(n=50)
        a = generated_blocks(cfg, 3, 123)
        b = generated_blocks(cfg, 3, 123)
        assert a.y2.tobytes() == b.y2.tobytes()
        assert a.y1.tobytes() == b.y1.tobytes()
        assert a.z1.tobytes() == b.z1.tobytes()
        assert a.z2.tobytes() == b.z2.tobytes()
        assert generate_dataset(cfg, 3, 123).r.tobytes() == generate_dataset(cfg, 3, 123).r.tobytes()

    def test_substreams_differ(self):
        cfg = DgpConfig(n=50)
        a = generated_blocks(cfg, 0, 123)
        b = generated_blocks(cfg, 1, 123)
        assert not np.array_equal(a.y2, b.y2)

    def test_intercept_column(self):
        b = generated_blocks(DgpConfig(n=30, intercept=True), 0, 7)
        np.testing.assert_allclose(b.z1[:, 0], 1.0)
        b2 = generated_blocks(DgpConfig(n=30, intercept=False), 0, 7)
        assert not np.allclose(b2.z1[:, 0], 1.0)

    def test_error_correlation_zero_under_null(self):
        cfg = DgpConfig(n=100_000, rho=(0.0,))
        b = generated_blocks(cfg, 0, 99)
        # reconstruct eps and v from the known coefficients
        v = b.y1 - b.z2 @ np.full((2, 1), cfg.pi2_strength)
        eps = b.y2 - b.y1 @ np.array(cfg.beta) - b.z1 @ np.array(cfg.gamma)
        corr = np.corrcoef(eps, v[:, 0])[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(cfg.n)

    def test_error_correlation_matches_closed_form(self):
        # corr(eps, v) = rho*sigma_v / sqrt(rho^2 sigma_v^2 + sigma_u^2)
        cfg = DgpConfig(n=100_000, rho=(0.5,))
        b = generated_blocks(cfg, 0, 42)
        v = b.y1 - b.z2 @ np.full((2, 1), cfg.pi2_strength)
        eps = b.y2 - b.y1 @ np.array(cfg.beta) - b.z1 @ np.array(cfg.gamma)
        corr = np.corrcoef(eps, v[:, 0])[0, 1]
        assert corr == pytest.approx(0.5 / math.sqrt(1.25), abs=4.0 / math.sqrt(cfg.n))


class TestMonteCarlo:
    def test_result_shape_and_ordering(self):
        dgp = DgpConfig(n=60, rho=(0.4,))
        sim = SimConfig(replications=200, seed=11, alphas=(0.05, 0.10))
        res = run_monte_carlo(dgp, sim)
        assert res.ordering_violations == 0
        assert res.degenerate_count == 0
        assert res.completed == 200
        for t in sim.tests:
            for a in sim.alphas:
                assert 0.0 <= res.rejection_rate[t][a] <= 1.0
                expected_se = math.sqrt(
                    res.rejection_rate[t][a] * (1 - res.rejection_rate[t][a]) / 200
                )
                assert res.mc_stderr[t][a] == pytest.approx(expected_se, abs=1e-12)

    def test_count_ordering_exact(self):
        dgp = DgpConfig(n=80, rho=(0.3,))
        sim = SimConfig(replications=300, seed=5)
        res = run_monte_carlo(dgp, sim)
        for a in sim.alphas:
            assert (
                res.rejection_count["t_cf"][a]
                >= res.rejection_count["t_h1"][a]
                >= res.rejection_count["t_h2"][a]
                >= res.rejection_count["t_h3"][a]
            )

    def test_deterministic_result(self):
        dgp = DgpConfig(n=40)
        sim = SimConfig(replications=50, seed=77)
        a = run_monte_carlo(dgp, sim)
        b = run_monte_carlo(dgp, sim)
        assert a == b

    def test_power_curve_composition(self):
        dgp = DgpConfig(n=60)
        sim = SimConfig(replications=100, seed=13)
        curve = power_curve(dgp, [(0.0,)], sim)
        assert len(curve) == 1
        from dataclasses import replace

        direct = run_monte_carlo(replace(dgp, rho=(0.0,)), sim)
        assert curve[0][1] == direct

    def test_power_nondecreasing_in_rho(self):
        dgp = DgpConfig(n=500)
        sim = SimConfig(replications=400, seed=21, alphas=(0.05,))
        curve = power_curve(dgp, [(0.0,), (0.3,), (0.6,)], sim)
        rates = [res.rejection_rate["t_cf"][0.05] for _, res in curve]
        ses = [res.mc_stderr["t_cf"][0.05] for _, res in curve]
        assert rates[1] >= rates[0] - 3 * (ses[0] + ses[1])
        assert rates[2] >= rates[1] - 3 * (ses[1] + ses[2])
        assert rates[2] > rates[0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigInvalid):
            power_curve(DgpConfig(), [], SimConfig())


class TestSerialization:
    def test_config_round_trip(self, tmp_path):
        doc = {
            "schema_version": 1,
            "dgp": {"n": 100, "rho": [0.0]},
            "sim": {"replications": 10, "seed": 4},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        dgp, sim, grid = load_config(p)
        assert dgp.n == 100 and sim.replications == 10 and grid is None

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigInvalid):
            load_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"dgp": {"n": 100, "bogus": 1}, "sim": {}}))
        with pytest.raises(ConfigInvalid):
            load_config(p)

    def test_missing_section(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"dgp": {}}))
        with pytest.raises(ConfigInvalid):
            load_config(p)

    def test_wrong_schema_version(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"schema_version": 99, "dgp": {}, "sim": {}}))
        with pytest.raises(ConfigInvalid):
            load_config(p)

    def test_byte_identical_outputs(self, tmp_path):
        dgp = DgpConfig(n=40)
        sim = SimConfig(replications=30, seed=9)
        for run in ("a", "b"):
            res = run_monte_carlo(dgp, sim)
            doc = result_document(dgp, sim, [(dgp.rho, res)])
            write_result_json(tmp_path / f"{run}.json", doc)
            write_result_csv(tmp_path / f"{run}.csv", doc)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_csv_columns(self, tmp_path):
        dgp = DgpConfig(n=40)
        sim = SimConfig(replications=20, seed=2)
        res = run_monte_carlo(dgp, sim)
        write_result_csv(tmp_path / "r.csv", result_document(dgp, sim, [(dgp.rho, res)]))
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "test,alpha,rho,rate,stderr,R,n,seed"
        assert len(lines) == 1 + len(sim.tests) * len(sim.alphas)


ROOT = Path(__file__).resolve().parents[1]

# simulate on the benchmark's mc_size config, one output digest pair per seed.
DIGEST_SCRIPT = """
import contextlib, hashlib, io, json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import inputs
from endocheck import cli

out, digests = Path(sys.argv[2]), {}
for seed in map(int, sys.argv[3:]):
    config = out / "config.json"
    inputs.write_mc_config(config, seed)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 0, code
    digests[str(seed)] = {kind: hashlib.sha256((out / f"simulation.{kind}").read_bytes()).hexdigest()
                          for kind in ("json", "csv")}
print(json.dumps(digests))
"""


def test_simulate_output_matches_committed_digests(tmp_path):
    """simulate reproduces perfbench/digests.json byte for byte, run as
    perfbench/make_digests.py runs it: a fresh interpreter, one BLAS thread."""
    seeds = ["0", "1", "2"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT, str(ROOT / "perfbench"), str(tmp_path), *seeds],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    committed = json.loads((ROOT / "perfbench" / "digests.json").read_text())["seeds"]
    assert json.loads(done.stdout) == {seed: committed[seed] for seed in seeds}
