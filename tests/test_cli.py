import json

import numpy as np
import pytest

from endocheck.cli import main

F1_ARGS = ["--outcome", "y", "--endog", "x", "--exog", "none", "--add-intercept", "--iv", "z1,z2"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse JSON, refusing bare NaN / Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


class TestCmdTest:
    def test_f1_json_matches_fixture(self, capsys, f1_path, f1_expected):
        code, out, _ = run(capsys, ["test", str(f1_path), *F1_ARGS, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        for name, value in doc["statistics"].items():
            assert value == pytest.approx(f1_expected[name], rel=1e-8)
        assert doc["df"] == 1
        assert doc["beta_gap"] == pytest.approx(f1_expected["beta_gap"], rel=1e-8)

    def test_json_round_trips_doubles(self, capsys, f1_path):
        code, out, _ = run(capsys, ["test", str(f1_path), *F1_ARGS, "--format", "json"])
        doc = json.loads(out)
        # serialize-parse round trip is lossless
        again = json.loads(json.dumps(doc))
        assert again == doc

    def test_table_format(self, capsys, f1_path):
        code, out, _ = run(capsys, ["test", str(f1_path), *F1_ARGS])
        assert code == 0
        for name in ("t_h1", "t_h2", "t_h3", "t_cf"):
            assert name in out

    def test_csv_format(self, capsys, f1_path):
        code, out, _ = run(capsys, ["test", str(f1_path), *F1_ARGS, "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("test,statistic,p_value")
        assert len(lines) == 5

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["test", "/nonexistent/file.csv", *F1_ARGS])
        assert code == 2
        assert "/nonexistent/file.csv" in err

    def test_exact_fit_exits_3(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        n = 30
        z2 = rng.standard_normal((n, 2))
        y1 = z2 @ np.array([1.0, -0.5]) + rng.standard_normal(n)
        y2 = 2.0 * y1 + 1.0  # exact structural fit given the intercept
        p = tmp_path / "exact.csv"
        rows = ["y,x,z1,z2"] + [
            f"{float(y2[i])!r},{float(y1[i])!r},{float(z2[i, 0])!r},{float(z2[i, 1])!r}"
            for i in range(n)
        ]
        p.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, ["test", str(p), *F1_ARGS])
        assert code == 3
        assert "variance" in err

    def test_collinear_data_exits_2(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        n = 30
        z = rng.standard_normal(n)
        y1 = np.full(n, 5.0)  # constant regressor collides with the intercept
        y2 = rng.standard_normal(n)
        p = tmp_path / "collinear.csv"
        rows = ["y,x,z1,z2"] + [
            f"{float(y2[i])!r},{float(y1[i])!r},{float(z[i])!r},{float(z[i] * 2)!r}" for i in range(n)
        ]
        p.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, ["test", str(p), *F1_ARGS])
        assert code == 2
        assert err


class TestCmdVerify:
    def test_f1_passes(self, capsys, f1_path):
        code, out, _ = run(capsys, ["verify", str(f1_path), *F1_ARGS])
        assert code == 0
        assert "ok" in out

    def test_impossible_tolerance(self, capsys, f1_path):
        code, _, _ = run(capsys, ["verify", str(f1_path), *F1_ARGS, "--tol", "1e-300"])
        assert code == 4

    def test_random_dataset(self, capsys):
        code, out, _ = run(capsys, ["verify", "--random", "n=200", "seed=7"])
        assert code == 0

    def test_random_json_format(self, capsys):
        code, out, _ = run(capsys, ["verify", "--random", "n=100", "seed=3", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["ordering_ok"] is True
        assert doc["max_gap"] < 1e-8

    def test_random_bad_key(self, capsys):
        code, _, err = run(capsys, ["verify", "--random", "bogus=1"])
        assert code == 5

    def test_random_more_instruments_than_rows_exits_2(self, capsys):
        code, _, err = run(capsys, ["verify", "--random", "n=20", "d_z2=30"])
        assert code == 2
        assert "rank deficient" in err

    def test_no_input(self, capsys):
        code, _, err = run(capsys, ["verify"])
        assert code == 2


class TestCmdSimulate:
    def config(self, tmp_path, **overrides):
        doc = {
            "schema_version": 1,
            "dgp": {"n": 40, "rho": [0.0]},
            "sim": {"replications": 50, "seed": 123},
        }
        doc.update(overrides)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        return p

    def test_run_and_outputs(self, capsys, tmp_path):
        cfg = self.config(tmp_path)
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, ["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "simulation.json").exists()
        assert (out_dir / "simulation.csv").exists()
        doc = json.loads((out_dir / "simulation.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["points"][0]["ordering_violations"] == 0

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        cfg = self.config(tmp_path)
        blobs = []
        for d in ("o1", "o2"):
            out_dir = tmp_path / d
            code, _, _ = run(capsys, ["simulate", "--config", str(cfg), "--out", str(out_dir)])
            assert code == 0
            blobs.append(
                (out_dir / "simulation.json").read_bytes() + (out_dir / "simulation.csv").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_malformed_config_exits_5(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        code, _, err = run(capsys, ["simulate", "--config", str(p)])
        assert code == 5

    def test_missing_config_exits_5(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["simulate", "--config", str(tmp_path / "nope.json")])
        assert code == 5

    def test_seed_override(self, capsys, tmp_path):
        cfg = self.config(tmp_path)
        code, out1, _ = run(capsys, ["simulate", "--config", str(cfg), "--format", "json"])
        code, out2, _ = run(capsys, ["simulate", "--config", str(cfg), "--seed", "999", "--format", "json"])
        assert json.loads(out1)["sim"]["seed"] == 123
        assert json.loads(out2)["sim"]["seed"] == 999

    def test_power_grid(self, capsys, tmp_path):
        cfg = self.config(tmp_path, rho_grid=[[0.0], [0.5]])
        code, out, _ = run(capsys, ["simulate", "--config", str(cfg), "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert [p["rho"] for p in doc["points"]] == [[0.0], [0.5]]

    def test_all_degenerate_run_is_strict_json(self, capsys, tmp_path):
        cfg = self.config(tmp_path, dgp={"n": 50, "rho": [0.0], "sigma_u": 1e-300},
                          sim={"replications": 3})
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, ["simulate", "--config", str(cfg), "--out", str(out_dir),
                                    "--format", "json"])
        assert code == 0
        for doc in (strict_json(out), strict_json((out_dir / "simulation.json").read_text())):
            point = doc["points"][0]
            assert point["completed"] == 0 and point["degenerate_count"] == 3
            assert all(r["rate"] is None and r["stderr"] is None for r in point["rates"])


def _config_argv(tmp_path, dgp=None, sim=None, **top):
    doc = {
        "schema_version": 1,
        "dgp": {"n": 40, "rho": [0.0], **(dgp or {})},
        "sim": {"replications": 5, "seed": 1, **(sim or {})},
        **top,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return ["simulate", "--config", str(p)]


BAD_INPUTS = {
    "random_n_not_a_number": lambda tmp: ["verify", "--random", "n=abc"],
    "random_n_float": lambda tmp: ["verify", "--random", "n=2.5"],
    "config_n_float": lambda tmp: _config_argv(tmp, dgp={"n": 50.5}),
    "config_replications_float": lambda tmp: _config_argv(tmp, sim={"replications": 2.5}),
    "config_replications_bool": lambda tmp: _config_argv(tmp, sim={"replications": True}),
    "config_seed_float": lambda tmp: _config_argv(tmp, sim={"seed": 1.5}),
    "config_rho_grid_string": lambda tmp: _config_argv(tmp, rho_grid=["a"]),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_5_with_one_line(capsys, tmp_path, case):
    code, out, err = run(capsys, BAD_INPUTS[case](tmp_path))
    assert code == 5
    assert out == ""
    assert err.startswith("endocheck: ") and err.count("\n") == 1
