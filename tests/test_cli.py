import json
import math
import sys
import warnings

import numpy as np
import pytest

from endocheck import endogeneity, simulation
from endocheck.cli import main

from conftest import scaled_csv

F1_ARGS = ["--outcome", "y", "--endog", "x", "--exog", "none", "--add-intercept", "--iv", "z1,z2"]
F1_ARGS_NO_Z1 = [arg for arg in F1_ARGS if arg != "--add-intercept"]  # d_z1 = 0


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def collinear_csv(tmp_path):
    """A CSV that fails validation under ``F1_ARGS``: its regressor is constant,
    as the intercept is, and z2 = 2 z1."""
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
    return p


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse JSON, refusing bare NaN / Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.mark.parametrize("args", [F1_ARGS, F1_ARGS_NO_Z1], ids=["intercept", "no Z1"])
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("command", ["test", "verify"])
def test_f1_exits_0_in_every_format(capsys, f1_path, command, fmt, args):
    # verify without Z1 solved a 0x0 (Z1'Z1)^-1 Z1'Y1 and ended in an IndexError.
    code, out, err = run(capsys, [command, str(f1_path), *args, "--format", fmt])
    assert code == 0, err
    assert out and err == ""


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

    @pytest.mark.parametrize("where", ["header", "data row 1"])
    def test_field_over_the_csv_size_limit_exits_2(self, capsys, tmp_path, where):
        big = "1" * 200_000  # past csv.field_size_limit(), 131072 characters by default
        lines = ["y,x,z1,z2", "1,2,3,4", "5,6,7,8"]
        if where == "header":
            lines[0] += "," + big
        else:
            lines[2] = f"5,{big},7,8"
        p = tmp_path / "big_field.csv"
        p.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, ["test", str(p), *F1_ARGS])
        assert code == 2
        assert out == ""
        assert err.startswith("endocheck: ") and err.count("\n") == 1
        assert str(p) in err and where in err

    @pytest.mark.parametrize("quoted", [False, True], ids=["one line", "quoted over many lines"])
    def test_field_over_the_csv_size_limit_in_a_column_without_a_role_exits_2(self, capsys, tmp_path, quoted):
        big = "1" * 200_000
        if quoted:  # no line reaches the limit, the field does
            big = '"' + "\n".join(big[i:i + 100] for i in range(0, len(big), 100)) + '"'
        p = tmp_path / "big_field.csv"
        p.write_text("\n".join(["y,x,z1,z2,note", "1,2,3,4,a", f"5,6,7,8,{big}", "9,1,2,3,b"]) + "\n")
        code, out, err = run(capsys, ["test", str(p), *F1_ARGS])
        assert code == 2
        assert out == ""
        assert err.startswith("endocheck: ") and err.count("\n") == 1
        assert str(p) in err and "data row 1" in err

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

    def test_no_endogenous_column_exits_2(self, capsys, f1_path):
        code, out, err = run(capsys, ["test", str(f1_path), "--add-intercept", "--iv", "z1,z2"])
        assert code == 2
        assert out == ""
        assert err.startswith("endocheck: ") and err.count("\n") == 1
        assert "endogenous" in err

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("y,x,z1,z2\n1,2,3,4\n5,6,7,\xe98\n".encode("latin-1"))
        code, out, err = run(capsys, ["test", str(p), *F1_ARGS])
        assert code == 2
        assert out == ""
        assert err.startswith("endocheck: ") and err.count("\n") == 1
        assert str(p) in err

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, f1_path, f1_expected):
        p = tmp_path / "bom.csv"
        with open(f1_path, "rb") as fh:
            p.write_bytes(b"\xef\xbb\xbf" + fh.read())
        code, out, _ = run(capsys, ["test", str(p), *F1_ARGS, "--format", "json"])
        assert code == 0
        for name, value in json.loads(out)["statistics"].items():
            assert value == pytest.approx(f1_expected[name], rel=1e-8)

    def test_collinear_data_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["test", str(collinear_csv(tmp_path)), *F1_ARGS])
        assert code == 2
        assert err


    def test_alpha_below_double_resolution_of_one(self, capsys, f1_path):
        # 1 - 1e-17 rounds to 1; the critical value comes from the upper tail.
        code, out, err = run(capsys, ["test", str(f1_path), *F1_ARGS, "--alpha", "1e-17", "--format", "json"])
        assert code == 0, err
        assert strict_json(out)["decisions"]["1e-17"] == {name: False for name in ("t_h1", "t_h2", "t_h3", "t_cf")}

    def test_close_levels_get_distinct_labels(self, capsys, f1_path):
        # "%g" labelled both levels 0.05; repr tells them apart, as the json keys do.
        argv = ["test", str(f1_path), *F1_ARGS, "--alpha", "0.05,0.050000001"]
        code, out, _ = run(capsys, [*argv, "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "test,statistic,p_value,reject_at_0.05,reject_at_0.050000001"
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.splitlines()[1].split()[-2:] == ["a=0.05", "a=0.050000001"]

    @pytest.mark.parametrize("alpha", ["0.05,x", "1.5"])
    def test_bad_alpha_is_a_usage_error(self, capsys, f1_path, alpha):
        with pytest.raises(SystemExit) as exc:
            main(["test", str(f1_path), *F1_ARGS, "--alpha", alpha])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.count("usage:") == 1
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--alpha" in errors[0]

    def test_column_with_two_roles_exits_2(self, capsys, f1_path):
        code, out, err = run(capsys, ["test", str(f1_path), "--endog", "x", "--iv", "x,z2"])
        assert code == 2
        assert out == ""
        assert err == "endocheck: column 'x' assigned more than one role\n"

    def test_role_column_named_twice_in_the_header_exits_2(self, capsys, tmp_path, f1_path):
        # The first of the two 'z2' columns was read and the other ignored (exit 0).
        lines = open(f1_path).read().splitlines()
        p = tmp_path / "twice.csv"
        p.write_text("\n".join(f"{line},{line.split(',')[-1]}" for line in lines) + "\n")
        assert lines[0].split(",")[-1] == "z2"
        code, out, err = run(capsys, ["test", str(p), "--outcome", "y", "--endog", "x", "--exog", "none",
                                      "--add-intercept", "--iv", "z1,z2"])
        assert code == 2
        assert out == ""
        assert err.startswith("endocheck: column 'z2' appears 2 times") and err.count("\n") == 1


class TestScaledData:
    @pytest.mark.parametrize("command", ["test", "verify"])
    def test_columns_near_1e100_pass(self, capsys, tmp_path, command):
        # sigma2 times a gram overflowed in verify's Hausman K.
        code, _, err = run(capsys, [command, *scaled_csv(tmp_path / "big.csv", 1e100, 1e100)])
        assert code == 0, err

    @pytest.mark.parametrize("command", ["test", "verify"])
    def test_design_near_1e_300_one_line(self, capsys, tmp_path, command):
        # The coefficients overflow: one line and exit 2, with no warning
        # from a fit before it.
        code, out, err = run(capsys, [command, *scaled_csv(tmp_path / "tiny.csv", 1e-300, 1e50)])
        assert code == 2
        assert out == ""
        assert err.startswith("endocheck: ") and err.count("\n") == 1

    def test_design_near_1e_minus_250(self, capsys, tmp_path):
        # Neither the statistics nor verify's reference side forms a gram, so
        # test reports those of the unscaled data and verify passes; a formed
        # R33'R33 underflowed here and verify exited 2.
        code, out, err = run(capsys, ["test", *scaled_csv(tmp_path / "tiny.csv", 1e-250, 1.0), "--format", "json"])
        assert code == 0, err
        _, unscaled, _ = run(capsys, ["test", *scaled_csv(tmp_path / "one.csv", 1.0, 1.0), "--format", "json"])
        expected = strict_json(unscaled)["statistics"]
        for name, value in strict_json(out)["statistics"].items():
            assert value == pytest.approx(expected[name], rel=1e-13), name
        code, _, err = run(capsys, ["verify", *scaled_csv(tmp_path / "tiny.csv", 1e-250, 1.0)])
        assert code == 0, err

    def test_design_near_1e_minus_160_verify_is_strict_json(self, capsys, tmp_path):
        # Coefficients near 1e160 overflowed a vector norm into a bare NaN gap,
        # and subnormal grams left gaps near 7e-6 (exit 4).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["verify", *scaled_csv(tmp_path / "small.csv", 1e-160, 1.0),
                                          "--format", "json"])
        assert code == 0
        assert err == ""
        doc = strict_json(out)
        assert all(math.isfinite(gap) for gap in doc["gaps"].values())
        assert doc["max_gap"] < 1e-12

    def test_verify_exits_as_test_on_a_scale_grid(self, capsys, tmp_path):
        # The design at 10^k and the outcome at 10^j: where test decides the
        # data, verify's reference side decides them alike. A formed R33'R33
        # made verify exit 2 on 12 pairs that test passed.
        mismatched = []
        for k in range(-300, 301, 25):
            for j in range(-300, 301, 50):
                args = scaled_csv(tmp_path / "grid.csv", 10.0 ** k, 10.0 ** j)
                codes = [run(capsys, [command, *args])[0] for command in ("test", "verify")]
                if codes[0] != codes[1]:
                    mismatched.append((k, j, *codes))
        assert mismatched == []


class TestCmdVerify:
    def test_f1_passes(self, capsys, f1_path):
        code, out, _ = run(capsys, ["verify", str(f1_path), *F1_ARGS])
        assert code == 0
        assert "ok" in out

    def test_f1_csv_format(self, capsys, f1_path, f1_dataset):
        code, out, _ = run(capsys, ["verify", str(f1_path), *F1_ARGS, "--format", "csv"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        names = list(endogeneity.verify_identities(f1_dataset).gaps())
        assert rows[0] == ["identity", "gap"]
        assert [name for name, _ in rows[1:-1]] == names
        assert all(0.0 <= float(gap) < 1e-8 for _, gap in rows[1:-1])
        assert rows[-1] == ["ordering_ok", "1"]

    def test_nan_gap_is_null_and_fails(self, capsys, monkeypatch, f1_path):
        report = endogeneity.IdentityReport(1e-17, math.nan, 0.0, 0.0, 0.0, 0.0, 0.0, True)
        monkeypatch.setattr(endogeneity, "verify_identities", lambda ds, tol: report)
        code, out, _ = run(capsys, ["verify", str(f1_path), *F1_ARGS, "--format", "json"])
        assert code == 4
        doc = strict_json(out)
        assert doc["gaps"]["rho_closed_form"] is None and doc["max_gap"] is None

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

    def test_random_strong_first_stage_passes(self, capsys):
        # The OLS and 2SLS grams nearly coincide; the Hausman weighting must
        # not be formed as a difference of their inverses.
        code, _, _ = run(capsys, ["verify", "--random", "n=60", "d_y1=2", "d_z2=3", "c=200", "seed=1"])
        assert code == 0

    def test_random_bad_key(self, capsys):
        code, _, err = run(capsys, ["verify", "--random", "bogus=1"])
        assert code == 5

    def test_random_more_instruments_than_rows_exits_2(self, capsys):
        code, _, err = run(capsys, ["verify", "--random", "n=20", "d_z2=30"])
        assert code == 2
        assert "rank deficient" in err

    def test_random_overflowing_outcome_exits_2(self, capsys):
        # |y2| ~ 1e200: the sum of squares overflows, so the dataset is refused.
        code, out, err = run(capsys, ["verify", "--random", "rho=1e200"])
        assert code == 2
        assert out == ""
        assert err.startswith("endocheck: ") and err.count("\n") == 1
        assert "overflows" in err

    def test_random_large_finite_outcome_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--random", "rho=1e150", "--format", "json"])
        assert code == 0
        assert strict_json(out)["max_gap"] < 1e-8

    def test_no_input(self, capsys):
        code, _, err = run(capsys, ["verify"])
        assert code == 2

    @pytest.mark.parametrize("tokens", [["n=50"], []], ids=["tokens", "bare"])
    def test_csv_and_random_exits_2(self, capsys, f1_path, tokens):
        # The CSV was never read: verify exited 0 on the random dataset alone.
        code, out, err = run(capsys, ["verify", str(f1_path), *F1_ARGS, "--random", *tokens, "--format", "json"])
        assert code == 2
        assert out == ""
        assert err == "endocheck: verify takes a CSV path or --random, not both\n"

    def test_random_infinite_c_exits_5(self, capsys):
        code, out, err = run(capsys, ["verify", "--random", "c=inf"])
        assert code == 5
        assert out == ""
        assert err.startswith("endocheck: ") and err.count("\n") == 1
        assert "pi2_strength" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "abc"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--random", "--tol", tol])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.count("usage:") == 1
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--tol" in errors[0]


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
        # Bad JSON, a byte that is not UTF-8, nesting deeper than the decoder
        # recurses, and an integer literal past the int-string digit limit.
        configs = [b"{oops", b'{"dgp": "\xff"}', b"[" * 200000]
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if limit:
            configs.append(b'{"dgp": {"n": ' + b"1" * (limit + 1) + b"}}")
        for i, config in enumerate(configs):
            p = tmp_path / f"bad{i}.json"
            p.write_bytes(config)
            code, out, err = run(capsys, ["simulate", "--config", str(p)])
            assert code == 5, err
            assert out == "" and err.startswith("endocheck: ") and err.count("\n") == 1 and str(p) in err

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

    def test_more_instruments_than_rows_all_degenerate(self, capsys, tmp_path):
        cfg = self.config(tmp_path, dgp={"n": 10, "d_z2": 12, "rho": [0.0]}, sim={"replications": 5})
        code, out, _ = run(capsys, ["simulate", "--config", str(cfg), "--format", "json"])
        assert code == 0
        point = strict_json(out)["points"][0]
        assert point["completed"] == 0 and point["degenerate_count"] == 5

    def test_table_notes_degenerate_replications(self, capsys, tmp_path):
        cfg = self.config(tmp_path, dgp={"n": 10, "d_z2": 12, "rho": [0.0]}, sim={"replications": 5})
        code, out, _ = run(capsys, ["simulate", "--config", str(cfg)])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 4 * 3 + 1
        assert all(line.split()[2:] == ["0", "-", "-"] for line in lines[1:-1])  # null in simulation.json
        assert lines[-1] == "note: rho=0: 5 degenerate replications, 0 ordering violations"

    def test_out_is_a_file_exits_2(self, capsys, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the Monte Carlo ran before --out was checked")

        monkeypatch.setattr(simulation, "run_monte_carlo", no_run)
        cfg = self.config(tmp_path, sim={"replications": 2})
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = run(capsys, ["simulate", "--config", str(cfg), "--out", str(taken)])
        assert code == 2
        assert out == ""
        assert err.startswith("endocheck: ") and err.count("\n") == 1
        assert str(taken) in err

    def test_results_write_failing_after_out_exists_exits_2(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        (out_dir / "simulation.json").mkdir(parents=True)
        cfg = self.config(tmp_path, sim={"replications": 2})
        code, out, err = run(capsys, ["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 2
        assert out == ""
        assert err.startswith("endocheck: cannot write results to") and err.count("\n") == 1
        assert str(out_dir) in err

    def test_overflowing_data_exits_2(self, capsys, tmp_path):
        # Finite dials whose draws overflow: the sum of squares of y2 is inf.
        cfg = self.config(tmp_path, dgp={"n": 40, "rho": [0.0], "sigma_u": 1e300}, sim={"replications": 30})
        code, out, err = run(capsys, ["simulate", "--config", str(cfg), "--format", "json"])
        assert code == 2
        assert out == ""
        assert err.startswith("endocheck: ") and err.count("\n") == 1
        assert "overflows" in err

    def test_alpha_below_double_resolution_of_one(self, capsys, tmp_path):
        cfg = self.config(tmp_path, sim={"replications": 20, "alphas": [1e-17, 0.05]})
        code, out, err = run(capsys, ["simulate", "--config", str(cfg), "--format", "json"])
        assert code == 0, err
        rates = strict_json(out)["points"][0]["rates"]
        assert all(r["count"] == 0 for r in rates if r["alpha"] == 1e-17)

    def test_close_levels_get_distinct_labels(self, capsys, tmp_path):
        # "%g" labelled both levels 0.05; repr tells them apart, as the json and csv do.
        cfg = self.config(tmp_path, dgp={"n": 30},
                          sim={"replications": 20, "alphas": [0.05, 0.050000001], "tests": ["t_cf"]})
        code, out, _ = run(capsys, ["simulate", "--config", str(cfg)])
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()[1:]] == ["0.05", "0.050000001"]

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
        assert "nan" not in (out_dir / "simulation.csv").read_text()


def _raw_config_argv(tmp_path, doc):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return ["simulate", "--config", str(p)]


def _config_argv(tmp_path, dgp=None, sim=None, **top):
    return _raw_config_argv(tmp_path, {
        "schema_version": 1,
        "dgp": {"n": 40, "rho": [0.0], **(dgp or {})},
        "sim": {"replications": 5, "seed": 1, **(sim or {})},
        **top,
    })


BAD_INPUTS = {
    "random_n_not_a_number": lambda tmp: ["verify", "--random", "n=abc"],
    "random_n_float": lambda tmp: ["verify", "--random", "n=2.5"],
    "config_n_float": lambda tmp: _config_argv(tmp, dgp={"n": 50.5}),
    "config_replications_float": lambda tmp: _config_argv(tmp, sim={"replications": 2.5}),
    "config_replications_bool": lambda tmp: _config_argv(tmp, sim={"replications": True}),
    "config_seed_float": lambda tmp: _config_argv(tmp, sim={"seed": 1.5}),
    "config_rho_grid_string": lambda tmp: _config_argv(tmp, rho_grid=["a"]),
    "config_rho_grid_entry_bool": lambda tmp: _config_argv(tmp, rho_grid=[[True], [0.5]]),
    "config_rho_grid_entry_string": lambda tmp: _config_argv(tmp, rho_grid=[[0.0], ["0.5"]]),
    "config_intercept_string": lambda tmp: _config_argv(tmp, dgp={"intercept": "no"}),
    "config_intercept_int": lambda tmp: _config_argv(tmp, dgp={"intercept": 1}),
    "config_pi2_strength_bool": lambda tmp: _config_argv(tmp, dgp={"pi2_strength": True}),
    "config_sigma_u_string": lambda tmp: _config_argv(tmp, dgp={"sigma_u": "1.0"}),
    "config_beta_entry_bool": lambda tmp: _config_argv(tmp, dgp={"beta": [True]}),
    "config_rho_entry_string": lambda tmp: _config_argv(tmp, dgp={"rho": ["0.5"]}),
    "config_alphas_entry_string": lambda tmp: _config_argv(tmp, sim={"alphas": ["0.05"]}),
    "config_pi2_strength_nan": lambda tmp: _config_argv(tmp, dgp={"pi2_strength": float("nan")}),
    "config_sigma_u_infinity": lambda tmp: _config_argv(tmp, dgp={"sigma_u": float("inf")}),
    "config_rho_entry_nan": lambda tmp: _config_argv(tmp, dgp={"rho": [float("nan")]}),
    "config_sigma_u_integer_beyond_float": lambda tmp: _config_argv(tmp, dgp={"sigma_u": 10**400}),
    "config_alphas_repeated": lambda tmp: _config_argv(tmp, dgp={"rho": [3.0]}, sim={"alphas": [0.5, 0.5]}),
    "config_tests_repeated": lambda tmp: _config_argv(tmp, sim={"tests": ["t_h1", "t_cf", "t_h1"]}),
    "config_tests_string": lambda tmp: _config_argv(tmp, sim={"tests": "t_h1"}),
    "config_gamma_wrong_length": lambda tmp: _config_argv(tmp, dgp={"gamma": [1.0, 2.0]}),
    "config_replications_zero": lambda tmp: _config_argv(tmp, sim={"replications": 0}),
    "config_alpha_above_one": lambda tmp: _config_argv(tmp, sim={"alphas": [1.5]}),
    "config_tests_unknown_name": lambda tmp: _config_argv(tmp, sim={"tests": ["t_x"]}),
    "config_tests_empty": lambda tmp: _config_argv(tmp, sim={"tests": []}),
    "config_sim_not_an_object": lambda tmp: _raw_config_argv(tmp, {"dgp": {"n": 40}, "sim": 3}),
    "config_root_a_list": lambda tmp: _raw_config_argv(tmp, [{"dgp": {"n": 40}, "sim": {}}]),
    "config_rho_grid_empty": lambda tmp: _config_argv(tmp, rho_grid=[]),
    "config_schema_version_bool": lambda tmp: _config_argv(tmp, schema_version=True),
    "config_schema_version_float": lambda tmp: _config_argv(tmp, schema_version=1.0),
    "config_schema_version_string": lambda tmp: _config_argv(tmp, schema_version="1"),
    # 2**61 rows are past the address space: the allocation fails before
    # any memory is touched.
    "random_n_beyond_address_space": lambda tmp: ["verify", "--random", f"n={2**61}"],
    "config_n_beyond_address_space": lambda tmp: _config_argv(tmp, dgp={"n": 2**61}),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_5_with_one_line(capsys, tmp_path, case):
    code, out, err = run(capsys, BAD_INPUTS[case](tmp_path))
    assert code == 5
    assert out == ""
    assert err.startswith("endocheck: ") and err.count("\n") == 1


def test_bare_test_name_is_not_split_into_characters(capsys, tmp_path):
    code, _, err = run(capsys, _config_argv(tmp_path, sim={"tests": "t_h1"}))
    assert code == 5
    assert "must be a list of test names" in err
