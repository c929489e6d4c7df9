"""Command-line surface: ``test``, ``verify``, and ``simulate`` subcommands.

Exit codes: 0 success; 2 input or validation failure, or a report (the
help text too) that cannot be written to stdout; 3 degenerate residual
variance; 4 identity verification failure; 5 invalid simulation config.
Stdout in json/csv modes carries only the report, never log lines.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import replace

from . import data, endogeneity, simulation
from .errors import ConfigInvalid, DegenerateVariance, EndocheckError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_VERIFY_FAILED = 4
EXIT_CONFIG = 5


def _parse_alphas(text: str) -> list[float]:
    try:
        alphas = [float(a) for a in text.split(",") if a.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha list: {text!r}") from None
    if not alphas or any(not 0.0 < a < 1.0 for a in alphas):
        raise argparse.ArgumentTypeError("significance levels must lie in (0, 1)")
    return alphas


def _parse_tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance: {text!r}") from None
    if not 0.0 < tol < float("inf"):  # also false for nan
        raise argparse.ArgumentTypeError(f"tolerance must be a positive finite number, got {text!r}")
    return tol


def _roles_from_args(args) -> dict[str, str]:
    roles = {args.outcome: data.ROLE_OUTCOME}

    def assign(names: str, role: str):
        for name in names.split(","):
            name = name.strip()
            if not name or name.lower() == "none":
                continue
            if name in roles:
                raise data.RoleConflict(f"column '{name}' assigned more than one role")
            roles[name] = role

    assign(args.endog, data.ROLE_ENDOGENOUS)
    assign(args.exog, data.ROLE_EXOGENOUS)
    assign(args.iv, data.ROLE_INSTRUMENT)
    return roles


def _load_dataset(args) -> data.Dataset:
    return data.load_csv(args.data, _roles_from_args(args), add_intercept=args.add_intercept)


def _add_dataset_args(p: argparse.ArgumentParser, data_required: bool = True):
    p.add_argument("data", nargs=None if data_required else "?", help="input CSV file")
    p.add_argument("--outcome", default="y", help="outcome column name")
    p.add_argument("--endog", default="", help="comma-separated endogenous columns")
    p.add_argument("--exog", default="none", help="comma-separated included exogenous columns, or 'none'")
    p.add_argument("--iv", default="", help="comma-separated excluded instrument columns")
    p.add_argument("--add-intercept", action="store_true", help="prepend a ones column to the exogenous block")


def _test_report_dict(report: endogeneity.TestReport) -> dict:
    return {
        "schema_version": 1,
        "statistics": report.by_name(),
        "h_n": report.h_n,
        "df": report.df,
        "p_values": report.p_values,
        "decisions": {repr(a): d for a, d in report.decisions.items()},
        "beta_gap": list(report.beta_gap),
    }


def _print_test_report(report: endogeneity.TestReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_test_report_dict(report), indent=2, sort_keys=True, allow_nan=False))
        return
    alphas = sorted(report.decisions)
    if fmt == "csv":
        out = io.StringIO()
        header = ["test", "statistic", "p_value"] + [f"reject_at_{a:g}" for a in alphas]
        out.write(",".join(header) + "\n")
        for name, value in report.by_name().items():
            row = [name, repr(value), repr(report.p_values[name])]
            row += [str(int(report.decisions[a][name])) for a in alphas]
            out.write(",".join(row) + "\n")
        sys.stdout.write(out.getvalue())
        return
    print(f"Endogeneity tests (df = {report.df}, h_n = {report.h_n:.6g})")
    print(f"{'test':<6} {'statistic':>14} {'p-value':>10}  " + "  ".join(f"a={a:g}" for a in alphas))
    for name, value in report.by_name().items():
        marks = "  ".join(
            ("reject" if report.decisions[a][name] else "accept").center(max(6, len(f"a={a:g}")))
            for a in alphas
        )
        print(f"{name:<6} {value:>14.6f} {report.p_values[name]:>10.4g}  {marks}")


def _finite_or_null(gap: float) -> float | None:
    # Strict JSON has no NaN or Infinity: a non-finite gap is written as null.
    return gap if math.isfinite(gap) else None


def _identity_report_dict(report: endogeneity.IdentityReport) -> dict:
    return {
        "schema_version": 1,
        "gaps": {name: _finite_or_null(gap) for name, gap in report.gaps().items()},
        "max_gap": _finite_or_null(report.max_gap()),
        "ordering_ok": report.ordering_ok,
    }


def _print_identity_report(report: endogeneity.IdentityReport, fmt: str, tol: float) -> None:
    if fmt == "json":
        print(json.dumps(_identity_report_dict(report), indent=2, sort_keys=True, allow_nan=False))
        return
    if fmt == "csv":
        print("identity,gap")
        for name, gap in report.gaps().items():
            print(f"{name},{gap!r}")
        print(f"ordering_ok,{int(report.ordering_ok)}")
        return
    print(f"Identity verification (tolerance {tol:g})")
    for name, gap in report.gaps().items():
        status = "ok" if gap < tol else "FAIL"
        print(f"  {name:<22} {gap:12.3e}  {status}")
    print(f"  {'ordering':<22} {'strict/weak':>12}  {'ok' if report.ordering_ok else 'FAIL'}")


def _random_dataset(tokens: list[str]) -> data.Dataset:
    params = {"n": 200, "seed": 0, "d_y1": 1, "d_z1": 1, "d_z2": 2, "rho": 0.5, "c": 1.0}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigInvalid(f"--random expects key=value tokens, got {tok!r}")
        key, _, val = tok.partition("=")
        if key not in params:
            raise ConfigInvalid(f"unknown --random key {key!r} (allowed: {sorted(params)})")
        real = key in ("rho", "c")
        try:
            params[key] = float(val) if real else int(val)
        except ValueError:
            kind = "a number" if real else "an integer"
            raise ConfigInvalid(f"--random {key} expects {kind}, got {val!r}") from None
    cfg = simulation.DgpConfig(
        n=params["n"],
        d_y1=params["d_y1"],
        d_z1=params["d_z1"],
        d_z2=params["d_z2"],
        beta=(1.0,) * params["d_y1"],
        gamma=(1.0,) * params["d_z1"],
        pi2_strength=params["c"],
        rho=(params["rho"],) * params["d_y1"],
    )
    return simulation.generate_dataset(cfg, 0, params["seed"])


def _admissible(ds: data.Dataset) -> bool:
    """Validate ``ds``; when it fails, print the reasons to stderr."""
    report = data.validate(ds)
    if not report.all_ok:
        for msg in report.messages:
            print(f"endocheck: {msg}", file=sys.stderr)
    return report.all_ok


def cmd_test(args) -> int:
    ds = _load_dataset(args)
    if not _admissible(ds):
        return EXIT_VALIDATION
    report = endogeneity.run_all_tests(ds, alphas=args.alpha)
    _print_test_report(report, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.random is not None:
        ds = _random_dataset(args.random)
    else:
        if args.data is None:
            print("endocheck: verify needs a CSV path or --random", file=sys.stderr)
            return EXIT_VALIDATION
        ds = _load_dataset(args)
    if not _admissible(ds):
        return EXIT_VALIDATION
    report = endogeneity.verify_identities(ds, tol=args.tol)
    _print_identity_report(report, args.format, args.tol)
    return EXIT_OK if report.within(args.tol) else EXIT_VERIFY_FAILED


def _table_cell(value: float | None) -> str:
    """A rate or stderr of the ``simulate`` table from ``result_document``:
    ``-`` where the document holds null (no completed replication)."""
    return f"{'-' if value is None else format(value, '.4f'):>8}"


def cmd_simulate(args) -> int:
    dgp, sim, grid = simulation.load_config(args.config)
    if args.seed is not None:
        sim = replace(sim, seed=args.seed)
    if args.out:  # before the run, so that an unusable --out fails at once
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"endocheck: cannot write results to '{args.out}': {exc.strerror or exc}", file=sys.stderr)
            return EXIT_VALIDATION
    if grid is None:
        entries = [(dgp.rho, simulation.run_monte_carlo(dgp, sim))]
    else:
        entries = simulation.power_curve(dgp, grid, sim)
    document = simulation.result_document(dgp, sim, entries)
    if args.out:
        try:
            simulation.write_result_json(os.path.join(args.out, "simulation.json"), document)
            simulation.write_result_csv(os.path.join(args.out, "simulation.csv"), document)
        except OSError as exc:
            print(f"endocheck: cannot write results to '{args.out}': {exc.strerror or exc}", file=sys.stderr)
            return EXIT_VALIDATION
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True, allow_nan=False))
    else:
        print(f"{'test':<6} {'alpha':>6} {'rho':>12} {'rate':>8} {'stderr':>8}")
        rhos = [";".join(f"{r:g}" for r in point["rho"]) for point in document["points"]]
        for rho, point in zip(rhos, document["points"]):
            for row in point["rates"]:
                print(f"{row['test']:<6} {row['alpha']:>6g} {rho:>12} "
                      f"{_table_cell(row['rate'])} {_table_cell(row['stderr'])}")
        for rho, point in zip(rhos, document["points"]):
            if point["degenerate_count"] or point["ordering_violations"]:
                print(f"note: rho={rho}: {point['degenerate_count']} degenerate replications, "
                      f"{point['ordering_violations']} ordering violations")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose help is a report: ``print_help`` lets a failed write
    to stdout raise for ``main``, where argparse drops it (or, on a closed stdout,
    writes to stderr instead)."""

    def print_help(self, file=None):
        file = file or sys.stdout
        if file is not None:
            file.write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="endocheck",
        description="Endogeneity tests for linear instrumental-variable models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the four endogeneity tests on a CSV dataset")
    _add_dataset_args(p_test)
    p_test.add_argument("--alpha", type=_parse_alphas, default=[0.01, 0.05, 0.10],
                        help="comma-separated significance levels")
    p_test.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_test.set_defaults(func=cmd_test)

    p_verify = sub.add_parser("verify", help="verify the exact finite-sample identities")
    _add_dataset_args(p_verify, data_required=False)
    p_verify.add_argument("--tol", type=_parse_tolerance, default=1e-8, help="relative identity tolerance")
    p_verify.add_argument("--random", nargs="*", metavar="KEY=VALUE", default=None,
                          help="verify on a generated dataset (keys: n seed d_y1 d_z1 d_z2 rho c)")
    p_verify.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo size/power study from a JSON config")
    p_sim.add_argument("--config", required=True, help="path to the simulation config JSON")
    p_sim.add_argument("--out", default=None, help="directory for result JSON/CSV files")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--format", choices=("table", "json"), default="table")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _stdout_failed(reason: str) -> int:
    print(f"endocheck: cannot write the report to stdout: {reason}", file=sys.stderr)
    return EXIT_VALIDATION


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code:  # a usage error, reported on stderr
                raise
            args = None  # the help, written to stdout
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            return _stdout_failed("it is closed")
        code = args.func(args) if args else EXIT_OK
        sys.stdout.flush()
    except EndocheckError as exc:
        print(f"endocheck: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigInvalid):
            return EXIT_CONFIG
        if isinstance(exc, DegenerateVariance):
            return EXIT_DEGENERATE
        return EXIT_VALIDATION
    except OSError as exc:
        # The commands handle every other OSError where it arises (the CSV,
        # the config, --out), so this one is stdout's. Its unwritten bytes go
        # to devnull, so that the interpreter's last flush does not fail again
        # (the note on SIGPIPE in the documentation of the signal module).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _stdout_failed(exc.strerror or str(exc))
    return code


if __name__ == "__main__":
    sys.exit(main())
