"""Command-line surface: ``test``, ``verify``, and ``simulate`` subcommands.

Each command returns its exit code and its report and writes nothing; ``main``
alone writes: the report to stdout in one write, an error to stderr.

Exit codes: 0 success; 2 input or validation failure, or a report (the
help text too) that cannot be written to stdout; 3 degenerate residual
variance; 4 identity verification failure; 5 invalid simulation config.
A stderr that cannot be written loses the message, not the exit code.
Stdout in json/csv modes carries only the report, never log lines.
"""

from __future__ import annotations

import argparse
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


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _test_report_text(report: endogeneity.TestReport, fmt: str) -> str:
    if fmt == "json":
        return simulation.json_text(_test_report_dict(report))
    alphas = sorted(report.decisions)
    if fmt == "csv":
        rows = [["test", "statistic", "p_value"] + [f"reject_at_{a!r}" for a in alphas]]
        for name, value in report.by_name().items():
            rows.append([name, repr(value), repr(report.p_values[name])]
                        + [str(int(report.decisions[a][name])) for a in alphas])
        return _lines(",".join(row) for row in rows)
    lines = [f"Endogeneity tests (df = {report.df}, h_n = {report.h_n:.6g})",
             f"{'test':<6} {'statistic':>14} {'p-value':>10}  " + "  ".join(f"a={a!r}" for a in alphas)]
    for name, value in report.by_name().items():
        marks = "  ".join(
            ("reject" if report.decisions[a][name] else "accept").center(max(6, len(f"a={a!r}")))
            for a in alphas
        )
        lines.append(f"{name:<6} {value:>14.6f} {report.p_values[name]:>10.4g}  {marks}")
    return _lines(lines)


def _identity_report_dict(report: endogeneity.IdentityReport) -> dict:
    return {
        "schema_version": 1,
        "gaps": {name: simulation.finite_or_null(gap) for name, gap in report.gaps().items()},
        "max_gap": simulation.finite_or_null(report.max_gap()),
        "ordering_ok": report.ordering_ok,
    }


def _identity_report_text(report: endogeneity.IdentityReport, fmt: str, tol: float) -> str:
    if fmt == "json":
        return simulation.json_text(_identity_report_dict(report))
    if fmt == "csv":
        return _lines(["identity,gap", *(f"{name},{gap!r}" for name, gap in report.gaps().items()),
                       f"ordering_ok,{int(report.ordering_ok)}"])
    lines = [f"Identity verification (tolerance {tol:g})"]
    for name, gap in report.gaps().items():
        lines.append(f"  {name:<22} {gap:12.3e}  {'ok' if gap < tol else 'FAIL'}")
    lines.append(f"  {'ordering':<22} {'strict/weak':>12}  {'ok' if report.ordering_ok else 'FAIL'}")
    return _lines(lines)


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


def _require_admissible(ds: data.Dataset) -> None:
    """Validate ``ds``; when it fails, raise its reasons, one per line."""
    report = data.validate(ds)
    if not report.all_ok:
        raise data.InvalidDataset("\n".join(report.messages))


def cmd_test(args) -> tuple[int, str]:
    ds = _load_dataset(args)
    _require_admissible(ds)
    report = endogeneity.run_all_tests(ds, alphas=args.alpha)
    return EXIT_OK, _test_report_text(report, args.format)


def cmd_verify(args) -> tuple[int, str]:
    if args.random is not None and args.data is not None:
        raise EndocheckError("verify takes a CSV path or --random, not both")
    if args.random is not None:
        ds = _random_dataset(args.random)
    elif args.data is None:
        raise EndocheckError("verify needs a CSV path or --random")
    else:
        ds = _load_dataset(args)
    _require_admissible(ds)
    report = endogeneity.verify_identities(ds, tol=args.tol)
    text = _identity_report_text(report, args.format, args.tol)
    return EXIT_OK if report.within(args.tol) else EXIT_VERIFY_FAILED, text


def _table_cell(value: float | None) -> str:
    """A rate or stderr of the ``simulate`` table from ``result_document``:
    ``-`` where the document holds null (no completed replication)."""
    return f"{'-' if value is None else format(value, '.4f'):>8}"


def cmd_simulate(args) -> tuple[int, str]:
    dgp, sim, grid = simulation.load_config(args.config)
    if args.seed is not None:
        sim = replace(sim, seed=args.seed)
    if args.out:  # before the run, so that an unusable --out fails at once
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise EndocheckError(f"cannot write results to '{args.out}': {exc.strerror or exc}") from None
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
            raise EndocheckError(f"cannot write results to '{args.out}': {exc.strerror or exc}") from None
    if args.format == "json":
        return EXIT_OK, simulation.json_text(document)
    lines = [f"{'test':<6} {'alpha':>6} {'rho':>12} {'rate':>8} {'stderr':>8}"]
    rhos = [";".join(f"{r:g}" for r in point["rho"]) for point in document["points"]]
    for rho, point in zip(rhos, document["points"]):
        for row in point["rates"]:
            lines.append(f"{row['test']:<6} {row['alpha']!r:>6} {rho:>12} "
                         f"{_table_cell(row['rate'])} {_table_cell(row['stderr'])}")
    for rho, point in zip(rhos, document["points"]):
        if point["degenerate_count"] or point["ordering_violations"]:
            lines.append(f"note: rho={rho}: {point['degenerate_count']} degenerate replications, "
                         f"{point['ordering_violations']} ordering violations")
    return EXIT_OK, _lines(lines)


class _Help(Exception):
    """A help text, raised for ``main`` to write as the report."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose help is a report: ``print_help`` hands its text to
    ``main`` to write, where argparse would drop a failed write."""

    def print_help(self, file=None):
        raise _Help(self.format_help())


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


def _to_devnull(stream) -> None:
    """Point a failed stream's fd at devnull, so that the interpreter's last flush does not
    fail again and exit 120 (the note on SIGPIPE in the documentation of the signal module)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _warn(message: str) -> None:
    """Write ``message`` to stderr, ``endocheck: `` before each line. A stderr
    that is closed or fails loses it; the exit code still tells the outcome."""
    if sys.stderr is None:  # fd 2 was closed at start
        return
    try:
        sys.stderr.write(_lines(f"endocheck: {line}" for line in message.split("\n")))
        sys.stderr.flush()
    except OSError:
        _to_devnull(sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _Help as exc:  # the help is the report of a command that does nothing else
        args = argparse.Namespace(func=lambda _, text=str(exc): (EXIT_OK, text))
    if sys.stdout is None:  # fd 1 was closed at start: fail before the command runs
        _warn("cannot write the report to stdout: it is closed")
        return EXIT_VALIDATION
    try:
        code, report = args.func(args)
    except EndocheckError as exc:
        _warn(str(exc))
        if isinstance(exc, ConfigInvalid):
            return EXIT_CONFIG
        if isinstance(exc, DegenerateVariance):
            return EXIT_DEGENERATE
        return EXIT_VALIDATION
    try:
        sys.stdout.write(report)
        sys.stdout.flush()
    except OSError as exc:
        _to_devnull(sys.stdout)
        _warn(f"cannot write the report to stdout: {exc.strerror or exc}")
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
