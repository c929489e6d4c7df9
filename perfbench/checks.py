"""Output checks. Each returns a list of problems; an empty list is a pass."""

from __future__ import annotations

import json
import math

import reference

# Width of the acceptance band for a simulated rejection rate, in Monte Carlo
# standard errors at the nominal level, plus one count of slack.
RATE_BAND_SE = 5.0
P_VALUE_ATOL = 1e-10
GAP_MAX = 1e-7


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse JSON, refusing bare NaN / Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def simulation(json_bytes: bytes, replications: int, alphas) -> list[str]:
    """``simulation.json`` of one null-design run."""
    try:
        doc = strict_json(json_bytes)
    except ValueError as exc:
        return [f"simulation.json is not strict JSON: {exc}"]
    problems = []
    if len(doc["points"]) != 1:
        return [f"expected one grid point, got {len(doc['points'])}"]
    point = doc["points"][0]
    for key in ("degenerate_count", "ordering_violations"):
        if point[key] != 0:
            problems.append(f"{key} = {point[key]}")
    if point["completed"] != replications:
        problems.append(f"completed {point['completed']} of {replications}")
    counts = {(r["test"], r["alpha"]): r["count"] for r in point["rates"]}
    for a in alphas:
        chain = [counts[(t, a)] for t in ("t_cf", "t_h1", "t_h2", "t_h3")]
        if chain != sorted(chain, reverse=True):
            problems.append(f"rejection counts at alpha={a} not ordered t_cf>=t_h1>=t_h2>=t_h3: {chain}")
    for r in point["rates"]:
        a, completed = r["alpha"], point["completed"]
        band = RATE_BAND_SE * math.sqrt(a * (1 - a) / completed) + 1 / completed
        if not abs(r["rate"] - a) <= band:
            problems.append(f"{r['test']} rate {r['rate']} at alpha={a} outside +-{band:.4f}")
    return problems


def test_report(stdout: str, expected: dict, df: int) -> list[str]:
    """JSON report of ``endocheck test`` against ``reference.expected_report``."""
    try:
        doc = strict_json(stdout)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    if doc["df"] != df:
        return [f"df {doc['df']} != {df}"]
    problems = reference.compare_statistics(dict(doc["statistics"], h_n=doc["h_n"]), expected)
    for name, p_ref in expected["p_values"].items():
        if not abs(doc["p_values"][name] - p_ref) <= P_VALUE_ATOL:
            problems.append(f"p-value {name} {doc['p_values'][name]!r} vs chi2.sf {p_ref!r}")
    for level, decided in expected["decisions"].items():
        if doc["decisions"].get(level) != decided:
            problems.append(f"decisions at alpha={level}: {doc['decisions'].get(level)} "
                            f"vs chi2.ppf comparison {decided}")
    return problems


def identity_report(validation, ident) -> list[str]:
    """``validate`` plus ``verify_identities`` on an admissible dataset."""
    problems = []
    if not validation.all_ok:
        problems.append(f"validate rejected an admissible dataset: {validation.messages}")
    if not ident.max_gap() < GAP_MAX:
        problems.append(f"identity gap {ident.max_gap():.3e} >= {GAP_MAX}")
    if not ident.ordering_ok:
        problems.append("statistic ordering violated")
    return problems
