"""Runs one workload in-process against the checkout's ``endocheck``.

Started by ``run.py`` with BLAS threads pinned to 1 and ``PYTHONPATH`` set to
the checkout's ``src``. Usage: ``python3 worker.py SPEC.json``. Reads the
inputs and settings named in the spec, runs the timed loop, checks every
output outside the timed region, and writes the result JSON the spec names.

With tracing on, untraced and traced operations alternate, so the tracing
overhead is measured on the same inputs in the same process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import inputs
import reference
from tracer import QR_FUNCTIONS, SERIALIZE_SPANS, Tracer

MAX_PROBLEMS = 20


class Tally:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def checked(check, *args) -> list[str]:
    """Run an output check; output too malformed to inspect is a failure."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """``endocheck.cli.main(argv)`` with stdout captured; returns (code, stdout, wall s).

    ``main`` is looked up at call time so an installed tracer sees the call.
    """
    import endocheck.cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = endocheck.cli.main(argv)
    except Exception:  # a traceback is a failed operation, not a dead benchmark
        traceback.print_exc()
        code = 1
    return code, buf.getvalue(), time.perf_counter() - t0


def timed_loop(seconds: float, tracer: Tracer | None, op) -> tuple[list, list]:
    """Call ``op(traced)`` until the next call would overrun ``seconds``.

    ``op`` returns ``(wall_s, items)``. With a tracer, each step is one
    untraced call followed by one traced call. At least one step runs.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        step0 = time.perf_counter()
        plain.append(op(False))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(op(True))
            finally:
                tracer.uninstall()
        step = time.perf_counter() - step0
        if time.perf_counter() - start + step > seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# Workloads. Each returns the untraced and traced (wall s, items) of its
# operations, one per-item latency in ms for each distinct input, and details
# for the record. An input timed several times contributes the mean of its
# repeats: the host's speed drifts in phases of tens of seconds, and a mean
# averages over them where a median picks one. mc_size and csv_test have one
# distinct input each, and a single item cannot be timed from outside, so
# their one latency is the wall of all CLI calls over their items.
# ---------------------------------------------------------------------------


def mean_item_ms(ops: list) -> float:
    return 1e3 * sum(wall for wall, _ in ops) / sum(n for _, n in ops)


def mc_size(spec: dict, tally: Tally, tracer: Tracer | None):
    out_dir = Path(spec["work"]) / "sim_out"
    files = (out_dir / "simulation.json", out_dir / "simulation.csv")
    replications = spec["replications"]
    expected = spec.get("committed_digest")
    first = {}
    verdicts = {}  # digests -> problems found in that output

    def simulate(config: str) -> tuple[int, float]:
        for f in files:
            f.unlink(missing_ok=True)
        code, _, wall = call_cli(["simulate", "--config", config, "--out", str(out_dir)])
        return code, wall

    code, _ = simulate(spec["warmup_config"])
    tally.record("warm-up simulate", [] if code == 0 else [f"exit {code}"])

    def op(traced: bool):
        if traced:
            tracer.op += 1
        code, wall = simulate(spec["config"])
        tally.record("simulate", [f"exit {code}"] if code else output_problems())
        return wall, replications

    def output_problems() -> list[str]:
        try:
            blobs = [f.read_bytes() for f in files]
        except OSError as exc:
            return [f"missing output: {exc}"]
        digest = {"json": hashlib.sha256(blobs[0]).hexdigest(), "csv": hashlib.sha256(blobs[1]).hexdigest()}
        key = (digest["json"], digest["csv"])
        if key not in verdicts:
            verdicts[key] = checked(checks.simulation, blobs[0], replications, inputs.ALPHAS)
        problems = list(verdicts[key])
        if not first:
            first.update(digest)
        if digest != first:
            problems.append("outputs differ from the first call with this seed")
        if expected is not None and digest != expected:
            problems.append(f"digests {digest} differ from the committed {expected}")
        return problems

    plain, traced = timed_loop(spec["seconds"], tracer, op)
    return plain, traced, [mean_item_ms(plain)], {"digests": first}


def csv_test(spec: dict, tally: Tally, tracer: Tracer | None):
    def run_test(csv: str, expected: dict) -> tuple[list[str], float]:
        code, out, wall = call_cli(["test", csv, *inputs.CSV_ARGS])
        return ([f"exit {code}"] if code else checked(checks.test_report, out, expected, 1)), wall

    tally.record("warm-up test", run_test(spec["warmup_csv"], spec["warmup_reference"])[0])

    def op(traced: bool):
        if traced:
            tracer.op += 1
        problems, wall = run_test(spec["csv"], spec["reference"])
        tally.record("test", problems)
        return wall, spec["rows"]

    plain, traced = timed_loop(spec["seconds"], tracer, op)
    return plain, traced, [mean_item_ms(plain)], {}


def verify_suite(spec: dict, tally: Tally, tracer: Tracer | None):
    import endocheck

    arrays = inputs.verify_datasets(spec["seed"], reference.admissible)
    datasets = [endocheck.Dataset(**a) for a in arrays]
    repeats: list[list[float]] = [[] for _ in datasets]

    def item(ds):
        return endocheck.data.validate(ds), endocheck.endogeneity.verify_identities(ds)

    def one_pass(traced: bool, subset=None):
        run = tracer.wrap("bench.verify_item", item) if traced else item
        clock = time.perf_counter
        walls, outcomes = [], []
        t_pass = clock()
        for ds in datasets[:subset]:
            if traced:
                tracer.op += 1
            t0 = clock()
            try:
                outcomes.append(run(ds))
            except endocheck.EndocheckError as exc:
                outcomes.append(exc)
            walls.append(clock() - t0)
        wall = clock() - t_pass
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                tally.record("verify", [f"{type(outcome).__name__}: {outcome}"])
            else:
                tally.record("verify", checked(checks.identity_report, *outcome))
        if not traced and subset is None:
            for times, w in zip(repeats, walls):
                times.append(w)
        return wall, len(walls)

    one_pass(False, subset=10)  # warm-up
    plain, traced = timed_loop(spec["seconds"], tracer, one_pass)
    latencies = [1e3 * sum(times) / len(times) for times in repeats]

    subset = list(zip(arrays, datasets))[:: inputs.VERIFY_REFERENCE_EVERY]
    for a, ds in subset:
        ref = reference.statistics(**a)
        try:
            stats = endocheck.compute_statistics(ds)
        except endocheck.EndocheckError as exc:
            tally.record("reference", [f"{type(exc).__name__}: {exc}"])
            continue
        tally.record("reference", reference.compare_statistics(dict(stats.by_name(), h_n=stats.h_n), ref))
    return plain, traced, latencies, {"datasets": len(datasets), "reference_subset": len(subset)}


WORKLOADS = {"mc_size": mc_size, "csv_test": csv_test, "verify_suite": verify_suite}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(plain: list, samples: list[float]) -> dict:
    # Items over the wall of all timed operations, not a median of per-
    # operation rates: the host's speed drifts in phases of tens of seconds,
    # and the total averages over them where a median picks one.
    return {
        "items_per_s": sum(n for _, n in plain) / sum(wall for wall, _ in plain),
        "item_p50_ms": float(np.percentile(samples, 50)),
        "item_p99_ms": float(np.percentile(samples, 99)),
    }


def per_layer(tracer: Tracer, plain: list, traced: list) -> dict:
    table = tracer.functions()
    items = sum(n for _, n in traced)
    ops = tracer.op + 1

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def ms_per_call(name, key="total_s"):
        row = table.get(name)
        return 1e3 * row[key] / row["calls"] if row else 0.0

    load = table.get("data.load_csv")
    qr_calls = sum(calls(name) for name in QR_FUNCTIONS)
    wall_plain = sum(w for w, _ in plain[: len(traced)])
    wall_traced = sum(w for w, _ in traced)
    return {
        "data.load_csv.s": load["total_s"] / load["calls"] if load else 0.0,
        "data.load_csv.rows_per_s":
            tracer.counts["data.load_csv.rows"] / load["total_s"] if load else 0.0,
        "data.validate.ms_per_call": ms_per_call("data.validate"),
        "data.design_matrices.calls_per_item": calls("data.design_matrices") / items,
        "simulation.generate_dataset.ms_per_call": ms_per_call("simulation.generate_dataset"),
        "endogeneity.compute_statistics.ms_per_call": ms_per_call("endogeneity.compute_statistics"),
        "endogeneity.compute_statistics.self_ms_per_call":
            ms_per_call("endogeneity.compute_statistics", "self_s"),
        "estimators.fit_ols.ms_per_call": ms_per_call("estimators.fit_ols"),
        "estimators.fit_tsls.ms_per_call": ms_per_call("estimators.fit_tsls"),
        "estimators.fit_cf.ms_per_call": ms_per_call("estimators.fit_cf"),
        "linalg.qr.calls_per_item": qr_calls / items,
        "linalg.qr.flops_per_item": tracer.counts["linalg.qr.flops"] / items,
        "linalg.qr.bytes_per_item": tracer.counts["linalg.qr.bytes"] / items,
        "linalg.spd_solve.calls_per_item": calls("linalg.spd_solve") / items,
        "linalg.solve_least_squares.ms_per_call": ms_per_call("linalg.solve_least_squares"),
        "endogeneity.verify_identities.self_ms_per_call":
            ms_per_call("endogeneity.verify_identities", "self_s"),
        "endogeneity.chi2_quantile.calls": calls("endogeneity.chi2_quantile") / ops,
        "endogeneity.chi2_quantile.ms_per_call": ms_per_call("endogeneity.chi2_quantile"),
        "endogeneity.chi2_cdf.calls": calls("endogeneity.chi2_cdf") / ops,
        "cli.serialize.ms":
            1e3 * sum(table.get(name, {}).get("total_s", 0.0) for name in SERIALIZE_SPANS) / ops,
        "trace.coverage": tracer.coverage(),
        "trace.overhead_frac": (wall_traced - wall_plain) / wall_plain,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    ``VmHWM`` starts afresh at exec; ``ru_maxrss`` would carry over the
    parent's peak from before the fork.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import endocheck

    src = Path(spec["src"]).resolve()
    if src not in Path(endocheck.__file__).resolve().parents:
        print(f"worker: imported endocheck from {endocheck.__file__}, not {src}", file=sys.stderr)
        return 2
    tally = Tally()
    tracer = Tracer() if spec["trace"] else None
    plain, traced, samples, details = WORKLOADS[spec["workload"]](spec, tally, tracer)
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "env": environment(),
        "details": dict(details, operations=len(plain), traced_operations=len(traced),
                        items=sum(n for _, n in plain), latency_inputs=len(samples),
                        op_walls_s=[w for w, _ in plain]),
        "end_to_end": dict(end_to_end(plain, samples), peak_rss_mb=peak_rss_mb()),
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, plain, traced)
        result["functions"] = tracer.functions()
        tracer.dump(spec["spans_path"])
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
