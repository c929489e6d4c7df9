"""endocheck benchmark: three seeded workloads with checked outputs.

Run from the root of a checkout (the directory holding ``src/endocheck``):

    python3 perfbench/run.py --workload mc_size --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each is there):

* ``mc_size``      ``endocheck simulate`` on the criterion-5 null design;
* ``csv_test``     ``endocheck test --format json`` on a 10^6-row CSV;
* ``verify_suite`` library ``validate`` + ``verify_identities`` on 1008
                   admissible datasets of the criterion-1 recipe.

The work happens in a child process (``worker.py``) with BLAS threads pinned
to 1, importing ``endocheck`` from ``./src``. With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run, named and with the units that
``BENCHMARK.json`` declares. Inputs are made from ``--seed``; every
output is checked, and ``failed`` counts the operations whose output was
wrong. Scratch files go to ``.perfbench_work/`` and are removed at exit,
except the result records under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402

WORKLOADS = ("mc_size", "csv_test", "verify_suite")
TIME_LIMIT_S = 170
SETUP_REPEATS = 4
PINNED = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(src: Path) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def measure_setup(root: Path, env: dict, deadline: float) -> list[float]:
    """Wall time of fresh interpreters importing the package and its CLI.

    One untimed import first writes the bytecode cache, as a user's first
    call would.
    """
    cmd = [sys.executable, "-c", "import endocheck, endocheck.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=env, check=True, timeout=max(1.0, deadline - time.monotonic()))
        if i:
            times.append(time.perf_counter() - t0)
    return times


def prepare(workload: str, seed: int, work: Path) -> tuple[dict, dict]:
    """Write the workload's inputs; return the spec fields and input sizes."""
    if workload == "mc_size":
        config, warmup = work / "config.json", work / "warmup_config.json"
        inputs.write_mc_config(config, seed)
        inputs.write_mc_config(warmup, seed, inputs.MC_WARMUP_REPLICATIONS)
        spec = {"config": str(config), "warmup_config": str(warmup),
                "replications": inputs.MC_REPLICATIONS}
        committed = json.loads((HERE / "digests.json").read_text())
        if committed["replications"] == inputs.MC_REPLICATIONS:
            spec["committed_digest"] = committed["seeds"].get(str(seed))
        sizes = {"replications_per_call": inputs.MC_REPLICATIONS, "n": 2000,
                 "committed_digest": spec.get("committed_digest") is not None}
        return spec, sizes
    if workload == "csv_test":
        spec, sizes = {"rows": inputs.CSV_ROWS}, {"csv_rows": inputs.CSV_ROWS}
        for key, rows in (("warmup_", inputs.CSV_WARMUP_ROWS), ("", inputs.CSV_ROWS)):
            arrays = inputs.csv_arrays(seed, rows)
            path = work / f"{key}data.csv"
            nbytes = inputs.write_csv(path, arrays)
            spec[f"{key}csv"] = str(path)
            stats = reference.statistics(**inputs.csv_design(arrays))
            spec[f"{key}reference"] = reference.expected_report(stats, 1, inputs.ALPHAS)
            del arrays
        sizes["csv_bytes"] = nbytes
        return spec, sizes
    return {}, {}


def run_worker(spec: dict, env: dict, root: Path, deadline: float) -> dict:
    spec_path = Path(spec["work"]) / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                            cwd=root, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the time limit") from None
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return json.loads(Path(spec["result_path"]).read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd()
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    src = root / "src"
    if not (src / "endocheck" / "__init__.py").is_file():
        print(f"perfbench: no src/endocheck under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = child_env(src)
    results = root / ".perfbench_work" / "results"
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup = [] if args.trace else measure_setup(root, env, deadline)
        spec, sizes = prepare(args.workload, args.seed, work)
        spec.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                    src=str(src), work=str(work), result_path=str(work / "result.json"),
                    spans_path=str(results / f"{args.workload}-spans.json"))
        result = run_worker(spec, env, root, deadline)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, declared = result["per_layer"], benchmark["per_layer"]
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setup))
        declared = benchmark["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted, failed = result["attempted"], result["failed"]
    env_record = dict(result["env"], seed=args.seed, workload=args.workload, trace=args.trace,
                      **sizes, **result["details"])
    record = {"env": env_record, "metrics": metrics, "setup_samples_s": setup,
              "attempted": attempted, "failed": failed, "problems": result["problems"],
              "functions": result.get("functions")}
    (results / f"{tag}-{os.getpid()}.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench env {json.dumps(env_record, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"perfbench {name} = {m['value']:.6g} {m['unit']}")
    print(f"perfbench failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for problem in result["problems"]:
        print(f"perfbench problem: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
