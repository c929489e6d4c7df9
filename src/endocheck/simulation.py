"""Seeded data-generating process and Monte Carlo size/power harness.

Reproducibility contract: each replication derives its own substream by
mixing (seed, replication_index) through a splitmix64-style avalanche, so
results do not depend on replication order or scheduling, and are
independent of the worker count. Normal variates are produced by
inverse-CDF transform of PCG64 uniforms (no ziggurat), which pins the exact
draw sequence for a given substream seed.

The Monte Carlo runs in blocks of replications, submitted in order to one
worker thread per usable CPU and summed in order as futures; the blocks in
flight fill at most ``_BLOCK_ELEMENTS`` doubles per array between them.
Blocks do not change the draws: each replication still reads its own
substream in the same order, and ``generate_dataset`` is the one-replication
block, bit for bit: both check their data with ``data.check_w``.
Floating-point error state is per thread, so each function that needs one
sets it itself.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
from scipy.special import ndtri

from .data import Dataset, check_w, factor
from .endogeneity import TEST_NAMES, block_statistics, chi2_critical, ordering_slack
from .errors import ConfigInvalid

SCHEMA_VERSION = 1

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _substream_seed(seed: int, replication_index: int) -> int:
    mixed = _splitmix64(seed & _MASK64)
    return _splitmix64(mixed ^ _splitmix64((replication_index + 1) & _MASK64))


def _is_a(value, kind) -> bool:
    # JSON true/false are Python ints, so bools are excluded explicitly.
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    # JSON admits NaN and Infinity, and integers too large for a float.
    try:
        return _is_a(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        return False


def _require_types(cfg) -> None:
    """Reject values of the wrong type in the typed fields of a config: an
    ``int`` must be an integer, a ``float`` (or each entry of a float tuple)
    a finite number, and a ``bool`` true or false."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "int":
            ok, kind = _is_a(value, numbers.Integral), "an integer"
        elif f.type == "float":
            ok, kind = _is_finite_number(value), "a finite number"
        elif f.type == "tuple[float, ...]":
            ok, kind = all(_is_finite_number(x) for x in value), "a list of finite numbers"
        elif f.type == "bool":
            ok, kind = isinstance(value, bool), "true or false"
        else:
            continue
        if not ok:
            raise ConfigInvalid(f"'{f.name}' must be {kind}, got {value!r}")


@dataclass(frozen=True)
class DgpConfig:
    """Parameters of the Gaussian data-generating process.

    The structural error is ``eps = v @ rho + u`` so ``rho`` is the single
    endogeneity dial; ``pi2_strength`` fills every excluded-instrument
    coefficient (the instrument-strength dial, weak instruments reachable by
    small values). Included-exogenous reduced-form coefficients are zero.
    """

    n: int = 16
    d_y1: int = 1
    d_z1: int = 1
    d_z2: int = 2
    beta: tuple[float, ...] = (1.0,)
    gamma: tuple[float, ...] = (1.0,)
    pi2_strength: float = 1.0
    rho: tuple[float, ...] = (0.5,)
    sigma_u: float = 1.0
    sigma_v: float = 1.0
    intercept: bool = True

    def __post_init__(self):
        _require_types(self)
        for name in ("beta", "gamma", "rho"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        if self.n <= 2 * self.d_y1 + self.d_z1:
            raise ConfigInvalid(f"n={self.n} too small (need n > {2 * self.d_y1 + self.d_z1})")
        if self.d_z2 < self.d_y1:
            raise ConfigInvalid(f"need d_z2 >= d_y1, got {self.d_z2} < {self.d_y1}")
        if min(self.d_y1, self.d_z1) < 1:
            raise ConfigInvalid("d_y1 and d_z1 must be >= 1")
        if len(self.beta) != self.d_y1:
            raise ConfigInvalid(f"beta has length {len(self.beta)}, expected {self.d_y1}")
        if len(self.gamma) != self.d_z1:
            raise ConfigInvalid(f"gamma has length {len(self.gamma)}, expected {self.d_z1}")
        if len(self.rho) != self.d_y1:
            raise ConfigInvalid(f"rho has length {len(self.rho)}, expected {self.d_y1}")
        if self.sigma_u <= 0 or self.sigma_v <= 0:
            raise ConfigInvalid("sigma_u and sigma_v must be positive")


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters."""

    replications: int = 1000
    seed: int = 0
    alphas: tuple[float, ...] = (0.01, 0.05, 0.10)
    tests: tuple[str, ...] = TEST_NAMES

    def __post_init__(self):
        _require_types(self)
        if not isinstance(self.tests, (list, tuple)):
            raise ConfigInvalid(f"'tests' must be a list of test names, got {self.tests!r}")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "tests", tuple(self.tests))
        if self.replications < 1:
            raise ConfigInvalid("replications must be >= 1")
        if not self.alphas or any(not 0.0 < a < 1.0 for a in self.alphas):
            raise ConfigInvalid("significance levels must lie in (0, 1)")
        unknown = [t for t in self.tests if t not in TEST_NAMES]
        if unknown:
            raise ConfigInvalid(f"unknown test name(s): {unknown}")
        if not self.tests:
            raise ConfigInvalid("at least one test must be selected")
        # Each entry is one tally; a repeat would be counted twice.
        for name in ("alphas", "tests"):
            entries = getattr(self, name)
            if len(set(entries)) < len(entries):
                raise ConfigInvalid(f"'{name}' has repeated entries: {list(entries)}")


@dataclass
class SimResult:
    """Per-test, per-level rejection rates with binomial standard errors."""

    rejection_rate: dict[str, dict[float, float]]
    mc_stderr: dict[str, dict[float, float]]
    rejection_count: dict[str, dict[float, int]]
    replications: int
    completed: int
    degenerate_count: int
    ordering_violations: int


# Doubles per block array, summed over the blocks in flight: at n=2000 and
# p=5 one worker's block holds 13 replications, each of two workers' 6; once
# n*p passes it, one replication at a time.
_BLOCK_ELEMENTS = 1 << 17


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _layout(cfg: DgpConfig) -> tuple[int, int]:
    """The workers and the replications per block of a run: the workers'
    blocks together fill at most ``_BLOCK_ELEMENTS`` doubles per array, and
    a replication that fills it alone runs with one worker."""
    per_replication = cfg.n * (cfg.d_z1 + cfg.d_z2 + cfg.d_y1 + 1)
    workers = max(1, min(_usable_cpus(), _BLOCK_ELEMENTS // per_replication))
    return workers, max(1, _BLOCK_ELEMENTS // workers // per_replication)


def _draw_block(cfg: DgpConfig, seed: int, reps: range) -> np.ndarray:
    """The data ``W = [Z1 | Z2 | Y1 | y2]`` of replications ``reps``, stacked as (B, n, p).

    Each replication draws from its own substream in a fixed order (z block,
    then v, then u, each row by row), so its slice does not depend on the
    other replications in the block. Each slice is column-major, the layout
    the stacked QR copies into. The products run on the row-major draws:
    BLAS sums a product in an order that depends on the layout of its
    operands. Overflow is left to ``check_w``.
    """
    n, d_z1, k = cfg.n, cfg.d_z1, cfg.d_y1
    dz = d_z1 + cfg.d_z2
    try:
        normal = np.empty((len(reps), n * (dz + k + 1)))
        w = np.swapaxes(np.empty((len(reps), dz + k + 1, n)), 1, 2)
    except (ValueError, MemoryError):  # beyond the address space, or the memory
        raise ConfigInvalid(f"n={n} is too large: its data cannot be allocated") from None
    # 53-bit uniforms j * 2^-53 moved half a step off the endpoints: (2j + 1) * 2^-54
    # rounded once, as (j + 0.5) * 2^-53 is. Then the normal inverse CDF.
    for row, rep in zip(normal, reps):
        np.random.Generator(np.random.PCG64(_substream_seed(seed, rep))).random(out=row)
    normal += 2.0**-54
    ndtri(normal, out=normal)

    z = normal[:, :n * dz].reshape(-1, n, dz)
    if cfg.intercept:
        z[:, :, 0] = 1.0
    v = normal[:, n * dz:n * (dz + k)].reshape(-1, n, k)
    u = normal[:, n * (dz + k):]
    y1, y2 = w[:, :, dz:-1], w[:, :, -1]
    with np.errstate(over="ignore", invalid="ignore"):
        v *= cfg.sigma_v
        u *= cfg.sigma_u
        np.add(v @ np.asarray(cfg.rho), u, out=y2)  # eps
        y1_rows = z[:, :, d_z1:] @ np.full((cfg.d_z2, k), cfg.pi2_strength)  # included-exogenous coefficients are zero
        y1_rows += v
        y2 += y1_rows @ np.asarray(cfg.beta) + z[:, :, :d_z1] @ np.asarray(cfg.gamma)
    w[:, :, :dz] = z
    y1[...] = y1_rows
    return w


def generate_dataset(cfg: DgpConfig, replication_index: int, seed: int) -> Dataset:
    """Draw one dataset from the configured process: the one-replication block.

    Draw order is fixed (z block, then v, then u) so identical
    (cfg, index, seed) triples reproduce byte-identical datasets.
    """
    w = _draw_block(cfg, seed, range(replication_index, replication_index + 1))[0]
    return Dataset.from_w(w, cfg.d_z1, cfg.d_z2)


def _tally_block(dgp: DgpConfig, sim: SimConfig, crit: list[float], reps: range) -> np.ndarray:
    """The tallies of replications ``reps``: degenerate replications, ordering
    violations, then the rejections of each (test, level) of ``sim``, in order.

    ``check_w`` raises ``InvalidDataset`` for the first replication that
    fails, as ``generate_dataset`` does. The stacked R factors then go to
    ``block_statistics``; a replication it flags is degenerate.
    """
    w = _draw_block(dgp, sim.seed, reps)
    check_w(w, dgp.d_z1, dgp.d_z2)
    stats, flagged = block_statistics(factor(w), dgp.n, dgp.d_z1, dgp.d_z2)
    completed = ~flagged
    in_order = stats.ordered(ordering_slack(stats.t_cf))
    values = stats.by_name()
    return np.array([
        np.count_nonzero(flagged),
        np.count_nonzero(completed & ~in_order),
        *(np.count_nonzero(completed & (values[t] > c)) for t in sim.tests for c in crit),
    ])


def run_monte_carlo(dgp: DgpConfig, sim: SimConfig) -> SimResult:
    """Run the replications in blocks and tally rejections per (test, level).

    Replications that raise estimation errors are skipped and counted.
    Per-replication ordering violations of the four statistics are counted
    and expected to be zero.

    Each block is a task for a pool of threads, one per usable CPU
    (``_layout``), and its future joins a queue of at most 32 blocks a
    worker; this thread sums the tallies in block order. A block draws its
    W when a worker starts it, so no more than the workers' blocks are ever
    in flight. The tallies are integers, so their sum does not depend on
    which worker ran which block: the result does not depend on the worker
    count. The error raised is that of the first failing block in order, as
    one worker would raise it; once it is read, no block is queued, and the
    queued blocks no worker has started are cancelled.
    """
    crit = [chi2_critical(dgp.d_y1, alpha) for alpha in sim.alphas]
    workers, size = _layout(dgp)
    totals = np.zeros(2 + len(sim.tests) * len(sim.alphas), dtype=np.int64)
    pending = deque()
    with ThreadPoolExecutor(workers) as pool:
        try:
            for start in range(0, sim.replications, size):
                # A queued block holds no W until a worker draws it, so the
                # queue costs none of the memory budget. 32 blocks a worker
                # keep the workers busy while this thread waits on the
                # oldest; 2 a worker read 8-10% slower per replication at
                # n=2000 on 2 vCPUs.
                if len(pending) == 32 * workers:
                    totals += pending.popleft().result()
                pending.append(pool.submit(_tally_block, dgp, sim, crit,
                                           range(start, min(start + size, sim.replications))))
            while pending:
                totals += pending.popleft().result()
        finally:
            for future in pending:  # after an error or an interrupt: the blocks no worker has taken
                future.cancel()
    degenerate, ordering_violations = int(totals[0]), int(totals[1])
    rejections = iter(totals[2:].tolist())
    counts = {t: {a: next(rejections) for a in sim.alphas} for t in sim.tests}
    completed = sim.replications - degenerate
    rates = {
        t: {a: (counts[t][a] / completed if completed else math.nan) for a in sim.alphas}
        for t in sim.tests
    }
    stderr = {
        t: {
            a: (math.sqrt(rates[t][a] * (1.0 - rates[t][a]) / completed) if completed else math.nan)
            for a in sim.alphas
        }
        for t in sim.tests
    }
    return SimResult(
        rejection_rate=rates,
        mc_stderr=stderr,
        rejection_count=counts,
        replications=sim.replications,
        completed=completed,
        degenerate_count=degenerate,
        ordering_violations=ordering_violations,
    )


def power_curve(dgp_base: DgpConfig, rho_grid, sim: SimConfig) -> list[tuple[tuple[float, ...], SimResult]]:
    """Run the Monte Carlo at each endogeneity level in the grid, in order.

    Every grid point's config is built, and so checked, before any run; a
    scalar entry is a one-element rho vector.
    """
    dgps = [replace(dgp_base, rho=rho if isinstance(rho, (list, tuple)) else [rho]) for rho in rho_grid]
    if not dgps:
        raise ConfigInvalid("rho grid must be nonempty")
    return [(dgp.rho, run_monte_carlo(dgp, sim)) for dgp in dgps]


# ---------------------------------------------------------------------------
# Config and result serialization
# ---------------------------------------------------------------------------

def _build(cls, payload: dict, what: str):
    if not isinstance(payload, dict):
        raise ConfigInvalid(f"'{what}' section must be an object")
    known = {f for f in cls.__dataclass_fields__}
    unknown = set(payload) - known
    if unknown:
        raise ConfigInvalid(f"unknown key(s) in '{what}': {sorted(unknown)}")
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"invalid '{what}' section: {exc}") from exc


def load_config(path) -> tuple[DgpConfig, SimConfig, list | None]:
    """Read a simulation config JSON: dgp section, sim section, optional rho_grid."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config '{path}': {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, nesting or an int too long to read
        raise ConfigInvalid(f"malformed JSON in '{path}': {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigInvalid("config root must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if not _is_a(version, numbers.Integral) or version != SCHEMA_VERSION:
        raise ConfigInvalid(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    for key in ("dgp", "sim"):
        if key not in doc:
            raise ConfigInvalid(f"config missing required '{key}' section")
    dgp = _build(DgpConfig, doc["dgp"], "dgp")
    sim = _build(SimConfig, doc["sim"], "sim")
    grid = doc.get("rho_grid")
    if grid is not None and (not isinstance(grid, list) or not grid):
        raise ConfigInvalid("'rho_grid' must be a nonempty list of rho vectors")
    return dgp, sim, grid


def _config_dict(cfg) -> dict:
    """A config dataclass as JSON-ready fields, tuples as lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(cfg).items()}


def finite_or_null(x: float) -> float | None:
    # Strict JSON has no NaN or Infinity: such a value (the rates of a run with
    # no completed replication, say) is written as null, an empty cell in the CSV.
    return x if math.isfinite(x) else None


def json_text(document) -> str:
    """The strict JSON of every report and of ``simulation.json``: sorted, indented, one last newline."""
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def result_document(dgp: DgpConfig, sim: SimConfig, entries: list[tuple[tuple[float, ...], SimResult]]) -> dict:
    """JSON-ready document for one run or one power curve (list of grid entries)."""
    points = []
    for rho, res in entries:
        points.append(
            {
                "rho": list(rho),
                "rates": [
                    {
                        "test": t,
                        "alpha": a,
                        "rate": finite_or_null(res.rejection_rate[t][a]),
                        "stderr": finite_or_null(res.mc_stderr[t][a]),
                        "count": res.rejection_count[t][a],
                    }
                    for t in sim.tests
                    for a in sim.alphas
                ],
                "completed": res.completed,
                "degenerate_count": res.degenerate_count,
                "ordering_violations": res.ordering_violations,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "dgp": _config_dict(dgp),
        "sim": _config_dict(sim),
        "points": points,
    }


def write_result_json(path, document: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_text(document))


def write_result_csv(path, document: dict) -> None:
    """Flat CSV of a ``result_document``: one row per (test, alpha, rho grid point)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["test", "alpha", "rho", "rate", "stderr", "R", "n", "seed"])
        sim = document["sim"]
        for point in document["points"]:
            rho_str = ";".join(repr(r) for r in point["rho"])
            for row in point["rates"]:
                # csv writes a float as its repr and None (a nan rate) as an empty cell.
                writer.writerow([row["test"], repr(row["alpha"]), rho_str, row["rate"], row["stderr"],
                                 sim["replications"], document["dgp"]["n"], sim["seed"]])
