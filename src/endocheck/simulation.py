"""Seeded data-generating process and Monte Carlo size/power harness.

Reproducibility contract: each replication derives its own substream by
mixing (seed, replication_index) through a splitmix64-style avalanche, so
results do not depend on replication order or scheduling. Normal variates are
produced by inverse-CDF transform of PCG64 uniforms (no ziggurat), which
pins the exact draw sequence for a given substream seed.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
from scipy.special import ndtri

from .data import Dataset
from .endogeneity import TEST_NAMES, chi2_quantile, compute_statistics
from .errors import ConfigInvalid, EndocheckError

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


def _standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    # 53-bit uniforms shifted off the endpoints, then the normal inverse CDF.
    u = (rng.integers(0, 1 << 53, size=shape).astype(float) + 0.5) * 2.0**-53
    return ndtri(u)


def _require_ints(cfg) -> None:
    """Reject bools and non-integers in the ``int`` fields of a config."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ConfigInvalid(f"'{f.name}' must be an integer, got {value!r}")


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
        _require_ints(self)
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
        _require_ints(self)
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


def generate_dataset(cfg: DgpConfig, replication_index: int, seed: int) -> Dataset:
    """Draw one dataset from the configured process.

    Draw order is fixed (z block, then v, then u) so identical
    (cfg, index, seed) triples reproduce byte-identical datasets.
    """
    rng = np.random.Generator(np.random.PCG64(_substream_seed(seed, replication_index)))
    z = _standard_normal(rng, (cfg.n, cfg.d_z1 + cfg.d_z2))
    if cfg.intercept:
        z[:, 0] = 1.0
    v = cfg.sigma_v * _standard_normal(rng, (cfg.n, cfg.d_y1))
    u = cfg.sigma_u * _standard_normal(rng, cfg.n)

    z1 = z[:, : cfg.d_z1]
    z2 = z[:, cfg.d_z1 :]
    pi2 = np.full((cfg.d_z2, cfg.d_y1), cfg.pi2_strength)
    y1 = z2 @ pi2 + v  # included-exogenous reduced-form coefficients are zero
    eps = v @ np.asarray(cfg.rho) + u
    y2 = y1 @ np.asarray(cfg.beta) + z1 @ np.asarray(cfg.gamma) + eps
    return Dataset(y2=y2, y1=y1, z1=z1, z2=z2)


def run_monte_carlo(dgp: DgpConfig, sim: SimConfig) -> SimResult:
    """Run the replication loop and tally rejections per (test, level).

    Replications that raise estimation errors are skipped and counted.
    Per-replication ordering violations of the four statistics are counted
    and expected to be zero.
    """
    crit = {alpha: chi2_quantile(dgp.d_y1, 1.0 - alpha) for alpha in sim.alphas}
    counts = {t: {a: 0 for a in sim.alphas} for t in sim.tests}
    degenerate = 0
    ordering_violations = 0
    for rep in range(sim.replications):
        ds = generate_dataset(dgp, rep, sim.seed)
        try:
            stats = compute_statistics(ds)
        except EndocheckError:
            degenerate += 1
            continue
        if not stats.ordered(1e-9 * (1.0 + stats.t_cf)):
            ordering_violations += 1
        values = stats.by_name()
        for t in sim.tests:
            for a in sim.alphas:
                if values[t] > crit[a]:
                    counts[t][a] += 1
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
    """Run the Monte Carlo at each endogeneity level in the grid, in order."""
    grid = []
    for rho in rho_grid:
        try:
            grid.append(tuple(float(r) for r in np.atleast_1d(rho)))
        except (TypeError, ValueError):
            raise ConfigInvalid(f"rho grid entry {rho!r} is not a number or a list of numbers") from None
    if not grid:
        raise ConfigInvalid("rho grid must be nonempty")
    out = []
    for rho in grid:
        out.append((rho, run_monte_carlo(replace(dgp_base, rho=rho), sim)))
    return out


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
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"malformed JSON in '{path}': {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigInvalid("config root must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigInvalid(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")
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


def _null_if_nan(x: float) -> float | None:
    # A run with no completed replication has undefined rates; strict JSON
    # has no NaN, so they are written as null.
    return None if math.isnan(x) else x


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
                        "rate": _null_if_nan(res.rejection_rate[t][a]),
                        "stderr": _null_if_nan(res.mc_stderr[t][a]),
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
        json.dump(document, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_result_csv(path, dgp: DgpConfig, sim: SimConfig,
                     entries: list[tuple[tuple[float, ...], SimResult]]) -> None:
    """Flat CSV: one row per (test, alpha, rho grid point)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["test", "alpha", "rho", "rate", "stderr", "R", "n", "seed"])
        for rho, res in entries:
            rho_str = ";".join(repr(r) for r in rho)
            for t in sim.tests:
                for a in sim.alphas:
                    writer.writerow(
                        [t, repr(a), rho_str, repr(res.rejection_rate[t][a]),
                         repr(res.mc_stderr[t][a]), sim.replications, dgp.n, sim.seed]
                    )
