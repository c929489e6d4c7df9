import csv
import json
import os
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from scipy.special import chdtri, ndtri

from endocheck import (
    Dataset,
    DgpConfig,
    EndocheckError,
    SimConfig,
    compute_statistics,
    generate_dataset,
    load_csv,
)
from endocheck.data import DataError, EmptyFile, MissingColumn, NonNumericCell, RoleConflict, _read
from endocheck.simulation import _draw_block, _substream_seed

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

F1_ROLES = {"y": "outcome", "x": "endogenous", "z1": "instrument", "z2": "instrument"}


def scaled_csv(path, design_scale: float, outcome_scale: float):
    """A 30-row CSV ``y, x, w, z1, z2`` (one exogenous column, no intercept)
    with the design columns scaled by ``design_scale`` and y by ``outcome_scale``."""
    rng = np.random.default_rng(12)
    n = 30
    z = rng.standard_normal((n, 2))
    w, v = rng.standard_normal(n), rng.standard_normal(n)
    x = z @ np.array([1.0, 0.5]) + w + v
    y = x + w + 0.5 * v + rng.standard_normal(n)
    cols = [outcome_scale * y] + [design_scale * c for c in (x, w, z[:, 0], z[:, 1])]
    rows = ["y,x,w,z1,z2"] + [",".join(repr(float(c[i])) for c in cols) for i in range(n)]
    path.write_text("\n".join(rows) + "\n")
    return [str(path), "--outcome", "y", "--endog", "x", "--exog", "w", "--iv", "z1,z2"]


# The roles that the arguments of ``scaled_csv`` assign, for ``load_csv``.
SCALED_ROLES = {
    "y": "outcome", "x": "endogenous", "w": "included_exogenous", "z1": "instrument", "z2": "instrument",
}


@pytest.fixture(scope="session")
def f1_path():
    return os.path.join(FIXTURES, "f1.csv")


@pytest.fixture(scope="session")
def f1_dataset(f1_path) -> Dataset:
    return load_csv(f1_path, F1_ROLES, add_intercept=True)


class Blocks(NamedTuple):
    """The n-row blocks of a dataset, which a ``Dataset`` does not keep, for
    the reference computations of the tests."""

    y2: np.ndarray  # (n,)
    y1: np.ndarray  # (n, d_y1)
    z1: np.ndarray  # (n, d_z1)
    z2: np.ndarray  # (n, d_z2)

    @classmethod
    def of_w(cls, w: np.ndarray, d_z1: int, d_z2: int) -> "Blocks":
        dz = d_z1 + d_z2
        return cls(w[:, -1], w[:, dz:-1], w[:, :d_z1], w[:, d_z1:dz])

    @property
    def n(self) -> int:
        return self.y2.shape[0]

    def dataset(self) -> Dataset:
        return Dataset(*self)


def read_w(path, roles: dict[str, str], add_intercept: bool = False) -> tuple[np.ndarray, int, int]:
    """The W that ``load_csv`` folds into its Dataset, chunk by chunk: its row chunks
    concatenated (those of the per-row parse alone where the C reader's failed), d_z1 and d_z2."""
    return _read(path, roles, add_intercept, lambda chunks, d_z1, d_z2: (np.concatenate(list(chunks)), d_z1, d_z2))


def csv_blocks(path, roles: dict[str, str], add_intercept: bool = False) -> Blocks:
    """The blocks of the W that ``load_csv`` parses from ``path``."""
    return Blocks.of_w(*read_w(path, roles, add_intercept))


@pytest.fixture(scope="session")
def f1_blocks(f1_path) -> Blocks:
    return csv_blocks(f1_path, F1_ROLES, add_intercept=True)


def generated_blocks(cfg: DgpConfig, replication_index: int, seed: int) -> Blocks:
    """The blocks of the W that ``generate_dataset`` factors: its one-replication block."""
    return Blocks.of_w(_draw_block(cfg, seed, range(replication_index, replication_index + 1))[0], cfg.d_z1, cfg.d_z2)


@pytest.fixture(scope="session")
def f1_expected():
    with open(os.path.join(FIXTURES, "f1_expected.json")) as fh:
        return json.load(fh)


def random_dgp_config(rng: np.random.Generator, n=None, d_y1=None, d_z1=None, d_z2=None) -> DgpConfig:
    """A DGP config with randomized dimensions and dials (the criterion-1 recipe)."""
    d_y1 = d_y1 if d_y1 is not None else int(rng.integers(1, 4))
    d_z1 = d_z1 if d_z1 is not None else int(rng.integers(1, 3))
    d_z2 = d_z2 if d_z2 is not None else d_y1 + int(rng.integers(0, 4))
    n = n if n is not None else int(rng.integers(30, 501))
    return DgpConfig(
        n=n,
        d_y1=d_y1,
        d_z1=d_z1,
        d_z2=d_z2,
        beta=tuple(rng.uniform(-2, 2, d_y1)),
        gamma=tuple(rng.uniform(-2, 2, d_z1)),
        pi2_strength=float(rng.uniform(0.5, 1.5)),
        rho=tuple(rng.uniform(-1, 1, d_y1)),
        sigma_u=float(rng.uniform(0.5, 2.0)),
        sigma_v=float(rng.uniform(0.5, 2.0)),
    )


def random_admissible_dataset(rng: np.random.Generator, n=None, d_y1=None, d_z1=None, d_z2=None) -> Dataset:
    """Draw a random dataset from the DGP with randomized dimensions and dials."""
    cfg = random_dgp_config(rng, n, d_y1, d_z1, d_z2)
    return generate_dataset(cfg, int(rng.integers(0, 2**31)), int(rng.integers(0, 2**31)))


def random_admissible_blocks(rng: np.random.Generator, n=None, d_y1=None, d_z1=None, d_z2=None) -> Blocks:
    """The blocks of ``random_admissible_dataset`` drawn from the same ``rng`` state."""
    cfg = random_dgp_config(rng, n, d_y1, d_z1, d_z2)
    return generated_blocks(cfg, int(rng.integers(0, 2**31)), int(rng.integers(0, 2**31)))


# Strong first stages: configs and seeds where the OLS and 2SLS fits nearly
# coincide, so their coefficient gap is a difference of two fits.
STRONG_FIRST_STAGE = {
    # Many instruments and a near-exact fit: the OLS-2SLS gap is a tiny
    # difference of two fits.
    "strong_first_stage_near_exact_fit": (
        DgpConfig(n=22, d_z2=12, beta=(1.4609409072760302,), gamma=(1.3364302338994016,),
                  pi2_strength=1000.0, rho=(-0.1740429339000813,), sigma_u=1e-8,
                  sigma_v=0.238639328289179),
        3297685043,
    ),
    # K = sigma2 * R33'R33 > 0, but formed as a difference of grams it rounds
    # to non-positive.
    "strong_first_stage_k_rounds_to_zero": (
        DgpConfig(n=41, d_z2=10, beta=(-1.710518843226951,), gamma=(1.064941783085851,),
                  pi2_strength=1e5, rho=(0.910911162014417,), sigma_u=1e-4,
                  sigma_v=0.6342116697838713, intercept=False),
        2990666190,
    ),
}


# Reference versions of the Monte Carlo: one replication at a time.

def reference_blocks(cfg: DgpConfig, replication_index: int, seed: int) -> Blocks:
    """One dataset's blocks drawn as three separate normal blocks (z, then v, then u)."""
    rng = np.random.Generator(np.random.PCG64(_substream_seed(seed, replication_index)))

    def standard_normal(shape):
        return ndtri((rng.integers(0, 1 << 53, size=shape).astype(float) + 0.5) * 2.0**-53)

    z = standard_normal((cfg.n, cfg.d_z1 + cfg.d_z2))
    if cfg.intercept:
        z[:, 0] = 1.0
    v = cfg.sigma_v * standard_normal((cfg.n, cfg.d_y1))
    u = cfg.sigma_u * standard_normal(cfg.n)
    z1, z2 = z[:, :cfg.d_z1], z[:, cfg.d_z1:]
    y1 = z2 @ np.full((cfg.d_z2, cfg.d_y1), cfg.pi2_strength) + v
    eps = v @ np.asarray(cfg.rho) + u
    y2 = y1 @ np.asarray(cfg.beta) + z1 @ np.asarray(cfg.gamma) + eps
    return Blocks(y2, y1, z1, z2)


def reference_monte_carlo(dgp: DgpConfig, sim: SimConfig) -> dict:
    """The tallies of ``run_monte_carlo`` from ``generate_dataset`` + ``compute_statistics``
    on each replication in turn."""
    crit = {a: float(chdtri(dgp.d_y1, a)) for a in sim.alphas}
    counts = {t: {a: 0 for a in sim.alphas} for t in sim.tests}
    degenerate = ordering_violations = 0
    for rep in range(sim.replications):
        ds = generate_dataset(dgp, rep, sim.seed)
        try:
            stats = compute_statistics(ds)
        except EndocheckError:
            degenerate += 1
            continue
        if not stats.ordered():
            ordering_violations += 1
        values = stats.by_name()
        for t in sim.tests:
            for a in sim.alphas:
                if values[t] > crit[a]:
                    counts[t][a] += 1
    return {
        "rejection_count": counts,
        "completed": sim.replications - degenerate,
        "degenerate_count": degenerate,
        "ordering_violations": ordering_violations,
    }


# Reference helpers on the n-row data; the package itself works on ``Dataset.r``.

def project(a, y) -> np.ndarray:
    """The orthogonal projection of ``y`` onto the columns of ``a``, as ``A @ lstsq(A, y)``."""
    return a @ np.linalg.lstsq(a, y, rcond=None)[0]


def annihilate(a, y) -> np.ndarray:
    """``y`` minus its projection onto the columns of ``a``."""
    y = np.asarray(y, dtype=float)
    return y - project(a, y)


def design_matrices(b: Blocks) -> SimpleNamespace:
    """X = [Y1 | Z1] and Z = [Z1 | Z2] stacked from the blocks ``b``."""
    return SimpleNamespace(x=np.hstack([b.y1, b.z1]), z=np.hstack([b.z1, b.z2]))


def first_stage(ds: Dataset) -> np.ndarray:
    """The (d_z1 + d_z2, d_y1) first-stage coefficients of Y1 on Z = [Z1 | Z2],
    solved on R's rows: Z against P_Z X's Y1 columns (``data.designs``)."""
    _, z, pzx, *_ = ds.designs
    return np.linalg.lstsq(z, pzx[:, :ds.d_y1], rcond=None)[0]


def reference_read_w(path, roles: dict[str, str], add_intercept: bool = False) -> tuple[np.ndarray, int, int]:
    """The per-column reader that ``load_csv``'s parse step replaced, kept as its
    reference: one float list per column, stacked per role into
    W = [Z1 | Z2 | Y1 | y2], the intercept prepended; W, d_z1 and d_z2."""
    outcomes = [c for c, r in roles.items() if r == "outcome"]
    if len(outcomes) != 1:
        raise RoleConflict(f"expected exactly one outcome column, got {len(outcomes)}")

    def utf8_lines(fh):
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise DataError(f"'{path}' is not UTF-8 text ({exc.reason})") from None

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(utf8_lines(fh))
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"'{path}' is empty") from None
        header = [h.strip() for h in header]
        missing = [c for c in roles if c not in header]
        if missing:
            raise MissingColumn(f"column(s) {missing} not found in '{path}' (header: {header})")
        idx = {c: header.index(c) for c in roles}
        columns: dict[str, list[float]] = {c: [] for c in roles}
        n = 0
        for i, row in enumerate(reader):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            for c in roles:
                cell = row[idx[c]].strip() if idx[c] < len(row) else ""
                try:
                    columns[c].append(float(cell))
                except ValueError:
                    raise NonNumericCell(i, c) from None
            n += 1
    if n == 0:
        raise EmptyFile(f"'{path}' has a header but no data rows")

    def block(role: str) -> np.ndarray:
        cols = [columns[c] for c in roles if roles[c] == role]
        return np.column_stack(cols) if cols else np.empty((n, 0))

    z1 = block("included_exogenous")
    if add_intercept:
        z1 = np.hstack([np.ones((n, 1)), z1])
    z2 = block("instrument")
    w = np.hstack([z1, z2, block("endogenous"), np.asarray(columns[outcomes[0]])[:, None]])
    return w, z1.shape[1], z2.shape[1]
