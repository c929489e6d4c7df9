"""Seeded input generators for the three workloads.

Every input is a pure function of the workload seed, drawn with numpy's own
generator rather than the package's simulator, so a change to
``endocheck.simulation`` cannot change what the ``csv_test`` and
``verify_suite`` workloads feed the program.
"""

from __future__ import annotations

import json

import numpy as np

# mc_size: the criterion-5 design (size under the null).
MC_REPLICATIONS = 100
MC_WARMUP_REPLICATIONS = 20
ALPHAS = (0.01, 0.05, 0.10)

# csv_test: one tall dataset read through the CLI.
CSV_ROWS = 1_000_000
CSV_WARMUP_ROWS = 2_000
CSV_COLUMNS = ("y", "x", "z1", "z2")
CSV_ARGS = ("--format", "json", "--outcome", "y", "--endog", "x", "--exog", "none",
            "--add-intercept", "--iv", "z1,z2")
# A small endogeneity dial: at n = 10^6 it puts t_cf near a noncentral
# chi-square(1) with noncentrality ~6, so p-values and the decisions at
# 1%/5%/10% are informative instead of all being 0 / reject.
CSV_RHO = 0.003

# verify_suite: the criterion-1 recipe on a stratified grid of shapes, so the
# mix of problem sizes (and with it the latency distribution) is the same for
# every seed; the seed changes only the values and the DGP dials.
VERIFY_D_Y1 = (1, 2, 3)
VERIFY_D_Z1 = (1, 2)
VERIFY_EXTRA_IV = (0, 1, 2, 3)  # d_z2 = d_y1 + extra
VERIFY_N_STRATA = 42  # 24 shapes x 42 = 1008 datasets: >= 10 beyond the p99
VERIFY_N_RANGE = (30, 500)
VERIFY_REFERENCE_EVERY = 4  # the fixed subset checked against the reference


def mc_config(seed: int, replications: int = MC_REPLICATIONS) -> dict:
    """Simulation config for ``endocheck simulate`` (criterion-5 design)."""
    return {
        "schema_version": 1,
        "dgp": {"n": 2000, "d_y1": 1, "d_z1": 1, "d_z2": 2, "beta": [1.0], "gamma": [1.0],
                "pi2_strength": 1.0, "rho": [0.0], "sigma_u": 1.0, "sigma_v": 1.0,
                "intercept": True},
        "sim": {"replications": replications, "seed": seed, "alphas": list(ALPHAS),
                "tests": ["t_h1", "t_h2", "t_h3", "t_cf"]},
    }


def write_mc_config(path, seed: int, replications: int = MC_REPLICATIONS) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mc_config(seed, replications), fh)


def csv_arrays(seed: int, rows: int) -> dict[str, np.ndarray]:
    """One structural dataset: y = x + 1 + rho*v + u, x = z1 + z2 + v.

    The intercept is not a column: the CLI adds it with ``--add-intercept``,
    and a ones column in the file would make the design rank deficient.
    """
    rng = np.random.default_rng([seed, 0xC5F])
    z = rng.standard_normal((rows, 2))
    v = rng.standard_normal(rows)
    u = rng.standard_normal(rows)
    x = z[:, 0] + z[:, 1] + v
    y = x + 1.0 + CSV_RHO * v + u
    return {"y": y, "x": x, "z1": z[:, 0], "z2": z[:, 1]}


def write_csv(path, arrays: dict[str, np.ndarray]) -> int:
    """Write the columns with Python's shortest round-trip float repr.

    ``repr(np.float64)`` reads ``np.float64(...)`` under numpy 2, which the
    CSV reader rejects, so values go through ``tolist()`` first. Returns
    the file size in bytes.
    """
    flat = np.column_stack([arrays[c] for c in CSV_COLUMNS]).ravel().tolist()
    cells = iter(map(repr, flat))
    body = "\n".join(map(",".join, zip(*[cells] * len(CSV_COLUMNS))))
    text = ",".join(CSV_COLUMNS) + "\n" + body + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return len(text)


def csv_design(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The blocks the CLI builds from the file: intercept-only Z1."""
    n = arrays["y"].shape[0]
    return {
        "y2": arrays["y"],
        "y1": arrays["x"][:, None],
        "z1": np.ones((n, 1)),
        "z2": np.column_stack([arrays["z1"], arrays["z2"]]),
    }


def _verify_dataset(rng: np.random.Generator, n: int, d_y1: int, d_z1: int, d_z2: int):
    beta = rng.uniform(-2, 2, d_y1)
    gamma = rng.uniform(-2, 2, d_z1)
    pi2 = np.full((d_z2, d_y1), rng.uniform(0.5, 1.5))
    rho = rng.uniform(-1, 1, d_y1)
    sigma_u, sigma_v = rng.uniform(0.5, 2.0, 2)
    z = rng.standard_normal((n, d_z1 + d_z2))
    z[:, 0] = 1.0
    v = sigma_v * rng.standard_normal((n, d_y1))
    u = sigma_u * rng.standard_normal(n)
    z1, z2 = z[:, :d_z1], z[:, d_z1:]
    y1 = z2 @ pi2 + v
    y2 = y1 @ beta + z1 @ gamma + v @ rho + u
    return {"y2": y2, "y1": y1, "z1": z1, "z2": z2}


def verify_datasets(seed: int, admissible) -> list[dict[str, np.ndarray]]:
    """Admissible datasets for the identity suite, in a seeded order.

    ``admissible`` is the reference's independent check; a draw it rejects
    is redrawn, so every dataset returned must pass the library too.
    """
    rng = np.random.default_rng([seed, 0x1D5])
    lo, hi = VERIFY_N_RANGE
    edges = np.linspace(lo, hi + 1, VERIFY_N_STRATA + 1).astype(int)
    out = []
    for d_y1 in VERIFY_D_Y1:
        for d_z1 in VERIFY_D_Z1:
            for extra in VERIFY_EXTRA_IV:
                for a, b in zip(edges[:-1], edges[1:]):
                    while True:
                        ds = _verify_dataset(rng, int(rng.integers(a, b)), d_y1, d_z1, d_y1 + extra)
                        if admissible(ds):
                            break
                    out.append(ds)
    order = rng.permutation(len(out))
    return [out[i] for i in order]
