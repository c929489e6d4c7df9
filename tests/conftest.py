import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from endocheck import Dataset, DgpConfig, generate_dataset, load_csv
from endocheck.linalg import solve_least_squares

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

F1_ROLES = {"y": "outcome", "x": "endogenous", "z1": "instrument", "z2": "instrument"}


@pytest.fixture(scope="session")
def f1_path():
    return os.path.join(FIXTURES, "f1.csv")


@pytest.fixture(scope="session")
def f1_dataset(f1_path) -> Dataset:
    return load_csv(f1_path, F1_ROLES, add_intercept=True)


@pytest.fixture(scope="session")
def f1_expected():
    with open(os.path.join(FIXTURES, "f1_expected.json")) as fh:
        return json.load(fh)


def random_admissible_dataset(rng: np.random.Generator, n=None, d_y1=None, d_z1=None, d_z2=None) -> Dataset:
    """Draw a random dataset from the DGP with randomized dimensions and dials."""
    d_y1 = d_y1 if d_y1 is not None else int(rng.integers(1, 4))
    d_z1 = d_z1 if d_z1 is not None else int(rng.integers(1, 3))
    d_z2 = d_z2 if d_z2 is not None else d_y1 + int(rng.integers(0, 4))
    n = n if n is not None else int(rng.integers(30, 501))
    cfg = DgpConfig(
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
    return generate_dataset(cfg, int(rng.integers(0, 2**31)), int(rng.integers(0, 2**31)))


# Reference helpers on the n-row data; the package itself works on ``Dataset.r``.

def project(a, y) -> np.ndarray:
    """The orthogonal projection of ``y`` onto the columns of ``a``, as ``A @ lstsq(A, y)``."""
    return a @ solve_least_squares(a, y)


def annihilate(a, y) -> np.ndarray:
    """``y`` minus its projection onto the columns of ``a``."""
    y = np.asarray(y, dtype=float)
    return y - project(a, y)


def design_matrices(ds: Dataset) -> SimpleNamespace:
    """X = [Y1 | Z1] and Z = [Z1 | Z2] stacked from the blocks of ``ds``."""
    return SimpleNamespace(x=np.hstack([ds.y1, ds.z1]), z=np.hstack([ds.z1, ds.z2]))
