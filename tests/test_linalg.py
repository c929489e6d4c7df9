import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from endocheck import NotPositiveDefinite
from endocheck.linalg import RANK_TOL, full_rank, rank_tolerance, spd_solve

from conftest import annihilate, project


class TestProjectAnnihilate:
    def test_orthonormal_columns(self):
        a = np.eye(3)[:, :2]
        y = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(project(a, y), [1.0, 2.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(annihilate(a, y), [0.0, 0.0, 3.0], atol=1e-14)

    def test_vector_in_span_is_fixed(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 4))
        y = a @ rng.standard_normal(4)
        np.testing.assert_allclose(project(a, y), y, rtol=1e-12)
        assert np.linalg.norm(annihilate(a, y)) <= 1e-12 * np.linalg.norm(y)

    def test_matches_dense_formula_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 3))
        y = rng.standard_normal((20, 2))
        dense = a @ np.linalg.inv(a.T @ a) @ a.T @ y
        np.testing.assert_allclose(project(a, y), dense, rtol=1e-10)

    def test_idempotence(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = rng.standard_normal((30, 5))
            y = rng.standard_normal((30, 3))
            p = project(a, y)
            np.testing.assert_allclose(project(a, p), p, rtol=1e-10, atol=1e-12)

    def test_orthogonality(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = rng.standard_normal((30, 5))
            y = rng.standard_normal((30, 3))
            resid = annihilate(a, y)
            bound = 1e-10 * np.linalg.norm(a) * np.linalg.norm(y)
            assert np.abs(a.T @ resid).max() <= bound

    def test_pythagoras(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.standard_normal((40, 6))
            y = rng.standard_normal(40)
            total = np.linalg.norm(y) ** 2
            parts = np.linalg.norm(project(a, y)) ** 2 + np.linalg.norm(annihilate(a, y)) ** 2
            assert parts == pytest.approx(total, rel=1e-10)


class TestSpdSolve:
    def test_scaled_identity(self):
        np.testing.assert_allclose(spd_solve(2.0 * np.eye(2), np.eye(2)), 0.5 * np.eye(2))

    def test_hand_solved_system(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(spd_solve(s, np.array([1.0, 1.0])), [1 / 3, 1 / 3], rtol=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))

    def test_asymmetric_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            spd_solve(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))

    def test_non_finite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            spd_solve(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.eye(2))


def test_full_rank_flags_collinear_design():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((12, 3))
    ok, sigma = full_rank(a)
    assert ok and np.isfinite(sigma[0] / sigma[-1])
    bad = np.column_stack([a, a[:, 0] + a[:, 1]])
    ok_bad, _ = full_rank(bad)
    assert not ok_bad


def test_rank_tolerance_is_the_max_column_norm_bit_for_bit():
    rng = np.random.default_rng(31)
    for _ in range(200):
        shape = tuple(int(d) for d in rng.integers(1, 9, size=int(rng.integers(2, 4))))
        c = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150)
        for a in (c, np.asfortranarray(c), np.swapaxes(c, -1, -2)):  # the summation order follows the layout
            expected = RANK_TOL * np.linalg.norm(a, axis=-2).max(axis=-1, initial=0.0)
            assert np.array_equal(rank_tolerance(a), expected)


def test_package_import_leaves_scipy_linalg_unloaded():
    # Only scipy.special is needed; scipy.linalg would add to every CLI call's start-up.
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-B", "-c", "import sys, endocheck, endocheck.cli; print('scipy.linalg' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
