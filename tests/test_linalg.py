import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from endocheck.data import RANK_TOL, rank_checks

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


def test_full_rank_flags_collinear_design():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((12, 3))
    bad = np.column_stack([a, a[:, 0] + a[:, 1]])
    flags, cond = rank_checks((a, a, bad, bad))
    assert flags.tolist() == [True, True, False, False]
    assert np.isfinite(cond[0]) and cond[0] == cond[1]


def test_rank_tolerance_is_the_max_column_norm_bit_for_bit():
    # Half the stacks get a last column within about RANK_TOL of the others' span,
    # so the rule decides both ways.
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(200):
        k = int(rng.integers(1, 6))
        shape = (*(int(d) for d in rng.integers(1, 5, size=int(rng.integers(0, 2)))), int(rng.integers(k, 9)), k)
        c = rng.standard_normal(shape)
        if k > 1 and rng.random() < 0.5:
            near = c[..., :-1] @ rng.standard_normal(k - 1)
            c[..., -1] = near + 10.0 ** rng.uniform(-12, -8) * rng.standard_normal(shape[:-1])
        c *= 10.0 ** rng.uniform(-150, 150)
        transposed = np.swapaxes(np.ascontiguousarray(np.swapaxes(c, -1, -2)), -1, -2)
        for a in (c, np.asfortranarray(c), transposed):  # the summation order follows the layout
            sigma = np.linalg.svd(a, compute_uv=False)
            expected = sigma[..., -1] > RANK_TOL * np.linalg.norm(a, axis=-2).max(axis=-1, initial=0.0)
            flags, cond = rank_checks((a,) * 4)
            assert np.array_equal(flags, np.broadcast_to(expected, flags.shape))
            assert np.array_equal(cond[0], np.divide(sigma[..., 0], sigma[..., -1]))
            seen.update(expected.ravel().tolist())
    assert seen == {True, False}


def test_package_import_leaves_scipy_linalg_unloaded():
    # Only scipy.special is needed; scipy.linalg would add to every CLI call's start-up.
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-B", "-c", "import sys, endocheck, endocheck.cli; print('scipy.linalg' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_every_layer_the_perfbench_tracer_names_imports():
    # The tracer imports endocheck.<layer> for each of its LAYERS; a traced
    # benchmark run dies at the first that is missing.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer in tracer.LAYERS:
        importlib.import_module(f"endocheck.{layer}")
