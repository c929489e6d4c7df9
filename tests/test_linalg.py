import ast
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


F1 = str(Path(__file__).resolve().parent / "fixtures" / "f1.csv")
F1_ARGS = [F1, "--outcome", "y", "--endog", "x", "--exog", "none", "--add-intercept", "--iv", "z1,z2"]
F1_ROLES = {"y": "outcome", "x": "endogenous", "z1": "instrument", "z2": "instrument"}

# Each case runs in a fresh interpreter. The last two need p-values or draws.
SCIPY_CASES = {
    "package": "import endocheck, endocheck.cli",
    "verify_csv": f"from endocheck.cli import main; assert main({['verify', *F1_ARGS]!r}) == 0",
    "library": (
        "from endocheck import compute_statistics, load_csv, validate, verify_identities\n"
        f"ds = load_csv({F1!r}, {F1_ROLES!r}, add_intercept=True)\n"
        "assert validate(ds).all_ok\n"
        "compute_statistics(ds)\n"
        "assert verify_identities(ds).within(1e-8)"
    ),
    "test_csv": f"from endocheck.cli import main; assert main({['test', *F1_ARGS]!r}) == 0",
    "verify_random": "from endocheck.cli import main; assert main(['verify', '--random']) == 0",
}


@pytest.mark.parametrize("case", SCIPY_CASES)
def test_scipy_loads_only_where_needed(case):
    # scipy.special is most of the import time: only a p-value, a critical value or a
    # draw loads it, and no command loads scipy.linalg, scipy.stats or scipy.integrate.
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys\n{SCIPY_CASES[case]}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-B", "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = ast.literal_eval(done.stdout.splitlines()[-1])
    if case in ("test_csv", "verify_random"):
        subpackages = {m.split(".")[1] for m in loaded if "." in m}
        assert "special" in subpackages and not subpackages & {"linalg", "stats", "integrate"}
    else:
        assert loaded == []


def test_every_layer_the_perfbench_tracer_names_imports():
    # The tracer imports endocheck.<layer> for each of its LAYERS; a traced
    # benchmark run dies at the first that is missing.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer in tracer.LAYERS:
        importlib.import_module(f"endocheck.{layer}")
