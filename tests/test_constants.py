"""The documented constants of the numerical contract, pinned by behaviour: each
test builds data that sits on either side of the literal it names, so a change
to the constant changes an exit code or a request, not only a symbol."""

import math

import numpy as np
import pytest

from endocheck import DgpConfig, compute_statistics, verify_identities
from endocheck.endogeneity import StatisticValues

from conftest import annihilate, generated_blocks
from test_cli import F1_ARGS_NO_Z1, run


def write_csv(path, y, x, z1, z2):
    """The columns ``y, x, z1, z2`` as a CSV for ``F1_ARGS_NO_Z1`` (d_z1 = 0)."""
    rows = ["y,x,z1,z2"] + [",".join(repr(float(c[i])) for c in (y, x, z1, z2)) for i in range(len(y))]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("command", ["test", "verify"])
@pytest.mark.parametrize(("multiple", "code"), [(0.5, 2), (2.0, 0)])
def test_rank_tol_is_1e_minus_10(capsys, tmp_path, command, multiple, code):
    # data.RANK_TOL = 1e-10: Z = [z1 | z2] with orthogonal columns of norms 1 and
    # multiple * 1e-10 has sigma_min / max column norm = multiple * 1e-10. The
    # statistics do not depend on z2's scale, so only the rank rule decides.
    rng = np.random.default_rng(22)
    n = 40
    q = np.linalg.qr(rng.standard_normal((n, 2)))[0]
    v = rng.standard_normal(n)
    x = q @ np.array([3.0, 2.0]) + v
    y = x + 0.5 * v + rng.standard_normal(n)
    path = write_csv(tmp_path / "z.csv", y, x, q[:, 0], multiple * 1e-10 * q[:, 1])
    got, _, err = run(capsys, [command, path, *F1_ARGS_NO_Z1])
    assert got == code, err


@pytest.mark.parametrize("theta", [0.0, 1e3], ids=["floor-1e-24", "floor-1e-24-mean-y2-sq"])
@pytest.mark.parametrize(("multiple", "code"), [(0.5, 3), (2.0, 0)])
def test_variance_floor_is_1e_minus_24_times_mean_y2_sq_plus_1(capsys, tmp_path, theta, multiple, code):
    # The variance floor 1e-24 * (mean(y2^2) + 1): y2 = theta x + e with e
    # orthogonal to [Z | x], so the OLS, 2SLS and CF residuals are all e, and
    # ||e||^2 / n = multiple * floor. theta = 0 pins the 1e-24 and the +1;
    # theta = 1e3 makes mean(y2^2) ~ 2e6 the larger term.
    rng = np.random.default_rng(24)
    n = 40
    z = rng.standard_normal((n, 2))
    x = z @ np.array([1.0, 0.5]) + rng.standard_normal(n)
    e = annihilate(np.column_stack([z, x]), rng.standard_normal(n))
    signal = theta * x
    # s = multiple * 1e-24 * (mean(signal^2) + s + 1), with signal orthogonal to e.
    k = multiple * 1e-24
    s = k * (np.mean(np.square(signal)) + 1.0) / (1.0 - k)
    y = signal + e * math.sqrt(n * s / (e @ e))
    path = write_csv(tmp_path / "y.csv", y, x, z[:, 0], z[:, 1])
    got, _, err = run(capsys, ["test", path, *F1_ARGS_NO_Z1])
    assert got == code, err
    if code:
        assert "ols residual variance" in err


def test_verify_strictness_scale_is_tol_times_1_plus_t_cf(monkeypatch):
    # verify asks for the strict chain only where min(t_cf t_h1 / n, t_h1 h_n)
    # exceeds tol * (1 + t_cf). Between tol and tol * (1 + t_cf) it must not;
    # a scale of tol alone would.
    ds = generated_blocks(DgpConfig(n=200, rho=(0.9,)), 0, 3).dataset()
    stats = compute_statistics(ds)
    first_steps = min(stats.t_cf * stats.t_h1 / ds.n, stats.t_h1 * stats.h_n)
    assert stats.t_cf > 3.0  # a window (tol, tol * (1 + t_cf)) at least 4 wide
    requested = []
    ordered = StatisticValues.ordered
    monkeypatch.setattr(StatisticValues, "ordered",
                        lambda self, strict=False: requested.append(strict) or ordered(self, strict))
    for tol, strict in ((first_steps / math.sqrt(1.0 + stats.t_cf), False),
                        (first_steps / (2.0 * (1.0 + stats.t_cf)), True)):
        requested.clear()
        assert verify_identities(ds, tol=tol).ordering_ok
        assert requested == [strict], tol
