"""Plain-numpy reference for the four endogeneity statistics and h_n.

Written from the definitions with ``np.linalg.lstsq`` and dense solves of
the small gram matrices, sharing no code with ``endocheck``. The benchmark
compares the program's output against it, untimed.
"""

from __future__ import annotations

import numpy as np

STAT_NAMES = ("t_h1", "t_h2", "t_h3", "t_cf")
STAT_RTOL = 1e-8
# The statistics and identity gaps are fixed by the data only to about
# cond * eps relative, cond being the worst condition number among the
# matrices they factor or invert: two correct implementations differ by
# ~1e-5 at cond ~ 1e10 (near-unidentified 2SLS). Up to COND_MAX the
# observed gaps stay below ~1e-10, 100x inside STAT_RTOL and the 1e-7
# identity bound.
COND_MAX = 1e6


def _fit(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(a, b, rcond=None)[0]


def _resid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return b - a @ _fit(a, b)


def _grams(y1, z1, z2) -> tuple[np.ndarray, np.ndarray]:
    """G_ols = Y1' M_Z1 Y1 and G_tsls = Y1_hat' M_Z1 Y1_hat, Y1_hat = P_Z Y1."""
    z = np.hstack([z1, z2])
    m1_y1 = _resid(z1, y1)
    m1_y1_hat = _resid(z1, z @ _fit(z, y1))
    return m1_y1.T @ m1_y1, m1_y1_hat.T @ m1_y1_hat


def statistics(y2, y1, z1, z2) -> dict[str, float]:
    """t_h1, t_h2, t_h3, t_cf and h_n; all variances use divisor n."""
    y2 = np.asarray(y2, dtype=float)
    n = y2.shape[0]
    d_y1 = y1.shape[1]
    x = np.hstack([y1, z1])
    z = np.hstack([z1, z2])

    theta_ols = _fit(x, y2)
    s2_ols = float(np.sum((y2 - x @ theta_ols) ** 2)) / n
    x_hat = z @ _fit(z, x)
    theta_tsls = _fit(x_hat, y2)
    s2_tsls = float(np.sum((y2 - x @ theta_tsls) ** 2)) / n
    v_hat = _resid(z, y1)
    xv = np.hstack([x, v_hat])
    coef_cf = _fit(xv, y2)
    s2_u = float(np.sum((y2 - xv @ coef_cf) ** 2)) / n
    rho = coef_cf[x.shape[1]:]

    g_ols, g_tsls = _grams(y1, z1, z2)
    gap = theta_ols[:d_y1] - theta_tsls[:d_y1]

    def hausman(s1: float, s2: float) -> float:
        w = s1 * np.linalg.inv(g_tsls) - s2 * np.linalg.inv(g_ols)
        return float(gap @ np.linalg.solve(w, gap))

    mx_v = _resid(x, v_hat)
    return {
        "t_h1": hausman(s2_ols, s2_ols),
        "t_h2": hausman(s2_tsls, s2_tsls),
        "t_h3": hausman(s2_tsls, s2_ols),
        "t_cf": float(rho @ (mx_v.T @ mx_v) @ rho) / s2_u,
        "h_n": float(gap @ g_ols @ gap) / (n * s2_tsls),
    }


def expected_report(stats: dict[str, float], df: int, alphas) -> dict:
    """Reference statistics plus scipy p-values and decisions at each level.

    Called by the parent process only: importing ``scipy.stats`` in the
    worker would add its memory to the measured peak RSS.
    """
    from scipy.stats import chi2

    return dict(
        stats,
        p_values={name: float(chi2.sf(stats[name], df)) for name in STAT_NAMES},
        decisions={repr(float(a)): {name: stats[name] > float(chi2.ppf(1 - a, df)) for name in STAT_NAMES}
                   for a in alphas},
    )


def admissible(ds: dict[str, np.ndarray]) -> bool:
    """Every matrix the four statistics factor or invert has condition
    number at most COND_MAX, and every residual variance is clearly positive.

    The matrices: X, Z, P_Z X, [X | V_hat], the two grams and the Hausman
    weight shape inv(G_tsls) - inv(G_ols).
    """
    x = np.hstack([ds["y1"], ds["z1"]])
    z = np.hstack([ds["z1"], ds["z2"]])
    v_hat = _resid(z, ds["y1"])
    designs = (x, z, z @ _fit(z, x), np.hstack([x, v_hat]))
    g_ols, g_tsls = _grams(ds["y1"], ds["z1"], ds["z2"])
    if any(np.linalg.cond(a) > COND_MAX for a in (*designs, g_ols, g_tsls)):
        return False
    if np.linalg.cond(np.linalg.inv(g_tsls) - np.linalg.inv(g_ols)) > COND_MAX:
        return False
    y2 = ds["y2"]
    floor = 1e-6 * float(np.mean(y2 ** 2))
    return all(float(np.mean(_resid(a, y2) ** 2)) > floor for a in (x, designs[2], designs[3]))


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


def compare_statistics(got: dict[str, float], ref: dict[str, float]) -> list[str]:
    """Names (with errors) of statistics that miss the reference by more than STAT_RTOL."""
    bad = []
    for name in STAT_NAMES + ("h_n",):
        err = rel_err(float(got[name]), ref[name])
        if not err <= STAT_RTOL:
            bad.append(f"{name} rel err {err:.2e}")
    return bad
