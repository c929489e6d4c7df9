"""Extended-precision oracle for the statistics of any dataset.

Implements the raw definitional formulas (dense normal equations, explicit
projection matrices, the quadratic-form statistics) in 60-digit arithmetic
with mpmath, fully independent of the library's QR-based code paths.
``compute(y2, y1, z1, z2)`` takes the blocks as any arrays; running this
module regenerates tests/fixtures/f1_expected.json from the F1 fixture.
"""

from __future__ import annotations

import csv
import json
import os

import mpmath as mp
import numpy as np

mp.mp.dps = 60

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def read_f1():
    with open(os.path.join(FIXTURES, "f1.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    y2 = mp.matrix([mp.mpf(r["y"]) for r in rows])
    y1 = mp.matrix([mp.mpf(r["x"]) for r in rows])
    n = len(rows)
    z1 = mp.ones(n, 1)  # intercept-only exogenous block
    z2 = mp.matrix(n, 2)
    for i, r in enumerate(rows):
        z2[i, 0] = mp.mpf(r["z1"])
        z2[i, 1] = mp.mpf(r["z2"])
    return y2, y1, z1, z2


def as_matrix(a):
    """An mpmath matrix from a vector (as one column) or a matrix; entries that
    are strings or mpf values keep their full precision."""
    a = np.asarray(a.tolist() if isinstance(a, mp.matrix) else a, dtype=object)
    if a.ndim == 1:
        a = a[:, None]
    out = mp.matrix(*a.shape)
    for (i, j), v in np.ndenumerate(a):
        out[i, j] = mp.mpf(v)
    return out


def hcat(*mats):
    n = mats[0].rows
    cols = sum(m.cols for m in mats)
    out = mp.matrix(n, cols)
    j0 = 0
    for m in mats:
        for i in range(n):
            for j in range(m.cols):
                out[i, j0 + j] = m[i, j]
        j0 += m.cols
    return out


def inv(a):
    return a ** -1


def proj(a):
    return a * inv(a.T * a) * a.T


def annih(a):
    n = a.rows
    return mp.eye(n) - proj(a)


def quad(gap, w):
    return (gap.T * inv(w) * gap)[0, 0]


def compute(y2, y1, z1, z2):
    y2, y1, z1, z2 = (as_matrix(a) for a in (y2, y1, z1, z2))
    n = y1.rows
    df = y1.cols
    x = hcat(y1, z1)
    z = hcat(z1, z2)

    theta_ols = inv(x.T * x) * (x.T * y2)
    r_ols = y2 - x * theta_ols
    sigma2_ols = (r_ols.T * r_ols)[0, 0] / n

    pz = proj(z)
    theta_tsls = inv(x.T * pz * x) * (x.T * pz * y2)
    r_tsls = y2 - x * theta_tsls
    sigma2_tsls = (r_tsls.T * r_tsls)[0, 0] / n

    pi_hat = inv(z.T * z) * (z.T * y1)
    v_hat = annih(z) * y1

    xv = hcat(x, v_hat)
    coef = inv(xv.T * xv) * (xv.T * y2)
    k = x.cols
    theta_cf = coef[:k, :]
    rho_cf = coef[k:, :]
    u_hat = y2 - xv * coef
    sigma2_u = (u_hat.T * u_hat)[0, 0] / n

    mz1 = annih(z1)
    gram_ols = y1.T * mz1 * y1
    y1_hat = pz * y1
    gram_tsls = y1_hat.T * mz1 * y1_hat
    gap = theta_ols[:df, :] - theta_tsls[:df, :]

    def hausman(s1, s2):
        w = s1 * inv(gram_tsls) - s2 * inv(gram_ols)
        return quad(gap, w)

    t_h1 = hausman(sigma2_ols, sigma2_ols)
    t_h2 = hausman(sigma2_tsls, sigma2_tsls)
    t_h3 = hausman(sigma2_tsls, sigma2_ols)

    mx = annih(x)
    asv = sigma2_u * inv(v_hat.T * mx * v_hat)
    t_cf = (rho_cf.T * inv(asv) * rho_cf)[0, 0]

    h_n = (gap.T * gram_ols * gap)[0, 0] / (n * sigma2_tsls)

    stats = {"t_h1": t_h1, "t_h2": t_h2, "t_h3": t_h3, "t_cf": t_cf}
    p_values = {
        name: 1 - mp.gammainc(mp.mpf(df) / 2, 0, t / 2, regularized=True)
        for name, t in stats.items()
    }

    return {
        "n": n,
        "df": df,
        "theta_ols": [float(v) for v in theta_ols],
        "theta_tsls": [float(v) for v in theta_tsls],
        "theta_cf": [float(v) for v in theta_cf],
        "rho_cf": [float(v) for v in rho_cf],
        "pi_hat": [float(v) for v in pi_hat],
        "sigma2_ols": float(sigma2_ols),
        "sigma2_tsls": float(sigma2_tsls),
        "sigma2_u": float(sigma2_u),
        "beta_gap": [float(v) for v in gap],
        "t_h1": float(t_h1),
        "t_h2": float(t_h2),
        "t_h3": float(t_h3),
        "t_cf": float(t_cf),
        "h_n": float(h_n),
        "p_values": {name: float(p) for name, p in p_values.items()},
    }


def main():
    expected = compute(*read_f1())
    out = os.path.join(FIXTURES, "f1_expected.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
