"""Peak resident memory of ``endocheck test`` on a 10^6-row CSV: fail when any case passes 110 MB.

The cases are a clean file, the same file with one cell that only ``float()``
reads (``1_0``) in its last row, so the per-row parse takes over at the last
chunk, and the clean file through a pipe (``cat tall.csv | endocheck test
/dev/stdin``). Run from any directory, with ``endocheck`` on the PATH:

    python .github/peak_memory.py

The CSVs are written by a child process into a temporary directory, and each
``endocheck`` runs as a child of this process, which imports no numpy: a
child starts at its parent's resident size when forked, and ``os.wait4``
reads the peak of that one child.
"""

import os
import subprocess
import sys
import tempfile

BOUND_MB = 110
ARGS = ["--outcome", "y", "--endog", "x", "--exog", "none", "--iv", "z1,z2", "--add-intercept", "--format", "json"]
WRITE = """
import numpy as np
n = 10**6
rng = np.random.default_rng(0)
z, v = rng.standard_normal((n, 2)), rng.standard_normal(n)
x = z.sum(axis=1) + v
w = np.column_stack([x + 0.5 * v + rng.standard_normal(n), x, z])
for name, last_y in (("tall.csv", None), ("tall_last_row.csv", "1_0")):
    with open(name, "w") as fh:
        np.savetxt(fh, w[:-1] if last_y else w, fmt="%.17g", delimiter=",", header="y,x,z1,z2", comments="")
        if last_y:
            fh.write(",".join([last_y, *(f"{c:.17g}" for c in w[-1, 1:])]) + "\\n")
"""


def peak_mb(argv, stdin=subprocess.DEVNULL) -> float:
    """``ru_maxrss`` of ``argv`` run to its end, in MB; a non-zero exit fails the run."""
    proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"{' '.join(argv)}: exit {proc.returncode}")
    return usage.ru_maxrss / 1024  # kB on Linux


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, "-c", WRITE], cwd=tmp, check=True)
        peaks = {
            "a clean file": peak_mb(["endocheck", "test", os.path.join(tmp, "tall.csv"), *ARGS]),
            "'1_0' in the last row": peak_mb(["endocheck", "test", os.path.join(tmp, "tall_last_row.csv"), *ARGS]),
        }
        with subprocess.Popen(["cat", os.path.join(tmp, "tall.csv")], stdout=subprocess.PIPE) as cat:
            peaks["a pipe"] = peak_mb(["endocheck", "test", "/dev/stdin", *ARGS], stdin=cat.stdout)
            cat.stdout.close()
        if cat.returncode:
            sys.exit(f"cat: exit {cat.returncode}")
    for case, peak in peaks.items():
        print(f"endocheck test on 10^6 rows, {case}: ru_maxrss {peak:.1f} MB (bound {BOUND_MB} MB)")
    return int(max(peaks.values()) > BOUND_MB)


if __name__ == "__main__":
    sys.exit(main())
