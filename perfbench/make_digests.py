"""Regenerate ``digests.json``: sha256 of the mc_size outputs per seed.

Run from the root of a checkout: ``python3 perfbench/make_digests.py 0 63``.
The mc_size workload fails any call whose ``simulation.json`` or
``simulation.csv`` differs from the digest committed for its seed, which
holds the program to byte-identical simulation output across versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    first, last = (int(a) for a in sys.argv[1:3])
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]
    import inputs
    from endocheck import cli

    seeds = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        config = Path(tmp) / "config.json"
        for seed in range(first, last + 1):
            inputs.write_mc_config(config, seed)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["simulate", "--config", str(config), "--out", tmp])
            if code != 0:
                print(f"seed {seed}: simulate exited {code}", file=sys.stderr)
                return 1
            seeds[str(seed)] = {
                kind: hashlib.sha256((Path(tmp) / f"simulation.{kind}").read_bytes()).hexdigest()
                for kind in ("json", "csv")
            }
    doc = {"replications": inputs.MC_REPLICATIONS, "seeds": seeds}
    (HERE / "digests.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
