"""Stdout is part of the exit contract: a report that cannot be written exits 2.

Each case, a command's report or a help text, runs ``python -m endocheck.cli``
in a subprocess on a stdout that fails: a pipe closed after it took at most
k bytes, ``/dev/full`` and a closed fd. The pipe is filled to k bytes short of its capacity before the
program starts, so a write that does not fit blocks whatever the buffering,
and the read end is closed while the program waits in it: every run meets
the closed pipe, and none can finish first.
"""

import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from test_cli import F1_ARGS

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="pipe capacity and /dev/full are Linux's")

ROOT = Path(__file__).resolve().parents[1]

HELP = [("--help", None), ("test", "--help")]  # argparse writes these before any command runs

COMMANDS = [
    *((command, fmt) for command in ("test", "verify") for fmt in ("table", "json", "csv")),
    ("simulate", "table"),
    ("simulate", "json"),
    *HELP,
]


def argv(command, fmt, tmp_path, f1_path):
    if (command, fmt) in HELP:
        return [arg for arg in (command, fmt) if arg]
    if command != "simulate":
        return [command, str(f1_path), *F1_ARGS, "--format", fmt]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dgp": {"n": 16, "rho": [0.0]}, "sim": {"replications": 5, "seed": 3}}))
    return ["simulate", "--config", str(config), "--format", fmt]


def waits_in_a_pipe_write(proc) -> bool:
    try:
        with open(f"/proc/{proc.pid}/wchan", encoding="ascii") as fh:
            return "pipe_write" in fh.read()
    except OSError:  # the process is gone
        return False


def run_into_pipe(cmd, env, k):
    """Run ``cmd`` with its stdout on a pipe that takes k bytes and is then closed."""
    read_end, write_end = os.pipe()
    try:
        capacity = fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ)
        os.write(write_end, b"\0" * (capacity - k))
        proc = subprocess.Popen(cmd, stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
        os.close(write_end)
        write_end = None
        # A write that does not fit the k bytes left blocks, so the program
        # cannot finish; the read end is closed once it waits in that write.
        deadline = time.monotonic() + 10
        while not waits_in_a_pipe_write(proc) and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err


def run_into(sink, cmd, env):
    if sink == "dev_full":
        with open("/dev/full", "wb") as full:
            done = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    else:  # closed: the interpreter starts with no fd 1, so sys.stdout is None
        done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *cmd], stderr=subprocess.PIPE, env=env,
                              text=True, timeout=60)
    return done.returncode, done.stderr


@pytest.mark.parametrize("sink", ["pipe_0", "pipe_100_unbuffered", "dev_full", "closed"])
@pytest.mark.parametrize("command,fmt", COMMANDS)
def test_a_stdout_that_fails_exits_2_with_one_line(tmp_path, f1_path, command, fmt, sink):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    flags = ["-u"] if sink.endswith("unbuffered") else []
    cmd = [sys.executable, *flags, "-m", "endocheck.cli", *argv(command, fmt, tmp_path, f1_path)]
    if sink.startswith("pipe"):
        code, err = run_into_pipe(cmd, env, int(sink.split("_")[1]))
    else:
        code, err = run_into(sink, cmd, env)
    assert code == 2, err
    assert "Traceback" not in err
    assert err.startswith("endocheck: cannot write the report to stdout: ") and err.count("\n") == 1, err
