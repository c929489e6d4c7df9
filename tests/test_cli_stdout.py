"""Stdout and stderr are part of the exit contract: a report that cannot be
written exits 2, and an error that cannot be written keeps its exit code.

Each stdout case, a command's report or a help text, runs ``python -m endocheck.cli``
in a subprocess on a stdout that fails: a pipe closed after it took at most
k bytes, ``/dev/full`` and a closed fd. The pipe is filled to k bytes short of its capacity before the
program starts, so a write that does not fit blocks whatever the buffering,
and the read end is closed while the program waits in it: every run meets
the closed pipe, and none can finish first. Each stderr case runs a failure
path on a stderr on ``/dev/full`` or closed. In process, each report reaches
stdout in one ``write``.
"""

import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from endocheck.cli import main
from test_cli import F1_ARGS, collinear_csv

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


def run_into(cmd, env, stdout=None, stderr=None):
    """Run ``cmd`` with stdout and stderr each on a sink: ``"dev_full"``, ``"closed"``
    (the interpreter starts without the fd, so ``sys.stdout`` or ``sys.stderr`` is
    None) or None, a pipe. Returns the exit code and what the two pipes took."""
    closes = " ".join(f"{fd}>&-" for fd, sink in ((1, stdout), (2, stderr)) if sink == "closed")
    with open("/dev/full", "wb") as full:
        done = subprocess.run(["sh", "-c", f'exec "$@" {closes}', "sh", *cmd], env=env, text=True, timeout=60,
                              stdout=full if stdout == "dev_full" else subprocess.PIPE,
                              stderr=full if stderr == "dev_full" else subprocess.PIPE)
    return done.returncode, done.stdout or "", done.stderr or ""


def cli(*args, flags=()):
    """``python -m endocheck.cli`` on this checkout's source, and its environment."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return [sys.executable, *flags, "-m", "endocheck.cli", *args], env


@pytest.mark.parametrize("sink", ["pipe_0", "pipe_100_unbuffered", "dev_full", "closed"])
@pytest.mark.parametrize("command,fmt", COMMANDS)
def test_a_stdout_that_fails_exits_2_with_one_line(tmp_path, f1_path, command, fmt, sink):
    flags = ["-u"] if sink.endswith("unbuffered") else []
    cmd, env = cli(*argv(command, fmt, tmp_path, f1_path), flags=flags)
    if sink.startswith("pipe"):
        code, err = run_into_pipe(cmd, env, int(sink.split("_")[1]))
    else:
        code, _, err = run_into(cmd, env, stdout=sink)
    assert code == 2, err
    assert "Traceback" not in err
    assert err.startswith("endocheck: cannot write the report to stdout: ") and err.count("\n") == 1, err


FAILURES = {  # a failure path: its arguments in tmp_path, and its exit code
    "collinear": (lambda tmp_path: ["test", str(collinear_csv(tmp_path)), *F1_ARGS], 2),
    "missing_csv": (lambda tmp_path: ["test", str(tmp_path / "missing.csv"), *F1_ARGS], 2),
    "verify_without_input": (lambda tmp_path: ["verify"], 2),
    "missing_config": (lambda tmp_path: ["simulate", "--config", str(tmp_path / "missing.json")], 5),
}


@pytest.mark.parametrize("sink", ["dev_full", "closed"])
@pytest.mark.parametrize("failure", FAILURES)
def test_a_stderr_that_fails_keeps_the_exit_code(tmp_path, failure, sink):
    args, expected = FAILURES[failure]
    code, out, _ = run_into(*cli(*args(tmp_path)), stderr=sink)
    assert (code, out) == (expected, "")


def test_a_stdout_and_a_stderr_that_fail_exit_2(f1_path):
    cmd, env = cli("test", str(f1_path), *F1_ARGS, "--format", "json")
    assert run_into(cmd, env, stdout="dev_full", stderr="dev_full")[0] == 2


class Recorder:
    """A stdout that records each ``write``."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("command,fmt", COMMANDS)
def test_the_report_is_one_write(monkeypatch, tmp_path, f1_path, command, fmt):
    stdout = Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(argv(command, fmt, tmp_path, f1_path))
    assert code == 0
    assert len(stdout.writes) == 1 and stdout.writes[0].endswith("\n"), stdout.writes


def test_a_validation_failure_writes_nothing_to_stdout(monkeypatch, tmp_path):
    stdout = Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["test", str(collinear_csv(tmp_path)), *F1_ARGS]) == 2
    assert stdout.writes == []
