"""Running one job as a fresh subprocess and measuring it.

Every job runs in its own interpreter, as users run the package, so the
module-global class cache never carries over between jobs. The child is
reaped with ``os.wait4``, whose rusage covers that child and the pool
workers it waited for, and nothing else.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
JOB_TIMEOUT_S = 120


@dataclass(frozen=True)
class JobResult:
    returncode: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def child_env() -> dict[str, str]:
    """Environment of a job: the checkout's ``src`` and nothing else on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def job_argv(job: tuple[str, ...], index: int, trace_out: str | None = None) -> list[str]:
    """Command line of a job at a modulus index, traced when ``trace_out`` is set."""
    kind, args = job[0], list(job[1:]) + ["--modulus-index", str(index)]
    if trace_out is not None:
        return [sys.executable, str(BENCH_DIR / "traced.py"), trace_out, kind] + args
    if kind == "cli":
        return [sys.executable, "-m", "twozero"] + args
    return [sys.executable, str(BENCH_DIR / "libjob.py")] + args


def run_argv(argv: list[str]) -> JobResult:
    """Run a command to completion and measure it with its own rusage."""
    env = child_env()
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout = _read_all(proc, start + JOB_TIMEOUT_S)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # the job and its pool workers
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return JobResult(
        returncode=proc.returncode,
        stdout=stdout,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def _read_all(proc: subprocess.Popen, deadline: float) -> bytes:
    """Drain the child's stdout; the child is reaped by the caller."""
    chunks = []
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"job exceeded {JOB_TIMEOUT_S} s: {proc.args}")
            if not sel.select(remaining):
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    proc.stdout.close()
    return b"".join(chunks)
