"""Shared pieces of the benchmark: paths, results, statistics, environment
and the subprocess helper.  Only the standard library is used here."""
from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
CHILD_TIMEOUT_S = 120


@dataclass
class UnitResult:
    """Outcome of one unit of ops: per-op latencies (s) and failure messages."""

    latencies: list[float]
    failures: list[str]
    points: int = 0
    digests: list[str] = field(default_factory=list)
    child_peak_rss_mb: float = 0.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def add(self, ops: int, failures: list[str], where: str) -> None:
        self.attempted += ops
        self.failed += len(failures)
        for msg in failures[: max(0, 20 - len(self.messages))]:
            self.messages.append(f"{where}: {msg}")


def child_env(outdir: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if outdir is not None:
        env["BIPHOTON_OUTDIR"] = outdir
    return env


@dataclass
class ChildRun:
    code: int
    stdout: str
    stderr: str
    seconds: float
    peak_rss_mb: float


def run_child(argv: list[str], env: dict, cwd: str) -> ChildRun:
    """Run one child process to completion, killed after CHILD_TIMEOUT_S.

    The child is reaped with wait4, which gives its own peak RSS.  Its output
    goes through files under cwd, so nothing is written outside the checkout.
    """
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildRun(proc.returncode, out.read().decode(), err.read().decode(), seconds,
                        usage.ru_maxrss / 1024.0)


# ------------------------------------------------------------ statistics


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) at the highest of p99.9/p99/p95/p90 with at least
    ten samples beyond it, by nearest rank; None when n is too small."""
    n = len(latencies)
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            ordered = sorted(latencies)
            return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return None


# ------------------------------------------------------------ environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the library's source files, which names the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "biphoton")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": source_digest(),
    }
