"""Host speed reference, timed between ops, that end-to-end times are scaled by.

The benchmark runs on a share of a host whose speed moves by tens of percent
between seconds and minutes (other tenants on the same cores), and every
wall time moves with it.  `kernel` does the same kind of work as the
library's one-point calls -- frozen dataclasses, complex scalar math,
three-element numpy arrays -- but calls nothing in biphoton, so its time
tracks the host and not the code under test.

`Meter.sample()` times the kernel; the harness samples it before and after
every slice of ops, and for in-process ops also every SAMPLE_EVERY_S while
they run (`Meter.during`, on a SIGALRM timer, so that a 4-second sweep is
not judged by the host's speed at its two ends alone).  Each op time is
scaled by REF_S / (median of the samples around and inside its slice).  A
scaled time reads as the op's time on a host where the kernel takes REF_S,
the kernel's median on the host the benchmark was tuned on (2 vCPUs,
Python 3.11, numpy 2.4).  The raw times are recorded as well.

Ops are timed with `clock()`, which leaves out the time taken by samples
that run inside an op.
"""
from __future__ import annotations

import cmath
import contextlib
import math
import signal
import statistics
import time
from array import array
from dataclasses import dataclass

import numpy as np

REF_S = 1.2e-3
REPEATS = 3  # kernel runs per sample taken between ops; the sample is their median
SAMPLE_EVERY_S = 0.2  # kernel runs inside in-process ops, one per period

_SQRT2 = math.sqrt(2.0)
_OP = _SQRT2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
_INPUTS = [tuple(complex(*pair) for pair in row)
           for row in np.random.default_rng(20031105).normal(size=(64, 4, 2)).tolist()]


@dataclass(frozen=True)
class _Vec:
    h: complex
    v: complex

    def __post_init__(self) -> None:
        norm = math.hypot(abs(self.h), abs(self.v))
        object.__setattr__(self, "h", complex(self.h) / norm)
        object.__setattr__(self, "v", complex(self.v) / norm)


def kernel() -> float:
    acc = 0.0
    for a, b, c, d in _INPUTS:
        p, q = _Vec(a, b), _Vec(c, d)
        amp = np.array([p.h * q.h, (p.h * q.v + p.v * q.h) / _SQRT2, p.v * q.v])
        amp = amp / np.linalg.norm(amp)
        acc += float(np.vdot(amp, _OP @ amp).real) + abs(cmath.phase(p.v + 1j))
    return acc


_stolen = 0.0  # s spent in samples taken inside ops


def clock() -> float:
    """time.perf_counter less the time spent in samples taken by `during`."""
    return time.perf_counter() - _stolen


class Meter:
    """Kernel samples (s) in the order taken."""

    def __init__(self) -> None:
        self.samples = array("d")
        kernel()  # first call pays for imports and caches

    def sample(self) -> float:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        s = statistics.median(times)
        self.samples.append(s)
        return s

    @contextlib.contextmanager
    def during(self):
        """Sample every SAMPLE_EVERY_S of wall time inside the block; yields
        the list the samples go to.  Main thread only."""
        taken: list[float] = []

        def tick(signum, frame) -> None:
            global _stolen
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
            taken.append(dt)
            self.samples.append(dt)
            _stolen += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield taken
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def scale(samples: list[float]) -> float:
    """Factor that takes a time measured among these samples to REF_S speed."""
    return REF_S / statistics.median(samples)
