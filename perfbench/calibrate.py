"""Scale measured seconds to seconds on an uncontended core.

On a shared machine the speed of a core changes by up to 2.5x within
seconds, and a process's CPU time changes with it, so raw times of the
same work spread by 15-30% from run to run.  While a repetition runs, a
SIGALRM timer in each of its processes, pool workers included, runs a
fixed pure-Python kernel every INTERVAL_S and logs its time.  A section's
seconds are scaled by REFERENCE_S over the kernel's mean time in the
processes that did the section's work, each weighted by the CPU time it
spent.  The kernel uses the interpreter the way the program does (tuples,
dicts, gcd, exact Fraction elimination, frozen dataclasses) and no code
of the program, so a change to the program never changes the yardstick.
Its runs add about 4% to every timed section, on every commit alike.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import signal
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

INTERVAL_S = 0.03

# Mean kernel seconds, run between stretches of the program's work, on an
# uncontended core of the reference machine (2-core Intel Xeon VM at
# 2.0 GHz, Python 3.11).
REFERENCE_S = 0.0012


@dataclass(frozen=True, order=True)
class _Label:
    m: int
    n: int


def kernel() -> float:
    """CPU seconds of one run of the kernel.

    Time spent waiting for a core that other processes hold does not
    count, and the garbage collector is off while it runs so that
    the size of the program's heap does not count either.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        table: dict[tuple[int, int], int] = {}
        total = 0
        for i in range(1500):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i * i % 1009
            total += math.gcd(i, 360)
        # exact elimination on a small rational matrix, and frozen records
        rows = [[Fraction((i * j) % 7 - 3, 1 + (i + j) % 4) for j in range(6)] for i in range(6)]
        for col in range(6):
            pivot = next((r for r in range(col, 6) if rows[r][col]), None)
            if pivot is None:
                continue
            rows[col], rows[pivot] = rows[pivot], rows[col]
            inverse = 1 / rows[col][col]
            for r in range(col + 1, 6):
                factor = rows[r][col] * inverse
                for c in range(col, 6):
                    rows[r][c] -= factor * rows[col][c]
        sorted({_Label(a % 3, b % 3) for a, b in itertools.product(range(9), repeat=2)})
        return time.thread_time() - start
    finally:
        if collecting:
            gc.enable()


class SpeedSampler:
    """Logs kernel times from this process and every process forked from
    it while the context is open, one line per sample:
    pid, monotonic time, kernel seconds, process CPU seconds."""

    def __init__(self, path) -> None:
        self.path = path
        self.active = False
        self.fd = -1

    def __enter__(self) -> "SpeedSampler":
        self.fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND)
        self.active = True
        os.register_at_fork(after_in_child=self._start)
        self._start()
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        os.close(self.fd)

    def _start(self) -> None:
        if self.active:  # interval timers are not inherited across fork
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _tick(self, signum, frame) -> None:
        line = f"{os.getpid()} {time.monotonic():.6f} {kernel():.9f} {time.process_time():.6f}\n"
        os.write(self.fd, line.encode())

    def scale(self, start: float, end: float) -> float:
        """Factor from measured to reference seconds for the section that
        ran between monotonic times `start` and `end`."""
        by_pid: dict[str, list[tuple[float, float]]] = defaultdict(list)
        with open(self.path) as handle:
            for line in handle:
                pid, at, kernel_s, cpu_s = line.split()
                if start <= float(at) <= end:
                    by_pid[pid].append((float(kernel_s), float(cpu_s)))
        weighted = weight = 0.0
        for samples in by_pid.values():
            cpu = samples[-1][1] - samples[0][1]
            weighted += cpu * sum(k for k, _ in samples) / len(samples)
            weight += cpu
        return REFERENCE_S / (weighted / weight if weight else kernel())
