"""Speed probe, tail rule, peak memory and child-process measurement."""

from __future__ import annotations

import bisect
import os
import resource
import statistics
import time
from fractions import Fraction

TAIL_BEYOND = 10


class SpeedProbe:
    """Samples how fast the CPU runs a fixed piece of Python, to scale timings by.

    On a shared host the CPU a process runs on is slowed, by up to 1.9x, by
    work other tenants run beside it, and the slowdown changes within
    seconds.  The probe times ``kernel`` every ``EVERY_S`` seconds of the
    run (outside any timed operation); ``scale`` turns a wall time into the
    time it would have taken on a CPU that runs the kernel in
    ``REFERENCE_S``.  The benchmark pins itself and its children to one CPU,
    so that the probe and the work it scales share that CPU.
    """

    REFERENCE_S = 250e-6
    EVERY_S = 0.1
    WINDOW_S = 0.5
    REPEATS = 3

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []

    @staticmethod
    def kernel() -> Fraction:
        """Interpreter work like the program's: Fractions, dicts, strings and calls."""
        total = Fraction(0)
        table = {}
        for i in range(1, 120):
            total += Fraction(i, i + 7)
            table[str(i)] = i * i % 97
        return total + sum(table.values())

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            for _ in range(self.REPEATS):
                self.kernel()
            self.times.append(start)
            self.samples.append((time.perf_counter() - start) / self.REPEATS)

    def due(self) -> None:
        """Sample if ``EVERY_S`` has passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= self.EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median kernel time sampled within ``WINDOW_S`` of ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        near = self.samples[lo:hi] or [self.samples[min(lo, len(self.samples) - 1)]]
        return self.REFERENCE_S / statistics.median(near)


def pin_to_one_cpu() -> None:
    """Run this process and the children it starts on one CPU (see ``SpeedProbe``)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` for the tail of ``values``.

    The tail is the highest percentile with ten samples beyond it: with
    ``n`` samples sorted ascending, the one at index ``n - 11``, at
    percentile ``100 * (n - 10) / n`` by nearest rank.  With ten samples or
    fewer no percentile qualifies, and the maximum stands in.
    """
    n = len(values)
    ordered = sorted(values)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(argv: list[str], env: dict, stdout_path: str, stderr_path: str):
    """Run one child to completion: ``(exit code, wall seconds, peak RSS MB)``.

    ``os.wait4`` gives the peak of this child alone; ``RUSAGE_CHILDREN`` would
    give the running maximum over every child reaped so far.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0
