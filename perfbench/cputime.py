"""Timing an interval as wall, user-CPU and kernel-CPU seconds.

The benchmark reports user-CPU seconds. svloop runs in one thread and
waits on nothing, so its wall time is its user time plus its kernel time,
and the kernel time is almost all file creation. On a shared VM whose
ext4 file system discards freed blocks online, creating files after many
deletions costs up to seven times more kernel time than before them (the
same `evaluate`, repeated in one process, spent 0.13 s in the kernel at
first and 1.2–1.8 s a minute later while its user time stayed at
0.9–1.4 s), and the benchmark's own clean-up of earlier runs makes those
deletions. Wall time then follows the state of the file system rather
than the program. Wall and kernel seconds are printed beside the result.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Cost:
    """Seconds of one interval; CPU times include children that ended
    inside it."""

    wall: float = 0.0
    user: float = 0.0
    kernel: float = 0.0

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.wall + other.wall, self.user + other.user, self.kernel + other.kernel)


def _cpu() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + children.ru_utime, own.ru_stime + children.ru_stime


class Timer:
    """``with Timer() as t: ...`` leaves the interval's Cost in ``t.cost``."""

    def __enter__(self):
        self._cpu, self._start = _cpu(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self._start
        user, kernel = _cpu()
        self.cost = Cost(wall, user - self._cpu[0], kernel - self._cpu[1])
        return False
