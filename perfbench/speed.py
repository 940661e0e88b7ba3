"""The host's speed, sampled all through a run.

A shared host changes speed by tens of percent within seconds: a fixed
pure-Python loop takes anywhere from 120 to 200 ms from one second to
the next. Wall times of one call therefore spread by far more than any
bound a benchmark can set. While a run measures, :class:`SpeedProbe`
runs a fixed slice of reference work from a timer signal every
:data:`INTERVAL` seconds, and each timed interval is reported at the
reference speed: its wall time, less the probe's own work inside it,
times :data:`REFERENCE_SECONDS` over the median duration of the
reference work near the interval. The reference work uses only the
standard library, so a change to Orchid moves only the wall time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Tuple

#: how long :func:`reference_work` takes at the reference speed (about
#: this host's typical speed)
REFERENCE_SECONDS = 0.0015
#: seconds of wall time between two probe samples
INTERVAL = 0.2


def reference_work(rows: int = 2000) -> float:
    """A fixed slice of interpreter work like the engines' row handling:
    build dict rows, filter and sum them, sort them."""
    table = [{"id": i, "name": f"n{i}", "v": i * 0.5} for i in range(rows)]
    total = 0.0
    for row in table:
        if row["id"] % 3:
            total += row["v"] + len(row["name"])
    table.sort(key=lambda row: -row["v"])
    return total + table[0]["id"]


def reference_seconds() -> float:
    """The speed right now: the median time of three reference works."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """While entered, times :func:`reference_work` every
    :data:`INTERVAL` seconds from a ``SIGALRM`` handler (main thread
    only)."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.starts: List[float] = []
        self.durations: List[float] = []

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def scaled(self, start: float, end: float) -> Tuple[float, float]:
        """``(wall, at reference speed)`` seconds of the interval
        ``[start, end]`` of ``time.perf_counter()``, both without the
        probe's own work inside it."""
        inside = self.durations[
            bisect.bisect_left(self.starts, start):bisect.bisect_left(self.starts, end)
        ]
        wall = end - start - sum(inside)
        nearby = self.durations[
            bisect.bisect_left(self.starts, start - self.interval):
            bisect.bisect_right(self.starts, end + self.interval)
        ]
        if not nearby:  # the probe was not running
            return wall, wall
        return wall, wall * REFERENCE_SECONDS / statistics.median(nearby)
