"""Host seconds expressed in reference seconds.

A shared host's speed can swing by half within seconds, which would bury a
program change of a few percent.  So every timed stretch of work is followed
at once by a fixed pure-Python reference loop, and the stretch is scaled by
`REF_S / (that loop's time)`: a stretch that took 30 ms while the loop took
twice its `REF_S` is reported as 15 ms.  Longer samples are timed as a sum of
stretches of about `STRETCH_S` each, so that no stretch is scaled by a loop
run long after the host's speed has changed; shorter ones are queued and
scaled together once they add up to a stretch, so that the loop does not
cost more time than the work it scales.  The loop lives in the benchmark,
not in the program, so a change to the program moves the scaled time while
a change in host speed mostly does not.  The run's context records the
median host factor (loop time / `REF_S`), which turns scaled figures back
into wall time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Sets the scale: reported times read as wall time on a host where the loop
# takes 4 ms (it takes 2.2-4.4 ms on a shared 2-core Intel Xeon under
# Python 3.11, depending on the load from other tenants).
REF_S = 0.004
REF_ITEMS = 6000
STRETCH_S = 0.04


def reference_loop() -> int:
    """Dict, set, tuple and list work of the kind the simulator does."""
    table: dict = {}
    members = set()
    acc = 0
    for i in range(REF_ITEMS):
        key = (i & 63, i % 7)
        bucket = table.get(key)
        if bucket is None:
            bucket = table[key] = []
        bucket.append(i)
        members.add(key)
        acc += len(bucket) + hash(key) % 3
    return acc + len(members)


class RefClock:
    """Scales one run's timed samples; keeps every loop time it measured."""

    def __init__(self) -> None:
        self.loop_s: list[float] = []
        self._total = 0.0
        self._t = 0.0
        self._queue: list[float] = []
        self._scaled: list[float] = []

    def scale(self, *seconds: float) -> list[float]:
        """Run the reference loop now and scale `seconds` by it."""
        t = perf_counter()
        reference_loop()
        loop_s = perf_counter() - t
        self.loop_s.append(loop_s)
        return [s * REF_S / loop_s for s in seconds]

    def start(self) -> None:
        """Start timing a sample."""
        self._total, self._t = 0.0, perf_counter()

    def lap(self) -> None:
        """Scale the stretch since the last lap, once it is `STRETCH_S` long."""
        if perf_counter() - self._t >= STRETCH_S:
            self.stop()
            self._t = perf_counter()

    def stop(self) -> float:
        """Scale the last stretch; return the sample in reference seconds."""
        [scaled] = self.scale(perf_counter() - self._t)
        self._total += scaled
        return self._total

    def add(self, seconds: float) -> None:
        """Queue a short sample; scale the queue once it holds a stretch."""
        self._queue.append(seconds)
        if sum(self._queue) >= STRETCH_S:
            self._scaled += self.scale(*self._queue)
            self._queue = []

    def take(self) -> list[float]:
        """Every sample queued since the last take, in reference seconds."""
        if self._queue:
            self._scaled += self.scale(*self._queue)
            self._queue = []
        taken, self._scaled = self._scaled, []
        return taken

    def host_factor(self) -> float:
        """Median loop time over `REF_S`: wall seconds per reported second."""
        return statistics.median(self.loop_s) / REF_S if self.loop_s else 1.0
