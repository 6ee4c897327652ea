"""Host-speed calibration: wall time expressed in reference seconds.

The shared host's speed swings by tens of percent over seconds to
minutes, while CPU time tracks wall time, so the swing is the processor
running slower, not this process waiting.  Such a swing moves every
wall time of a run together with the time of a fixed pure-Python loop
run at the same moment.  The benchmark therefore runs the loop before
and after every timed segment and scales the segment's wall time by
``REFERENCE_LOOP_S`` over the loop's mean time around it: a segment
measured while the host ran at its reference speed keeps its wall time.

The loop belongs to the benchmark, not the program, so no change to the
program moves it.  It does the kind of work the simulator does: heap
pushes and pops of tuples, small ``__slots__`` objects, dict updates and
method calls.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: About the loop's median time on the reference host (a shared 2-CPU
#: container, CPython 3.11); only the ratio to it matters.
REFERENCE_LOOP_S = 0.008


class _Item:
    __slots__ = ("rank", "weight")

    def __init__(self, rank: int, weight: int) -> None:
        self.rank = rank
        self.weight = weight

    def value(self) -> int:
        return self.rank + self.weight


def loop_seconds() -> float:
    """Wall time of one calibration loop.

    The cyclic garbage collector is off for the loop: its allocations
    would otherwise trigger collections that scan the program's heap,
    and the loop would time the program's heap instead of the host.
    Everything the loop allocates is freed by reference counting, so
    the program's own collection schedule is left as it was.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _timed_loop()
    finally:
        if collecting:
            gc.enable()


def _timed_loop() -> float:
    start = time.perf_counter()
    heap: list[tuple[int, int, _Item]] = []
    tally: dict[int, int] = {}
    total = 0
    for index in range(5000):
        item = _Item(index, index * 7919 % 1013)
        heapq.heappush(heap, (item.weight, index, item))
        tally[item.weight] = tally.get(item.weight, 0) + 1
    while heap:
        total += heapq.heappop(heap)[2].value()
    if total != sum(range(5000)) + sum(w * c for w, c in tally.items()):
        raise AssertionError("calibration loop computed a wrong total")
    return time.perf_counter() - start


class ReferenceClock:
    """Converts consecutive segments' wall time to reference seconds.

    Each reading of the host's speed is the median of ``samples`` loops;
    more samples steady a reading taken once per run, such as around
    the import.
    """

    def __init__(self, samples: int = 1) -> None:
        self._samples = samples
        self._before = self._reading()

    def _reading(self) -> float:
        return statistics.median(loop_seconds() for _ in range(self._samples))

    def convert(self, seconds: float) -> float:
        """Reference seconds of a segment that just took ``seconds``."""
        after = self._reading()
        speed = REFERENCE_LOOP_S / ((self._before + after) / 2)
        self._before = after
        return seconds * speed
