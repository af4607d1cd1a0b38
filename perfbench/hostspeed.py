"""How fast the host runs right now, measured with a fixed reference workload.

The benchmark host shares its CPUs with other machines: the same pure-Python
work runs up to twice as slowly for seconds or minutes at a time, and every
in-process timing drifts with it.  :class:`HostSpeed` times a small fixed
workload owned by the benchmark (never the program) at short intervals
between operations.  Multiplying an operation's wall time by the factor
measured around it gives its time at the reference speed -- the speed at
which the reference workload takes ``REFERENCE_S``.

Networked runs mostly sleep on timers whose length does not depend on host
speed, so the networked workload keeps raw wall time (``HostSpeed(False)``).
"""

from __future__ import annotations

import gc
import statistics
import time
from operator import attrgetter

#: The reference workload's typical warm time on the development host
#: (2-vCPU Xeon guest, CPython 3.11) between operations of the program.
REFERENCE_S = 230e-6
INTERVAL_S = 0.05  # at most one sample per interval
WINDOW = 5  # samples behind each operation's factor


class _Item:
    __slots__ = ("key", "rank")

    def __init__(self, key: int, rank: int) -> None:
        self.key = key
        self.rank = rank


def reference_work() -> int:
    """Fixed work shaped like the program's: small objects, dicts, sets, sorting, text."""
    keys = [(i * 7919) % 1009 for i in range(300)]
    index: dict[tuple[int, int], int] = {}
    for rank, key in enumerate(keys):
        index[key, rank % 7] = index.get((key, rank % 7), 0) + rank
    items = [_Item(key, rank) for rank, key in enumerate(keys)]
    items.sort(key=attrgetter("key"))
    text = ",".join(str(item.rank) for item in items[:100])
    return len(set(keys)) + len(index) + len(text)


class HostSpeed:
    """Samples of the reference workload's wall time, and factors derived from them."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.samples: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        if not self.enabled:
            return
        # The collector stays off so the program's garbage is never collected
        # (and timed) here; every object the sample makes dies by refcount.
        # The untimed first run warms the caches the timed one uses, so the
        # sample does not depend on what the program did just before.
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference_work()
            start = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        self._next = time.perf_counter() + INTERVAL_S

    def mark(self) -> int:
        """Sample when the interval has passed; return the sample count so far."""
        if time.perf_counter() >= self._next:
            self.sample()
        return len(self.samples)

    def factor(self, first: int, stop: int) -> float:
        """Reference over measured time, from samples[first:stop] (1.0 when disabled)."""
        window = self.samples[max(first, 0) : stop]
        if not self.enabled or not window:
            return 1.0
        return REFERENCE_S / statistics.median(window)
