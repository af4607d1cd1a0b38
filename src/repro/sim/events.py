"""Event queue for the discrete-event simulator.

A deterministic min-heap of timed callbacks.  Ties on time break on a
monotonically increasing sequence number, so two callbacks scheduled for
the same instant fire in scheduling order — determinism is what lets every
simulation test assert exact outcomes.

The heap holds ``(time, seq, callback)`` tuples and nothing else: no object
is built per scheduled callback.  Sequence numbers are unique, so tuple
comparison, done in C, settles on the two numbers and never reaches the
callback.  A callback's sequence number is its handle:
:meth:`EventQueue.cancel` records it, the cancelled entry stays in the heap
until it surfaces, and :meth:`EventQueue.pop` skips it then.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.errors import SimulationError

Callback = Callable[[], None]


class EventQueue:
    """A deterministic priority queue of timed callbacks."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callback]] = []
        self._counter = itertools.count()
        self._cancelled: set[int] = set()
        self.now = 0.0

    def schedule(self, delay: float, callback: Callback) -> int:
        """Schedule *callback* to run *delay* time units from now; its handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callback) -> int:
        """Schedule *callback* at an absolute time (not before now); its handle."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now={self.now}")
        seq = next(self._counter)
        heapq.heappush(self._heap, (time, seq, callback))
        return seq

    def cancel(self, handle: int) -> None:
        """Skip the callback scheduled under *handle* when it surfaces.

        Handles are never reused, so cancelling a callback that already ran
        has no effect.
        """
        self._cancelled.add(handle)

    def pop(self) -> Callback | None:
        """Advance the clock to, and return, the next live callback (or None)."""
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            time, seq, callback = heapq.heappop(heap)
            if seq in cancelled:
                cancelled.discard(seq)
                continue
            self.now = time
            return callback
        return None

    def __len__(self) -> int:
        cancelled = self._cancelled
        return sum(1 for _, seq, _ in self._heap if seq not in cancelled)

    @property
    def empty(self) -> bool:
        return len(self) == 0
