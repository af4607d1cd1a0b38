"""Event queue for the discrete-event simulator.

A deterministic min-heap of timed events.  Ties on time break on a
monotonically increasing sequence number, so two events scheduled for the
same instant fire in scheduling order — determinism is what lets every
simulation test assert exact outcomes.

The heap holds ``(time, seq, event)`` tuples.  Sequence numbers are unique,
so tuple comparison, done in C, settles on the two numbers and never reaches
the event itself.  A cancelled event stays in the heap until it surfaces,
and :meth:`EventQueue.pop` skips it then.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.errors import SimulationError


class Event:
    """One scheduled callback, due at ``time``."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        self.cancelled = True


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self.now = 0.0

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* to run *delay* time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* at an absolute time (not before now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now={self.now}")
        event = Event(time, callback)
        heapq.heappush(self._heap, (time, next(self._counter), event))
        return event

    def pop(self) -> Event | None:
        """Advance the clock to, and return, the next live event (or None)."""
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self.now = time
            return event
        return None

    def __len__(self) -> int:
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    @property
    def empty(self) -> bool:
        return len(self) == 0
