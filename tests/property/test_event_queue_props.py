"""Property: the event queue pops exactly the live callbacks in (time, seq) order.

Hypothesis drives arbitrary interleavings of ``schedule``, ``schedule_at``,
``cancel`` and ``pop`` over a handful of time offsets, so many callbacks
share an instant.  A sorted list of ``(time, seq)`` pairs, ``seq`` being the
scheduling order, is the reference: each pop must return the callback of its
first live entry and advance the clock to that entry's time, a cancelled
callback must never come back (cancelling one that already ran or was
already cancelled changes nothing), the queue's length must equal the live
count, and the clock must never run backwards.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue

OFFSETS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])

operations = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), OFFSETS),
        st.tuples(st.just("schedule_at"), OFFSETS),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    max_size=80,
)


def _noop():
    """A fresh no-op callback: a distinct object, so a pop names its seq."""
    return lambda: None


@given(ops=operations)
@settings(max_examples=200, deadline=None)
def test_pops_live_events_in_time_then_seq_order(ops):
    queue = EventQueue()
    callbacks = []  # every callback scheduled; its index is its seq
    handles = []  # the handle each schedule call returned, by seq
    live = []  # reference: (time, seq) of callbacks neither popped nor cancelled

    def check_pop():
        now = queue.now
        callback = queue.pop()
        if not live:
            assert callback is None
            assert queue.now == now
            return
        live.sort()
        time, seq = live.pop(0)
        assert callback is callbacks[seq]
        assert queue.now == time >= now

    for op, arg in ops:
        if op == "schedule":
            callbacks.append(_noop())
            handles.append(queue.schedule(arg, callbacks[-1]))
            live.append((queue.now + arg, len(callbacks) - 1))
        elif op == "schedule_at":
            callbacks.append(_noop())
            handles.append(queue.schedule_at(queue.now + arg, callbacks[-1]))
            live.append((queue.now + arg, len(callbacks) - 1))
        elif op == "cancel" and callbacks:
            seq = arg % len(callbacks)
            queue.cancel(handles[seq])
            live = [entry for entry in live if entry[1] != seq]
        elif op == "pop":
            check_pop()
        assert len(queue) == len(live)

    while live:
        check_pop()
    assert queue.pop() is None
    assert queue.empty
