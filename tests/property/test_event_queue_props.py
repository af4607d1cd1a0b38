"""Property: the event queue pops exactly the live events in (time, seq) order.

Hypothesis drives arbitrary interleavings of ``schedule``, ``schedule_at``,
``cancel`` and ``pop`` over a handful of time offsets, so many events share
an instant.  A sorted list of ``(time, seq)`` pairs, ``seq`` being the
scheduling order, is the reference: each pop must return the event of its
first live entry, a cancelled event must never come back, the queue's
length must equal the live count, and the clock must never run backwards.
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


@given(ops=operations)
@settings(max_examples=200, deadline=None)
def test_pops_live_events_in_time_then_seq_order(ops):
    queue = EventQueue()
    events = []  # every event scheduled; its index is its seq
    live = []  # reference: (time, seq) of events neither popped nor cancelled

    def check_pop():
        now = queue.now
        event = queue.pop()
        if not live:
            assert event is None
            assert queue.now == now
            return
        live.sort()
        _, seq = live.pop(0)
        assert event is events[seq]
        assert queue.now == event.time >= now

    for op, arg in ops:
        if op == "schedule":
            events.append(queue.schedule(arg, lambda: None))
            live.append((queue.now + arg, len(events) - 1))
        elif op == "schedule_at":
            events.append(queue.schedule_at(queue.now + arg, lambda: None))
            live.append((queue.now + arg, len(events) - 1))
        elif op == "cancel" and events:
            seq = arg % len(events)
            events[seq].cancel()
            live = [entry for entry in live if entry[1] != seq]
        elif op == "pop":
            check_pop()
        assert len(queue) == len(live)

    while live:
        check_pop()
    assert queue.pop() is None
    assert queue.empty
