"""Property: per-sender FIFO survives delay injection.

The reliable transport delivers one sender's messages in send order (fixed
latency over a deterministic queue).  Delay jitter could break that — a
later message drawing a smaller jitter would overtake an earlier one — so
the wire core clamps per-link arrival times monotone.  This suite drives
randomized delay-only fault plans through
:class:`~repro.sim.network.TransportCore` and asserts that, for every
(sender, recipient) pair, the arrival times :meth:`send` returns never
decrease in send order.  The event queue fires equal times in scheduling
order (``tests/sim/test_events.py``), so arrival order follows.
"""

import random

from repro.core.actions import pay
from repro.core.items import cents
from repro.core.parties import consumer, trusted
from repro.sim.faults import FaultPlan, LinkFault
from repro.sim.network import TransportCore

T = trusted("t")


def _run_one(seed: int, n_senders: int, n_messages: int) -> None:
    rng = random.Random(seed)
    senders = [consumer(f"c{i}") for i in range(n_senders)]
    plan = FaultPlan(
        seed=seed,
        links=(LinkFault(max_delay=rng.uniform(0.5, 8.0)),),
        heal_at=None,  # jitter never heals: the hardest case for ordering
    )
    core = TransportCore(latency=1.0, plan=plan)
    arrivals: dict[str, list[float]] = {s.name: [] for s in senders}
    jittered = False

    for step in range(n_messages):
        sender = rng.choice(senders)
        # Strictly increasing send times (so send order is well-defined),
        # spaced closely enough that jitter windows genuinely overlap.
        now = step * 0.5 + rng.uniform(0.0, 0.4)
        _, times = core.send(now, pay(sender, T, cents(step + 1)))
        assert len(times) == 1 and times[0] >= now + 1.0
        jittered = jittered or times[0] > now + 1.0
        arrivals[sender.name] += times

    assert jittered
    for name, times in arrivals.items():
        assert times == sorted(times), (
            f"seed {seed}: {name}'s arrival times decrease in send order: {times}"
        )


def test_fifo_preserved_under_delay_injection():
    for seed in range(60):
        _run_one(seed, n_senders=3, n_messages=25)


def test_fifo_preserved_with_single_hot_sender():
    for seed in range(30):
        _run_one(seed, n_senders=1, n_messages=40)
