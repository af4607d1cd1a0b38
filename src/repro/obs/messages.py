"""Envelope span lifecycles and causal message traces.

A message span cannot be context-managed: it opens when the sender puts the
envelope on the wire and closes when the first copy is delivered (or the
wire bounces it back), in different call frames and possibly different
simulated instants.  OBS001 therefore bans the imperative
``start_span``/``end_span`` pair everywhere *except* this module — the
transport calls these helpers and never touches the tracer's span API
directly.

Besides spans, :class:`MessageObs` keeps a flat, human-readable causal log
(one line per transport event, in event order).  When a chaos scenario
violates a property, the study re-runs the scenario deterministically under
tracing and attaches :meth:`MessageObs.trace_lines` to the verdict — the
"what did the wire do" answer that a bare digest cannot give.

All timestamps here are *simulated* seconds off the event queue (plus the
tracer's logical ticks on the spans themselves); nothing reads a wall clock.
"""

from __future__ import annotations

from repro.obs.spans import Tracer


class MessageObs:
    """Span + causal-log recorder for one simulated network."""

    __slots__ = ("_tracer", "_spans", "lines")

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._spans: dict[int, int] = {}  # envelope key -> open span id
        #: Causal log lines, in event order (empty in metrics-only mode).
        self.lines: list[str] = []

    def _note(self, now: float, verb: str, key: int, detail: str = "") -> None:
        if self._tracer.record_spans:
            suffix = f" {detail}" if detail else ""
            self.lines.append(f"t={now:g} {verb} #{key}{suffix}")

    # ------------------------------------------------------------- lifecycle

    def send(self, key: int, sender: str, recipient: str, what: str, now: float) -> int:
        """Open the message span at send time; returns its span id."""
        span_id = self._tracer.start_span(
            "message",
            {"key": key, "src": sender, "dst": recipient, "what": what, "sent_at": now},
        )
        if span_id >= 0:
            self._spans[key] = span_id
        self._note(now, "send", key, f"{sender}->{recipient} {what}")
        return span_id

    def deliver(self, key: int, now: float) -> None:
        """First successful delivery closes the span."""
        span_id = self._spans.pop(key, None)
        if span_id is not None:
            self._tracer.end_span(span_id, {"delivered_at": now, "fate": "delivered"})
        self._note(now, "deliver", key)

    def abandon(self, key: int, now: float) -> None:
        """The wire gives up: custody returns to the sender, span closes."""
        span_id = self._spans.pop(key, None)
        if span_id is not None:
            self._tracer.end_span(span_id, {"abandoned_at": now, "fate": "abandoned"})
        self._note(now, "abandon", key)

    def finish(self, now: float) -> None:
        """Close any message spans still open (defensive; quiescence and
        :meth:`~repro.sim.network.TransportCore.resolve_stranded` normally
        close everything)."""
        for key in sorted(self._spans):
            self._tracer.end_span(self._spans[key], {"fate": "unresolved", "at": now})
            self._note(now, "unresolved", key)
        self._spans.clear()

    # ---------------------------------------------------------------- events

    def attempt(self, key: int, attempt: int, now: float) -> None:
        span_id = self._spans.get(key)
        if span_id is not None:
            self._tracer.add_event(span_id, "attempt", {"n": attempt, "at": now})
        if attempt > 1:
            self._note(now, "attempt", key, f"n={attempt}")

    def drop(self, key: int, now: float) -> None:
        """This attempt's copy was lost (random drop or partition)."""
        span_id = self._spans.get(key)
        if span_id is not None:
            self._tracer.add_event(span_id, "drop", {"at": now})
        self._note(now, "drop", key)

    def duplicate(self, key: int, now: float) -> None:
        """The link forked a second copy of this attempt."""
        span_id = self._spans.get(key)
        if span_id is not None:
            self._tracer.add_event(span_id, "duplicate", {"at": now})
        self._note(now, "duplicate", key)

    def retransmit(self, key: int, now: float) -> None:
        span_id = self._spans.get(key)
        if span_id is not None:
            self._tracer.add_event(span_id, "retransmit", {"at": now})
        self._note(now, "retransmit", key)

    def defer(self, key: int, now: float) -> None:
        """Delivered to a crashed host: parked in the mailbox until restart."""
        span_id = self._spans.get(key)
        if span_id is not None:
            self._tracer.add_event(span_id, "defer", {"at": now})
        self._note(now, "defer", key)

    def duplicate_delivery(self, key: int, now: float) -> None:
        """A late copy arrived after first delivery (span already closed)."""
        self._tracer.instant("message.duplicate_delivery", {"key": key, "at": now})
        self._note(now, "dup-deliver", key)

    # --------------------------------------------------------------- reading

    def trace_lines(self) -> tuple[str, ...]:
        """The causal log so far, one line per transport event."""
        return tuple(self.lines)
