"""Shared bootstrap for the socket runtime: every process derives the same
world from the same spec text.

The one serialization every layer of this repo reconstructs from is the
spec language (`repro.spec`): the supervisor writes ``format_problem`` text
into the run directory, each node subprocess ``load``s it and re-derives —
deterministically — the identical synthesized protocol and initial
endowments.  Nothing about the protocol crosses the wire; only the spec
path and scalar knobs (deadline, working capital) do, as CLI arguments.
"""

from __future__ import annotations

from repro.core.parties import Party
from repro.core.problem import ExchangeProblem
from repro.core.protocol import Protocol, synthesize_protocol
from repro.errors import NetRuntimeError
from repro.spec.compiler import load_file


def load_problem(spec_path: str) -> ExchangeProblem:
    """Load and validate the exchange problem at *spec_path*."""
    return load_file(spec_path)


def derive_protocol(problem: ExchangeProblem, deadline: float | None) -> Protocol:
    """Synthesize the protocol every node of the run executes.

    Synthesis is deterministic, so independently-derived copies in the
    supervisor and in each node subprocess are identical — the socket
    runtime's substitute for shipping the protocol over the wire.
    """
    sequence = problem.execution_sequence()
    return synthesize_protocol(
        problem.interaction, sequence, problem.name, deadline=deadline
    )


def find_party(problem: ExchangeProblem, protocol: Protocol, name: str) -> Party:
    """Resolve *name* to the principal or trusted party it denotes."""
    for party in problem.interaction.principals:
        if party.name == name:
            return party
    for party in protocol.trusted_specs:
        if party.name == name:
            return party
    raise NetRuntimeError(f"party {name!r} does not appear in the problem")
