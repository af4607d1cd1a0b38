"""Deterministic guard: the in-process pipeline scales linearly with chain length.

The spec-text → safety-verdict path (parse and compile, feasibility, the
simulated run with its execution recovery and protocol synthesis, the
safety check) runs on resale chains of 64 and 512 brokers while
``sys.setprofile`` counts Python ``call`` events.  Eight times the brokers
must cost at most ten times the calls: a stage that rescans every edge per
edge multiplies the count by about 64 instead.  Counting calls rather than
timing keeps the guard exact on a shared or loaded host.
"""

from __future__ import annotations

import sys

from repro.sim import runtime, safety
from repro.spec import compiler
from repro.spec.formatter import format_problem
from repro.workloads import resale_chain


def _calls(text: str) -> int:
    """Python call events of one spec-text → safety-verdict exchange."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        problem = compiler.load(text)
        verdict = problem.feasibility()
        result = runtime.simulate(problem, deadline=100.0)
        report = safety.evaluate_safety(problem, result)
    finally:
        sys.setprofile(None)
    assert verdict.feasible
    assert report.honest_parties_safe()
    return calls


def test_eight_times_the_chain_costs_at_most_ten_times_the_calls():
    small = _calls(format_problem(resale_chain(64, retail=1000.0)))
    large = _calls(format_problem(resale_chain(512, retail=1000.0)))
    assert large / small <= 10, f"{small} -> {large} calls ({large / small:.1f}x)"
