"""Deterministic guard: per-item Python call budgets of the hottest paths.

The spec front end and the simulator's event loop pay Python object
overhead per token and per wire attempt, and every stage pays it per value
hashed or compared.  ``sys.setprofile`` counts Python ``call`` events
(builtins and C methods are not counted) while each path runs, and the
count per item must stay within its budget:

* ``spec.parse`` per token, on a 64-broker resale chain's spec text;
* ``Simulation.run`` per wire attempt, on the same chain over the reliable
  wire;
* ``Simulation.run`` per wire attempt, over a fixed set of random problems
  under random fault plans (drops, duplicates, delays, partitions, crashes);
* one spec-text → safety-verdict exchange (the path
  ``tests/test_linear_scaling.py`` counts) per sequencing edge, on the same
  chain: a value type that hashes or compares through a Python method adds
  calls per lookup in every stage.

Each budget is the count measured when it was set plus 10%.  Counting calls
rather than timing keeps the guard exact on a shared or loaded host.
"""

from __future__ import annotations

import functools
import random
import sys
from typing import Any, Callable

from repro.sim.faults import FaultConfig, random_fault_plan
from repro.sim.runtime import Simulation
from repro.spec.formatter import format_problem
from repro.spec.lexer import tokenize
from repro.spec.parser import parse
from repro.workloads import resale_chain
from repro.workloads.random_graphs import RandomProblemConfig, random_problem
from tests.test_linear_scaling import _calls as exchange_calls

PARSE_CALLS_PER_TOKEN = 3.1  # 2.82 measured
CHAIN_CALLS_PER_ATTEMPT = 55.0  # 50.0 measured
FAULTED_CALLS_PER_ATTEMPT = 80.2  # 72.9 measured
EXCHANGE_CALLS_PER_EDGE = 151.7  # 137.9 measured

RANDOM_PROBLEMS = RandomProblemConfig(n_principals=12, n_exchanges=9, priority_probability=0.5)


def _calls(run: Callable[[], Any]) -> tuple[int, Any]:
    """Python call events while *run* runs, and its result."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls, result


def test_parse_calls_per_token():
    text = format_problem(resale_chain(64, retail=1000.0))
    tokens = len(tokenize(text))
    calls, _ = _calls(lambda: parse(text))
    assert calls / tokens <= PARSE_CALLS_PER_TOKEN, f"{calls} calls for {tokens} tokens"


def test_reliable_run_calls_per_attempt():
    sim = Simulation.from_problem(resale_chain(64, retail=1000.0), deadline=100.0)
    calls, result = _calls(sim.run)
    attempts = result.stats.attempts
    assert attempts == 247
    assert calls / attempts <= CHAIN_CALLS_PER_ATTEMPT, f"{calls} calls for {attempts} attempts"


def test_faulted_run_calls_per_attempt():
    rng = random.Random(5)
    calls = attempts = runs = 0
    for _ in range(24):
        problem = random_problem(RANDOM_PROBLEMS, rng=random.Random(rng.random()))
        plan = random_fault_plan(
            principals=[p.name for p in problem.interaction.principals],
            trusted=[t.name for t in problem.interaction.trusted_components],
            seed=rng.randrange(2**31),
            config=FaultConfig(),
        )
        if not problem.feasibility().feasible:
            continue
        sim = Simulation.from_problem(problem, deadline=200.0, fault_plan=plan)
        run_calls, result = _calls(functools.partial(sim.run, max_time=5000.0))
        calls += run_calls
        attempts += result.stats.attempts
        runs += 1
    assert runs >= 12  # enough feasible problems to average over
    assert calls / attempts <= FAULTED_CALLS_PER_ATTEMPT, (
        f"{calls} calls for {attempts} attempts over {runs} runs"
    )


def test_exchange_calls_per_sequencing_edge():
    problem = resale_chain(64, retail=1000.0)
    edges = len(problem.sequencing_graph().edges)
    assert edges == 258
    calls = exchange_calls(format_problem(problem))
    assert calls / edges <= EXCHANGE_CALLS_PER_EDGE, f"{calls} calls for {edges} edges"
