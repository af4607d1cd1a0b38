"""Deterministic guard: per-item Python call budgets of the hottest paths.

The spec front end and the simulator's event loop pay Python object
overhead per token and per wire attempt, and every stage pays it per value
hashed or compared.  ``sys.setprofile`` counts Python ``call`` events
(builtins and C methods are not counted) while each path runs, and the
count per item must stay within its budget:

* ``spec.parse`` per token of a 64-broker resale chain's spec text (the
  parser reads a statement per match and builds no token, so this counts
  the few calls a parse makes per amount, against the text's size);
* ``Simulation.run`` per wire attempt, on the same chain over the reliable
  wire;
* ``Simulation.run`` per wire attempt, over a fixed set of random problems
  under random fault plans (drops, duplicates, delays, partitions, crashes);
* one spec-text → safety-verdict exchange (the path
  ``tests/test_linear_scaling.py`` counts) per sequencing edge, on the same
  chain: a value type that hashes or compares through a Python method adds
  calls per lookup in every stage.

Three per-item costs reach no profiler, so three more counters watch the
same exchange, per sequencing edge:

* reads of enum class attributes such as ``ActionKind.NOTIFY``: the enum
  metaclass routes each one through its ``__getattr__`` slot hook, about ten
  times the cost of a module global, yet no ``call`` event is reported.  A
  counting ``__getattribute__`` set on the metaclass for the run sees them;
* ``__init__`` frames of frozen dataclasses: the generated ``__init__`` sets
  each field through the ``object.__setattr__`` slot wrapper, which the
  profiler never reports, so a record built as a frozen dataclass costs
  several times the one call counted for it.  A global ``sys.settrace``
  function sees each such frame;
* generated ``NamedTuple.__new__`` frames: calling a ``NamedTuple`` class
  runs the ``lambda`` that ``collections.namedtuple`` compiles from
  ``<string>`` before the tuple is built in C, a frame the profiler reports
  under no name of the project.  The hot sites build their records with
  ``repro.records.new_record`` (``tuple.__new__``), so the budget is zero,
  and the same global trace function sees any such frame.  The zero budget
  also holds for Example 2 from spec text to safety verdict under its
  minimal indemnity plan, the only path through the §6 plan's steps and
  escrow entries.

Each budget is the count measured when it was set plus 10%.  Counting calls
rather than timing keeps the guard exact on a shared or loaded host.

One more budget is zero: a finished run must leave no cyclic garbage.  An
object graph that reference counting cannot free waits for the cyclic
collector, which runs wherever allocation happens to trip it, so a run's
cycles cost collector passes and peak memory in later, unrelated work.
With the collector disabled, the chain exchange, Example 2 under its
indemnity plan and the faulted random problems are run and dropped, and
``gc.collect()`` must then find nothing.

The parser tokenizes a text only to report a syntax error (so that a
lexical error anywhere in it wins): on a valid spec ``tokenize`` must not
run at all, and on an invalid one a syntax error must still give way to a
lexical error later in the text.
"""

from __future__ import annotations

import functools
import gc
import glob
import os
import random
import sys
from typing import Any, Callable

import pytest

from repro.core.indemnity import minimal_indemnity_plan
from repro.core.parties import Role
from repro.errors import SpecSyntaxError
from repro.sim.faults import FaultConfig, random_fault_plan
from repro.sim.runtime import Simulation
from repro.sim.safety import evaluate_safety
from repro.spec import parser
from repro.spec.compiler import load
from repro.spec.formatter import format_problem
from repro.spec.lexer import tokenize
from repro.spec.parser import parse
from repro.workloads import example2, resale_chain
from repro.workloads.random_graphs import RandomProblemConfig, random_problem
from tests.test_linear_scaling import _calls as exchange_calls

PARSE_CALLS_PER_TOKEN = 0.102  # 0.0929 measured: two per amount
CHAIN_CALLS_PER_ATTEMPT = 38.3  # 34.78 measured
FAULTED_CALLS_PER_ATTEMPT = 57.7  # 52.50 measured
EXCHANGE_CALLS_PER_EDGE = 95.0  # 86.37 measured
ENUM_READS_PER_EDGE = 0.0086  # 0.0078 measured: 2 reads, both of the verdict
FROZEN_INITS_PER_EDGE = 1.17  # 1.066 measured
NAMEDTUPLE_NEW_FRAMES_PER_EDGE = 0  # 0 measured

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


def test_valid_specs_build_no_token_list(monkeypatch):
    def no_tokenize(source: str) -> None:
        pytest.fail("a valid spec was tokenized")

    monkeypatch.setattr(parser, "tokenize", no_tokenize)
    texts = [format_problem(resale_chain(64, retail=1000.0)), format_problem(example2())]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for path in sorted(glob.glob(os.path.join(root, "examples", "specs", "*.exchange"))):
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    for text in texts:
        parse(text)


def test_a_later_lexical_error_wins_over_a_syntax_error():
    text = "principal wizard W\ntrusted T\nexchange via T { C pays $1.234 P gives d }\n"
    with pytest.raises(SpecSyntaxError, match="two decimal places") as caught:
        parse(text)
    assert (caught.value.line, caught.value.column) == (3, 25)


def test_reliable_run_calls_per_attempt():
    sim = Simulation.from_problem(resale_chain(64, retail=1000.0), deadline=100.0)
    calls, result = _calls(sim.run)
    attempts = result.stats.attempts
    assert attempts == 247
    assert calls / attempts <= CHAIN_CALLS_PER_ATTEMPT, f"{calls} calls for {attempts} attempts"


def _faulted_simulations() -> list[Simulation]:
    """Ready runs of the feasible ones among 24 seeded random problems, each
    under its own random fault plan."""
    rng = random.Random(5)
    simulations = []
    for _ in range(24):
        problem = random_problem(RANDOM_PROBLEMS, rng=random.Random(rng.random()))
        plan = random_fault_plan(
            principals=[p.name for p in problem.interaction.principals],
            trusted=[t.name for t in problem.interaction.trusted_components],
            seed=rng.randrange(2**31),
            config=FaultConfig(),
        )
        if problem.feasibility().feasible:
            simulations.append(Simulation.from_problem(problem, deadline=200.0, fault_plan=plan))
    return simulations


def test_faulted_run_calls_per_attempt():
    calls = attempts = runs = 0
    for sim in _faulted_simulations():
        run_calls, result = _calls(functools.partial(sim.run, max_time=5000.0))
        calls += run_calls
        attempts += result.stats.attempts
        runs += 1
    assert runs >= 12  # enough feasible problems to average over
    assert calls / attempts <= FAULTED_CALLS_PER_ATTEMPT, (
        f"{calls} calls for {attempts} attempts over {runs} runs"
    )


def test_runs_leave_no_cyclic_garbage():
    chain = format_problem(resale_chain(64, retail=1000.0))
    gc.collect()
    gc.disable()
    try:
        exchange_calls(chain)
        problem = example2()
        plan = minimal_indemnity_plan(problem)
        indemnified = Simulation.from_plan(problem, plan, deadline=100.0).run()
        faulted = [sim.run(max_time=5000.0) for sim in _faulted_simulations()]
        assert len(faulted) == 17
        assert indemnified.quiescent and all(result.quiescent for result in faulted)
        del problem, plan, indemnified, faulted
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0, f"{garbage} objects freed only by the cyclic collector"


def test_exchange_calls_per_sequencing_edge():
    problem = resale_chain(64, retail=1000.0)
    edges = len(problem.sequencing_graph().edges)
    assert edges == 258
    calls = exchange_calls(format_problem(problem))
    assert calls / edges <= EXCHANGE_CALLS_PER_EDGE, f"{calls} calls for {edges} edges"


def _enum_reads(run: Callable[[], Any]) -> int:
    """Class-attribute reads on enum classes while *run* runs."""
    metaclass = type(Role)  # EnumMeta on 3.10, EnumType from 3.11
    assert "__getattribute__" not in vars(metaclass)  # the counter below must not replace one
    reads = 0

    def counting(cls: type, name: str) -> Any:
        nonlocal reads
        reads += 1
        return type.__getattribute__(cls, name)

    metaclass.__getattribute__ = counting
    try:
        run()
    finally:
        del metaclass.__getattribute__
    return reads


def _frozen_dataclass_inits(run: Callable[[], Any]) -> int:
    """Frozen-dataclass ``__init__`` frames entered while *run* runs.

    A dataclass's generated ``__init__`` is compiled from ``<string>``.  The
    global trace function sees every frame's ``call`` event; it sits beside
    any ``sys.setprofile`` counter and restores the tracer it displaced.
    """
    inits = 0

    def trace(frame, event, arg):
        nonlocal inits
        code = frame.f_code
        if code.co_name == "__init__" and code.co_filename == "<string>":
            params = getattr(type(frame.f_locals.get("self")), "__dataclass_params__", None)
            if params is not None and params.frozen:
                inits += 1

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return inits


def test_exchange_enum_reads_per_sequencing_edge():
    problem = resale_chain(64, retail=1000.0)
    edges = len(problem.sequencing_graph().edges)
    text = format_problem(problem)
    reads = _enum_reads(lambda: exchange_calls(text))
    assert reads / edges <= ENUM_READS_PER_EDGE, f"{reads} reads for {edges} edges"


def test_exchange_frozen_dataclass_inits_per_sequencing_edge():
    problem = resale_chain(64, retail=1000.0)
    edges = len(problem.sequencing_graph().edges)
    text = format_problem(problem)
    inits = _frozen_dataclass_inits(lambda: exchange_calls(text))
    assert inits / edges <= FROZEN_INITS_PER_EDGE, f"{inits} frames for {edges} edges"


def _generated_namedtuple_new_frames(run: Callable[[], Any]) -> int:
    """Generated ``NamedTuple.__new__`` frames entered while *run* runs.

    ``collections.namedtuple`` compiles each class's ``__new__`` from
    ``<string>`` as a ``lambda`` whose module globals are named
    ``namedtuple_<Class>``.  The global trace function sees every frame's
    ``call`` event and restores the tracer it displaced.
    """
    frames = 0

    def trace(frame, event, arg):
        nonlocal frames
        code = frame.f_code
        if code.co_name == "<lambda>" and code.co_filename == "<string>":
            if frame.f_globals.get("__name__", "").startswith("namedtuple_"):
                frames += 1

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return frames


def test_exchange_generated_namedtuple_new_frames_per_sequencing_edge():
    problem = resale_chain(64, retail=1000.0)
    edges = len(problem.sequencing_graph().edges)
    text = format_problem(problem)
    frames = _generated_namedtuple_new_frames(lambda: exchange_calls(text))
    assert frames / edges <= NAMEDTUPLE_NEW_FRAMES_PER_EDGE, f"{frames} frames for {edges} edges"


def _indemnified_exchange(text: str) -> None:
    """Example 2 from spec text to safety verdict, under its minimal plan."""
    problem = load(text)
    assert not problem.feasibility().feasible
    plan = minimal_indemnity_plan(problem)
    result = Simulation.from_plan(problem, plan, deadline=100.0).run()
    assert evaluate_safety(problem, result).honest_parties_safe()


def test_indemnified_exchange_generated_namedtuple_new_frames_per_sequencing_edge():
    problem = example2()
    edges = len(problem.sequencing_graph().edges)
    text = format_problem(problem)
    frames = _generated_namedtuple_new_frames(lambda: _indemnified_exchange(text))
    assert frames / edges <= NAMEDTUPLE_NEW_FRAMES_PER_EDGE, f"{frames} frames for {edges} edges"
