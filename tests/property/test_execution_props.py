"""Property-based tests for execution-sequence invariants (§5, §2.4).

Whatever the reduction order, a recovered execution sequence must:

* contain exactly one deposit per commitment and one release per
  entitlement;
* never violate a possession constraint (no party sends a document it has
  not yet been handed);
* notify a principal only before that principal's own deposit;
* conserve items: everything deposited is eventually released, to the
  counterpart.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.execution import StepKind, recover_execution
from repro.core.reduction import reduce_graph
from repro.workloads import (
    RandomProblemConfig,
    example1,
    random_problem,
    resale_chain,
    simple_purchase,
)


def _sequence_for(problem, order_seed: int):
    trace = reduce_graph(
        problem.sequencing_graph(), strategy="random", rng=random.Random(order_seed)
    )
    if not trace.feasible:
        return None
    return recover_execution(trace)


FEASIBLE_FACTORIES = [
    lambda: example1(),
    lambda: simple_purchase(),
    lambda: resale_chain(2, retail=100.0),
    lambda: resale_chain(4, retail=100.0),
]


@given(factory_index=st.integers(0, 3), order_seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_no_possession_violations(factory_index, order_seed):
    problem = FEASIBLE_FACTORIES[factory_index]()
    sequence = _sequence_for(problem, order_seed)
    assert sequence is not None
    assert sequence.violated_constraints() == []


@given(factory_index=st.integers(0, 3), order_seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_one_deposit_per_commitment(factory_index, order_seed):
    problem = FEASIBLE_FACTORIES[factory_index]()
    sequence = _sequence_for(problem, order_seed)
    deposits = [s for s in sequence.steps if s.kind is StepKind.DEPOSIT]
    assert len(deposits) == len(problem.interaction.edges)
    deposited_edges = {s.commitment.edge for s in deposits}
    assert deposited_edges == set(problem.interaction.edges)


@given(factory_index=st.integers(0, 3), order_seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_items_conserved(factory_index, order_seed):
    problem = FEASIBLE_FACTORIES[factory_index]()
    sequence = _sequence_for(problem, order_seed)
    deposits = sorted(
        str(s.action.item) for s in sequence.steps if s.kind is StepKind.DEPOSIT
    )
    releases = sorted(
        str(s.action.item) for s in sequence.steps if s.kind is StepKind.RELEASE
    )
    assert deposits == releases


@given(factory_index=st.integers(0, 3), order_seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_release_goes_to_counterpart(factory_index, order_seed):
    problem = FEASIBLE_FACTORIES[factory_index]()
    interaction = problem.interaction
    sequence = _sequence_for(problem, order_seed)
    for step in sequence.steps:
        if step.kind is not StepKind.RELEASE:
            continue
        edge = step.commitment.edge
        assert step.action.recipient == edge.principal
        assert step.action.item == interaction.expects(edge)


@given(factory_index=st.integers(0, 3), order_seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_notify_precedes_target_deposit(factory_index, order_seed):
    # A notify says "your move": the target must still owe its deposit at
    # that trusted component.
    problem = FEASIBLE_FACTORIES[factory_index]()
    sequence = _sequence_for(problem, order_seed)
    for i, step in enumerate(sequence.steps):
        if step.kind is not StepKind.NOTIFY:
            continue
        agent = step.action.sender
        target = step.action.recipient
        later_deposits = [
            s
            for s in sequence.steps[i + 1 :]
            if s.kind is StepKind.DEPOSIT
            and s.action.sender == target
            and s.action.recipient == agent
        ]
        assert later_deposits, f"notify at {i} has no pending deposit from {target.name}"


@given(factory_index=st.integers(0, 3), order_seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_releases_follow_full_deposit_set(factory_index, order_seed):
    # A trusted agent releases only once every deposit it expects has landed.
    problem = FEASIBLE_FACTORIES[factory_index]()
    interaction = problem.interaction
    sequence = _sequence_for(problem, order_seed)
    seen_deposits: dict = {}
    for step in sequence.steps:
        if step.kind is StepKind.DEPOSIT:
            seen_deposits.setdefault(step.action.recipient, set()).add(step.action.sender)
        elif step.kind is StepKind.RELEASE:
            agent = step.action.sender
            expected = {e.principal for e in interaction.edges_at(agent)}
            assert seen_deposits.get(agent, set()) == expected


@given(
    problem_seed=st.integers(0, 300),
    order_seed=st.integers(0, 10_000),
    n_exchanges=st.integers(2, 6),
)
@settings(max_examples=50, deadline=None)
def test_random_feasible_problems_yield_valid_sequences(
    problem_seed, order_seed, n_exchanges
):
    config = RandomProblemConfig(
        n_principals=9, n_exchanges=n_exchanges, priority_probability=0.3
    )
    problem = random_problem(config, seed=problem_seed)
    sequence = _sequence_for(problem, order_seed)
    if sequence is None:  # infeasible instance — nothing to check
        return
    assert sequence.violated_constraints() == []
    deposits = [s for s in sequence.steps if s.kind is StepKind.DEPOSIT]
    assert len(deposits) == len(problem.interaction.edges)
