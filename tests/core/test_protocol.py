"""Unit tests for repro.core.protocol (role synthesis)."""

import os

import pytest

from repro.core.actions import ActionKind
from repro.core.indemnity import apply_plan, minimal_indemnity_plan, plan_indemnities
from repro.core.execution import recover_execution
from repro.core.parties import broker, consumer, producer, trusted
from repro.core.protocol import synthesize_protocol
from repro.errors import ProtocolError
from repro.spec.compiler import load
from repro.workloads import example1, example2, simple_purchase

SPECS = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "specs")


def _protocol(problem):
    sequence = problem.execution_sequence()
    return synthesize_protocol(problem.interaction, sequence, problem.name)


class TestRoles:
    def test_every_principal_has_a_role(self, ex1):
        proto = _protocol(ex1)
        names = {p.name for p in proto.roles}
        assert names == {"Consumer", "Broker", "Producer"}

    def test_every_trusted_has_a_spec(self, ex1):
        proto = _protocol(ex1)
        assert {t.name for t in proto.trusted_specs} == {"Trusted1", "Trusted2"}

    def test_consumer_sends_unconditionally(self, ex1):
        proto = _protocol(ex1)
        (instr,) = proto.role_of(consumer("Consumer")).instructions
        assert instr.preconditions == frozenset()
        assert instr.action.kind is ActionKind.PAY

    def test_broker_purchase_guarded_by_notify(self, ex1):
        proto = _protocol(ex1)
        role = proto.role_of(broker("Broker"))
        buy = next(i for i in role.instructions if i.action.item.is_money)
        notifies = [a for a in buy.preconditions if a.kind is ActionKind.NOTIFY]
        assert notifies, "broker must be notified before spending"
        assert all(a.recipient.name == "Broker" for a in buy.preconditions)

    def test_broker_delivery_guarded_by_document_receipt(self, ex1):
        proto = _protocol(ex1)
        role = proto.role_of(broker("Broker"))
        deliver = next(i for i in role.instructions if not i.action.item.is_money)
        received_doc = [
            a
            for a in deliver.preconditions
            if a.is_transfer and a.item is not None and not a.item.is_money
        ]
        assert received_doc, "broker cannot deliver before holding the document"

    def test_preconditions_are_locally_observable(self, ex1):
        proto = _protocol(ex1)
        for role in proto.roles.values():
            for instruction in role.instructions:
                for guard in instruction.preconditions:
                    assert guard.effective_recipient == role.party

    def test_instruction_ready_logic(self, ex1):
        proto = _protocol(ex1)
        role = proto.role_of(broker("Broker"))
        buy = role.instructions[0]
        assert not buy.ready(set())
        assert buy.ready(set(buy.preconditions))

    def test_role_of_unknown_party_raises(self, ex1):
        proto = _protocol(ex1)
        with pytest.raises(ProtocolError):
            proto.role_of(consumer("Stranger"))

    def test_spec_of_unknown_agent_raises(self, ex1):
        proto = _protocol(ex1)
        with pytest.raises(ProtocolError):
            proto.spec_of(trusted("Nobody"))


class TestTrustedSpecs:
    def test_deposits_and_entitlements_are_swapped(self, tiny):
        proto = _protocol(tiny)
        spec = proto.spec_of(trusted("Trusted"))
        c, p = consumer("Customer"), producer("Producer")
        entry_of = {e.depositor: e for e in spec.entries}
        assert entry_of[c].item.is_money and entry_of[c].recipient == p
        # The customer gets the document.
        assert not entry_of[p].item.is_money and entry_of[p].recipient == c

    def test_non_participant_queries_raise(self, tiny):
        proto = _protocol(tiny)
        spec = proto.spec_of(trusted("Trusted"))
        stranger = consumer("Stranger")
        assert all(stranger not in (e.depositor, e.recipient) for e in spec.entries)

    def test_participants_listed(self, tiny):
        proto = _protocol(tiny)
        spec = proto.spec_of(trusted("Trusted"))
        assert {e.depositor.name for e in spec.entries} == {"Customer", "Producer"}

    def test_deadline_propagates(self, tiny):
        sequence = tiny.execution_sequence()
        proto = synthesize_protocol(tiny.interaction, sequence, tiny.name, deadline=42.0)
        assert proto.spec_of(trusted("Trusted")).deadline == 42.0


class TestIndemnityProtocol:
    def test_indemnity_deposit_becomes_instruction(self):
        problem = example2()
        cover = problem.interaction.find_edge("Consumer", "Trusted1")
        plan = plan_indemnities(problem, [cover])
        sequence = apply_plan(plan, recover_execution(plan.verdict.trace))
        proto = synthesize_protocol(
            problem.interaction, sequence, problem.name, indemnities=plan.offers
        )
        b1 = proto.role_of(broker("Broker1"))
        escrow_sends = [
            i for i in b1.instructions if "indemnity" in i.action.item.label
        ]
        assert len(escrow_sends) == 1
        assert escrow_sends[0].preconditions == frozenset()
        spec = proto.spec_of(trusted("Trusted1"))
        assert len([e for e in spec.entries if e.beneficiary is not None]) == 1

    def test_describe_includes_roles_and_escrows(self, ex1):
        proto = _protocol(ex1)
        text = "\n".join(proto.describe())
        assert "role Consumer" in text
        assert "escrow Trusted1" in text


def _scan_ring():
    with open(os.path.join(SPECS, "scan_ring.exchange")) as handle:
        return load(handle.read(), validate=False).validate(allow_multiparty=True)


def _table_case(build, planned=False):
    problem = build()
    if not planned:
        return problem, _protocol(problem), ()
    plan = minimal_indemnity_plan(problem)
    assert plan.feasible and plan.offers
    sequence = apply_plan(plan, recover_execution(plan.verdict.trace))
    protocol = synthesize_protocol(
        problem.interaction, sequence, problem.name, indemnities=plan.offers
    )
    return problem, protocol, plan.offers


@pytest.mark.parametrize(
    "build, planned",
    [(simple_purchase, False), (example1, False), (_scan_ring, False), (example2, True)],
    ids=["simple-purchase", "example1", "scan-ring", "example2-planned"],
)
def test_escrow_table_matches_graph_and_plan(build, planned):
    problem, protocol, offers = _table_case(build, planned)
    graph = problem.interaction
    edges_at = graph.edges_by_party()
    entitled = graph.entitlements()
    assert set(protocol.trusted_specs) == set(graph.trusted_components)
    for agent, spec in protocol.trusted_specs.items():
        edges = edges_at[agent]
        swaps = [e for e in spec.entries if e.beneficiary is None]
        # The edges' deposits, in edge order, then the escrows.
        assert list(spec.entries[: len(swaps)]) == swaps
        assert [(e.depositor, e.item) for e in swaps] == [(d.principal, d.provides) for d in edges]
        members = [d.principal for d in edges]
        assert sorted(e.recipient for e in swaps) == sorted(members)
        assert all(e.recipient != e.depositor for e in swaps)
        assert {e.recipient: e.item for e in swaps} == {d.principal: entitled[d] for d in edges}
    escrows = [
        (agent, e)
        for agent, spec in protocol.trusted_specs.items()
        for e in spec.entries
        if e.beneficiary is not None
    ]
    assert len(escrows) == len(offers)
    for offer in offers:
        item = offer.deposit_action().item
        assert [
            (agent, e.recipient, e.beneficiary)
            for agent, e in escrows
            if (e.depositor, e.item) == (offer.offeror, item)
        ] == [(offer.via, offer.offeror, offer.beneficiary)]
