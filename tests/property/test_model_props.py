"""Property-based tests for the §2 formalism (actions, states, money) and
the value types that model it (parties, items, interaction edges, §4.1
sequencing-graph nodes)."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import transfer
from repro.core.interaction import InteractionEdge
from repro.core.items import Document, Money, cents, document, money
from repro.core.parties import Party, Role, trusted
from repro.core.sequencing import CommitmentNode, ConjunctionNode, EdgeColor, SGEdge
from repro.core.states import ExchangeState
from repro.errors import ModelError

names = st.from_regex(r"[A-Za-z][A-Za-z0-9_\-]{0,10}", fullmatch=True)
principal_roles = st.sampled_from([Role.CONSUMER, Role.BROKER, Role.PRODUCER])


@st.composite
def distinct_parties(draw):
    a = draw(names)
    b = draw(names.filter(lambda n: n != a))
    return Party(a, draw(principal_roles)), Party(b, draw(principal_roles))


@st.composite
def transfers(draw):
    sender, recipient = draw(distinct_parties())
    if draw(st.booleans()):
        item = document(draw(names))
    else:
        item = cents(draw(st.integers(0, 10**6)), tag=draw(names))
    return transfer(sender, recipient, item)


@given(action=transfers())
@settings(max_examples=100, deadline=None)
def test_inverse_is_involution(action):
    assert action.inverse().inverse() == action


@given(action=transfers())
@settings(max_examples=100, deadline=None)
def test_inverse_compensates_original(action):
    assert action.inverse().compensates(action)
    assert action.compensates(action.inverse())


@given(action=transfers())
@settings(max_examples=100, deadline=None)
def test_inverse_swaps_effective_direction(action):
    inv = action.inverse()
    assert inv.effective_sender == action.effective_recipient
    assert inv.effective_recipient == action.effective_sender


@given(action=transfers())
@settings(max_examples=100, deadline=None)
def test_pay_iff_money(action):
    from repro.core.actions import ActionKind

    assert (action.kind is ActionKind.PAY) == action.item.is_money


@given(actions=st.lists(transfers(), max_size=8))
@settings(max_examples=100, deadline=None)
def test_state_is_order_insensitive(actions):
    forward = ExchangeState.of(actions)
    backward = ExchangeState.of(reversed(actions))
    assert forward == backward


@given(actions=st.lists(transfers(), max_size=6))
@settings(max_examples=100, deadline=None)
def test_compensated_pairs_net_out(actions):
    state = ExchangeState.of(list(actions) + [a.inverse() for a in actions])
    assert state.net_uncompensated() == frozenset()


@given(actions=st.lists(transfers(), max_size=6, unique=True))
@settings(max_examples=100, deadline=None)
def test_uncompensated_equals_forward_set(actions):
    state = ExchangeState.of(actions)
    forwards = frozenset(a for a in actions if not a.inverted)
    assert state.net_uncompensated() == forwards


@given(amount=st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_cents_roundtrip(amount):
    assert cents(amount).cents == amount


@given(dollars=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_whole_dollar_conversion_exact(dollars):
    assert money(dollars).cents == dollars * 100


@given(actions=st.lists(transfers(), max_size=8))
@settings(max_examples=100, deadline=None)
def test_actions_by_partitions_state(actions):
    state = ExchangeState.of(actions)
    union = set()
    parties = {a.effective_sender for a in state.actions}
    for party in parties:
        union |= state.actions_by(party)
    assert union == set(state.actions)


# ----------------------------------------------------------------------------
# Value types: parties, items, interaction edges and sequencing-graph nodes
# are tuples of their fields.  Each strategy below draws a *factory*, a
# zero-argument callable that builds a fresh value (nested values included)
# from the drawn fields, so a test can build one value twice, separately.

all_roles = st.sampled_from(list(Role))


@st.composite
def party_factories(draw, roles=all_roles):
    name, role = draw(names), draw(roles)
    return lambda: Party(name, role)


@st.composite
def document_factories(draw):
    label = draw(names)
    return lambda: Document(label)


@st.composite
def money_factories(draw):
    label, amount = draw(names), draw(st.integers(0, 10**6))
    return lambda: Money(label, amount)


@st.composite
def edge_factories(draw):
    principal = draw(party_factories(principal_roles))
    trusted_side = draw(party_factories(st.just(Role.TRUSTED)))
    provides = draw(st.one_of(document_factories(), money_factories()))
    tag = draw(st.sampled_from(["", "b"]))
    return lambda: InteractionEdge(principal(), trusted_side(), provides(), tag)


@st.composite
def commitment_factories(draw):
    edge = draw(edge_factories())
    return lambda: CommitmentNode(edge())


@st.composite
def conjunction_factories(draw):
    agent = draw(party_factories())
    return lambda: ConjunctionNode(agent())


@st.composite
def sg_edge_factories(draw):
    commitment, conjunction = draw(commitment_factories()), draw(conjunction_factories())
    color = draw(st.sampled_from(list(EdgeColor)))
    return lambda: SGEdge(commitment(), conjunction(), color)


# Each value type's fields, in order: the old ``order=True`` dataclasses
# compared these tuples, and the tuple types must order the same way.
FIELDS = {
    Party: ("name", "role"),
    Document: ("label",),
    Money: ("label", "cents"),
    InteractionEdge: ("principal", "trusted", "provides", "tag"),
    CommitmentNode: ("edge",),
    ConjunctionNode: ("agent",),
    SGEdge: ("commitment", "conjunction", "color"),
}
SAME_TYPE_FACTORIES = (
    party_factories(),
    document_factories(),
    money_factories(),
    edge_factories(),
    commitment_factories(),
    conjunction_factories(),
    sg_edge_factories(),
)
value_factories = st.one_of(*SAME_TYPE_FACTORIES)


@given(make=value_factories)
@settings(max_examples=100, deadline=None)
def test_values_built_separately_are_equal_and_hash_equal(make):
    first, second = make(), make()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)


@given(make=value_factories)
@settings(max_examples=100, deadline=None)
def test_pickle_and_copy_return_an_equal_value_of_the_same_class(make):
    value = make()
    copies = [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for other in copies:
        assert type(other) is type(value)
        assert other == value
        assert hash(other) == hash(value)


def _sorted_or_type_error(values, key=None):
    try:
        return sorted(values, key=key)
    except TypeError:
        return TypeError


@given(makers=st.one_of(*(st.lists(f, max_size=8) for f in SAME_TYPE_FACTORIES)))
@settings(max_examples=100, deadline=None)
def test_sorting_matches_sorting_by_field_tuples(makers):
    values = [make() for make in makers]

    def field_tuple(value):
        return tuple(getattr(value, name) for name in FIELDS[type(value)])

    # Roles and edge colors do not order, so a tie on every field before one
    # raises TypeError in both sorts.
    assert _sorted_or_type_error(values) == _sorted_or_type_error(values, key=field_tuple)


def test_a_tie_on_name_with_different_roles_does_not_order():
    with pytest.raises(TypeError):
        sorted([Party("x", Role.CONSUMER), Party("x", Role.BROKER)])


@given(label=names, amount=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_a_document_never_equals_money(label, amount):
    assert Document(label) != Money(label, 0)
    assert Document(label) != Money(label, amount)


@given(edge=edge_factories(), agent=party_factories())
@settings(max_examples=100, deadline=None)
def test_no_commitment_equals_a_conjunction(edge, agent):
    built = edge()
    commitment = CommitmentNode(built)
    for party in (agent(), built.principal, built.trusted):
        assert commitment != ConjunctionNode(party)


INVALID_VALUES = {
    "party name starts with a digit": lambda: Party("1ustomer", Role.CONSUMER),
    "empty party name": lambda: Party("", Role.TRUSTED),
    "party name with a space": lambda: Party("a b", Role.BROKER),
    "empty document label": lambda: Document(""),
    "empty money label": lambda: Money("", 100),
    "negative money": lambda: Money("$1.00", -100),
    "trusted component as principal": lambda: InteractionEdge(
        trusted("T1"), trusted("T2"), Document("d")
    ),
    "principal as trusted component": lambda: InteractionEdge(
        Party("C", Role.CONSUMER), Party("P", Role.PRODUCER), Document("d")
    ),
}


@pytest.mark.parametrize("build", INVALID_VALUES.values(), ids=INVALID_VALUES.keys())
def test_constructor_checks_raise_model_error(build):
    with pytest.raises(ModelError):
        build()


PICKLE_PROTOCOLS_WITH_NEWOBJ = range(2, pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize("protocol", PICKLE_PROTOCOLS_WITH_NEWOBJ)
def test_loading_a_payload_edited_to_an_invalid_name_raises(protocol):
    customer = Party("Customer", Role.CONSUMER)
    edge = InteractionEdge(customer, trusted("Escrow"), money(10))
    for value in (customer, edge, CommitmentNode(edge), ConjunctionNode(customer)):
        payload = pickle.dumps(value, protocol)
        assert b"Customer" in payload
        with pytest.raises(ModelError):
            pickle.loads(payload.replace(b"Customer", b"1ustomer"))


@pytest.mark.parametrize("protocol", PICKLE_PROTOCOLS_WITH_NEWOBJ)
@pytest.mark.parametrize(
    "fields",
    [
        (Document, ("",)),
        (Money, ("$1.00", -100)),
        (InteractionEdge, (trusted("T1"), trusted("T2"), Document("d"), "")),
    ],
    ids=["empty document label", "negative money", "trusted component as principal"],
)
def test_loading_an_invalid_payload_reruns_the_constructor_checks(protocol, fields):
    cls, values = fields
    forged = tuple.__new__(cls, values)  # skips the checks, as a tampered payload would
    with pytest.raises(ModelError):
        pickle.loads(pickle.dumps(forged, protocol))
