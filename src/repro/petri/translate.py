"""Translate exchange problems into Petri nets (§7.4).

The paper notes the exchanges "can be captured in a Petri net formalism,
with the added advantage that consumable resources (such as money) are
modeled very naturally in the tokens", and leaves the construction as future
work.  This module supplies one whose coverability verdict matches the
sequencing-graph feasibility test on every worked example.

**Places**

* ``holds:P:item``   — principal *P* owns *item*;
* ``at:T:item``      — *item* is deposited with trusted component *T*;
* ``assured:P--T``   — the §2.5 notify: the counterpart deposit for the
  exchange edge ``P--T`` is present at *T*, so *P* is assured;
* ``done:T``         — the exchange at *T* completed.

**Transitions**

* ``deposit:P--T``   — *P* deposits its item, guarded by the assurances the
  sequencing formalism grants it (see below);
* ``assure:P--T``    — self-loop reading the counterpart deposit at *T* and
  minting an assurance token for *P*;
* ``complete:T``     — consumes both deposits, hands each principal the
  counterpart item, marks ``done:T``;
* ``fund:P--T``      — for a priority-marked *pay* edge (the "poor broker"):
  the outgoing payment is minted from the incoming one instead of being
  endowed, encoding insolvency.

**Deposit guards** mirror the red/black conjunction semantics of §4.1:

* a commitment whose trusted-agent role its own principal plays (persona,
  §4.2.3) is unguarded;
* at a conjunction, an edge needs an assurance for every *red sibling*
  (the sibling that must be committed first) — two red siblings therefore
  deadlock each other, reproducing the poor-broker impasse;
* at an all-black (bundle) conjunction, an edge needs assurances for *all*
  siblings — the all-or-nothing demand — except siblings split off by an
  indemnity (§6), which is how an :class:`IndemnityPlan` unlocks the net.
"""

from __future__ import annotations

from repro.core.indemnity import IndemnityPlan
from repro.core.interaction import InteractionEdge
from repro.core.items import Item, Money
from repro.core.parties import Party
from repro.core.problem import ExchangeProblem
from repro.petri.net import Marking, PetriNet, Transition


def _holds(party: Party, label: str) -> str:
    return f"holds:{party.name}:{label}"


def _at(component: Party, label: str) -> str:
    return f"at:{component.name}:{label}"


def _assured(edge: InteractionEdge) -> str:
    return f"assured:{edge.label}"


def _done(component: Party) -> str:
    return f"done:{component.name}"


def _incoming_money(
    edges: list[InteractionEdge], entitled: dict[InteractionEdge, Item]
) -> InteractionEdge | None:
    """The first of a principal's *edges* through which it is due money, if any."""
    for edge in edges:
        if isinstance(entitled[edge], Money):
            return edge
    return None


def _deposit_guards(
    edge: InteractionEdge,
    own_edges: list[InteractionEdge],
    red: frozenset[InteractionEdge],
    personas: set[InteractionEdge],
    split: frozenset[InteractionEdge],
) -> list[str]:
    """Assurance places this edge's deposit must consume.

    *own_edges* are all of the principal's edges, *red* the priority edges
    and *personas* the edges whose commitment is a persona.
    """
    if edge in personas:
        return []
    siblings = [e for e in own_edges if e != edge]
    if not siblings or edge in split:
        return []
    red_siblings = [s for s in siblings if s in red]
    if red_siblings:
        return [_assured(s) for s in red_siblings]
    if edge in red:
        return []
    # Pure bundle conjunction: all-or-nothing across the siblings.
    return [_assured(s) for s in siblings if s not in split]


def translate(
    problem: ExchangeProblem, plan: IndemnityPlan | None = None
) -> tuple[PetriNet, Marking]:
    """Build the net and the "all exchanges completed" target marking."""
    graph = problem.interaction
    sg = problem.sequencing_graph()
    split = frozenset(offer.covers for offer in plan.offers) if plan is not None else frozenset()
    red = graph.priority_edges
    edges_at = graph.edges_by_party()
    entitled = graph.entitlements()
    personas = {commitment.edge for commitment in sg.personas}

    transitions: list[Transition] = []
    initial: dict[str, int] = {}

    # A priority-marked *pay* edge whose principal also has money incoming is
    # the poor-broker pattern (§5's constraint pay_{b→p} → pay_{c→b}): the
    # outgoing payment is not endowed; a fund transition converts the
    # received payment into the outgoing one once it arrives.  Like the
    # paper's formalism, the encoding is amount-blind — the token is "a
    # payment", not a denominated value.
    funded: dict[InteractionEdge, InteractionEdge] = {}  # pay edge -> income edge
    for edge in graph.edges:
        if not isinstance(edge.provides, Money) or edge not in red:
            continue
        income = _incoming_money(edges_at[edge.principal], entitled)
        if income is not None:
            funded[edge] = income

    # Endowments: original owners hold their goods; payers hold their money
    # unless the payment is fund-from-incoming (the poor broker).
    originals = set(graph.original_holdings())
    for edge in graph.edges:
        place = _holds(edge.principal, edge.provides.label)
        if isinstance(edge.provides, Money):
            if edge not in funded:
                initial[place] = initial.get(place, 0) + 1
        elif edge in originals:
            initial[place] = 1

    for edge in graph.edges:
        guards = _deposit_guards(edge, edges_at[edge.principal], red, personas, split)
        consumes = {_holds(edge.principal, edge.provides.label): 1}
        for guard in guards:
            consumes[guard] = consumes.get(guard, 0) + 1
        transitions.append(
            Transition.make(
                f"deposit:{edge.label}",
                consumes,
                {_at(edge.trusted, edge.provides.label): 1},
            )
        )
        # assured(e) mints when every OTHER deposit of e's exchange is in —
        # the §2.5 notify condition.  Pairwise this is the single counterpart
        # deposit; multi-party exchanges read all sibling deposits.
        sibling_places = {
            _at(edge.trusted, other.provides.label): 1
            for other in edges_at[edge.trusted]
            if other != edge
        }
        transitions.append(
            Transition.make(
                f"assure:{edge.label}",
                sibling_places,
                {**sibling_places, _assured(edge): 1},
            )
        )
        if edge in funded:
            income_label = entitled[funded[edge]].label
            transitions.append(
                Transition.make(
                    f"fund:{edge.label}",
                    {_holds(edge.principal, income_label): 1},
                    {_holds(edge.principal, edge.provides.label): 1},
                )
            )

    for component in graph.trusted_components:
        edges = edges_at[component]
        consumes = {_at(component, e.provides.label): 1 for e in edges}
        produces: dict[str, int] = {_done(component): 1}
        for e in edges:
            place = _holds(e.principal, entitled[e].label)
            produces[place] = produces.get(place, 0) + 1
        transitions.append(
            Transition.make(f"complete:{component.name}", consumes, produces)
        )

    target = Marking.of({_done(t): 1 for t in graph.trusted_components})
    return PetriNet(transitions, Marking.of(initial)), target


def exchange_completable(problem: ExchangeProblem, plan: IndemnityPlan | None = None):
    """Coverability of the completion marking — the §7.4 feasibility mirror.

    Uses the guided witness search (positive answers carry a real firing
    sequence; negatives are certified by monotone saturation), which scales
    to bundles far beyond what a breadth-first interleaving search handles.
    """
    from repro.petri.reachability import guided_coverability

    net, target = translate(problem, plan)
    return guided_coverability(net, target)
