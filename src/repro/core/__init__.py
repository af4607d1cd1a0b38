"""The paper's formal machinery (§2–§6).

Layered bottom-up:

* parties / items / actions / states / constraints — the §2 formalism;
* trust — directed trust, personas (§4.2.3);
* interaction — interaction graphs (§3);
* sequencing — sequencing graphs (§4.1);
* reduction / feasibility — Rules #1/#2 and the §4.2.4 test;
* flatcore — the compiled integer form of a sequencing graph and the
  free-order verdict loop;
* execution — §5 execution-sequence recovery;
* indemnity — §6 escrow planning;
* protocol — per-party role synthesis for the simulator;
* problem — the :class:`ExchangeProblem` façade.
"""

from repro.core.actions import Action, ActionKind, give, notify, pay, transfer
from repro.core.constraints import Constraint, check_sequence, possession_constraints
from repro.core.execution import (
    ExecutionSequence,
    ExecutionStep,
    StepKind,
    execution_order,
    recover_execution,
)
from repro.core.feasibility import FeasibilityVerdict, Verdict, check_feasibility
from repro.core.flatcore import (
    CompiledGraph,
    FlatVerdict,
    check_feasibility_flat,
    compile_graph,
)
from repro.core.indemnity import (
    IndemnityOffer,
    IndemnityPlan,
    apply_plan,
    brute_force_minimal_plan,
    commitment_cost,
    greedy_order,
    minimal_indemnity_plan,
    offer_for,
    plan_indemnities,
    required_indemnity,
    splittable_conjunctions,
)
from repro.core.protocol import (
    PrincipalRole,
    Protocol,
    SendInstruction,
    TrustedExchangeSpec,
    synthesize_protocol,
)
from repro.core.interaction import InteractionEdge, InteractionGraph, build_interaction_graph
from repro.core.mediation import (
    HierarchyStudyRow,
    MediationPlan,
    NoCommonIntermediaryError,
    hierarchical_closure,
    hierarchy_study,
    mediated_problem,
    plan_mediation,
    usable_intermediaries,
)
from repro.core.items import Document, Item, Money, cents, document, money
from repro.core.parties import Party, Role, broker, consumer, producer, trusted
from repro.core.problem import ExchangeProblem
from repro.core.reduction import (
    Blockage,
    ReductionStep,
    ReductionTrace,
    Rule,
    reduce_graph,
)
from repro.core.sequencing import (
    CommitmentNode,
    ConjunctionNode,
    EdgeColor,
    SGEdge,
    SequencingGraph,
)
from repro.core.states import AcceptanceSpec, ExchangeState, purchase_acceptance
from repro.core.trust import TrustRelation

__all__ = [
    "Action",
    "ActionKind",
    "give",
    "notify",
    "pay",
    "transfer",
    "Constraint",
    "check_sequence",
    "possession_constraints",
    "ExecutionSequence",
    "ExecutionStep",
    "StepKind",
    "execution_order",
    "recover_execution",
    "FeasibilityVerdict",
    "Verdict",
    "check_feasibility",
    "CompiledGraph",
    "FlatVerdict",
    "check_feasibility_flat",
    "compile_graph",
    "IndemnityOffer",
    "IndemnityPlan",
    "apply_plan",
    "brute_force_minimal_plan",
    "commitment_cost",
    "greedy_order",
    "minimal_indemnity_plan",
    "offer_for",
    "plan_indemnities",
    "required_indemnity",
    "splittable_conjunctions",
    "PrincipalRole",
    "Protocol",
    "SendInstruction",
    "TrustedExchangeSpec",
    "synthesize_protocol",
    "InteractionEdge",
    "InteractionGraph",
    "build_interaction_graph",
    "Document",
    "Item",
    "Money",
    "cents",
    "document",
    "money",
    "Party",
    "HierarchyStudyRow",
    "MediationPlan",
    "NoCommonIntermediaryError",
    "hierarchical_closure",
    "hierarchy_study",
    "mediated_problem",
    "plan_mediation",
    "usable_intermediaries",
    "Role",
    "broker",
    "consumer",
    "producer",
    "trusted",
    "ExchangeProblem",
    "Blockage",
    "ReductionStep",
    "ReductionTrace",
    "Rule",
    "reduce_graph",
    "CommitmentNode",
    "ConjunctionNode",
    "EdgeColor",
    "SGEdge",
    "SequencingGraph",
    "AcceptanceSpec",
    "ExchangeState",
    "purchase_acceptance",
    "TrustRelation",
]
