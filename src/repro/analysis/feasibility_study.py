"""Feasibility under varying trust pressure — a sweep the paper motivates.

The paper argues that more priority ("commit first") demands and less direct
trust make fewer exchanges feasible.  This study quantifies both effects on
random topologies:

* :func:`priority_sweep` — the feasible fraction as the probability of a
  seller demanding a committed buyer rises from 0 to 1;
* :func:`trust_sweep` — how adding random direct-trust edges to *infeasible*
  instances unlocks them (§4.2.3 at population scale).

All sweeps run through the batched feasibility pipeline
(:mod:`repro.analysis.batch`): pass ``processes=N`` to fan the verdicts over
a process pool.  Results are deterministic and identical to the serial path
— specs are generated (and selected) in index order, and workers rebuild
each problem from its seed, so parallelism changes wall-clock only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis.batch import ProblemSpec, check_feasibility_batch, parallel_map
from repro.core.flatcore import check_feasibility_flat
from repro.core.problem import ExchangeProblem
from repro.workloads.random_graphs import RandomProblemConfig, random_problem

#: How many candidate instances base discovery scans per requested sample
#: before giving up (matches the original serial loop's bound).
_DISCOVERY_FACTOR = 50
#: Candidate instances evaluated per discovery round (keeps over-scanning
#: bounded while still feeding the pool full chunks).
_DISCOVERY_BLOCK = 64


@dataclass(frozen=True)
class PrioritySweepRow:
    """One point of the priority-density sweep."""

    priority_probability: float
    samples: int
    feasible: int

    @property
    def feasible_fraction(self) -> float:
        return self.feasible / self.samples if self.samples else 0.0


def priority_sweep(
    probabilities: list[float] | None = None,
    samples: int = 40,
    n_principals: int = 8,
    n_exchanges: int = 6,
    seed: int = 0,
    processes: int | None = 1,
) -> list[PrioritySweepRow]:
    """Feasible fraction vs priority density over random problems."""
    probabilities = probabilities if probabilities is not None else [
        0.0,
        0.25,
        0.5,
        0.75,
        1.0,
    ]
    rows: list[PrioritySweepRow] = []
    for probability in probabilities:
        config = RandomProblemConfig(
            n_principals=n_principals,
            n_exchanges=n_exchanges,
            priority_probability=probability,
        )
        specs = [
            ProblemSpec(config=config, seed=seed * 10_000 + index)
            for index in range(samples)
        ]
        verdicts = check_feasibility_batch(specs, processes=processes)
        feasible = sum(1 for v in verdicts if v.feasible)
        rows.append(PrioritySweepRow(probability, samples, feasible))
    return rows


@dataclass(frozen=True)
class IncompletenessRow:
    """How conservative is the §4.2.4 test, measured against the liberal
    notify-guarded execution semantics (the Petri translation, §7.4)?

    The paper concedes the test's one-sidedness: "If the reduced graph does
    not pass the feasibility test, then no determination can be made by this
    process."  This study quantifies the region: random instances where the
    Petri semantics exhibits a constraint-honoring completion but the
    reduction cannot certify one.
    """

    samples: int
    reduction_feasible: int
    petri_coverable: int
    unsound: int  # reduction-feasible but not coverable (must be 0)

    @property
    def gap(self) -> int:
        """Instances certified by the Petri semantics only."""
        return self.petri_coverable - self.reduction_feasible

    @property
    def gap_fraction(self) -> float:
        return self.gap / self.samples if self.samples else 0.0


def _gap_worker(spec: ProblemSpec) -> tuple[bool, bool]:
    """Worker: (reduction-feasible, Petri-coverable) for one instance."""
    from repro.petri.translate import exchange_completable

    problem = spec.build()
    feasible = check_feasibility_flat(problem.sequencing_graph()).feasible
    return feasible, exchange_completable(problem).coverable


def incompleteness_gap(
    samples: int = 120,
    n_principals: int = 9,
    n_exchanges: int = 4,
    priority_probability: float = 0.7,
    seed: int = 0,
    processes: int | None = 1,
) -> IncompletenessRow:
    """Measure the reduction test's conservatism on random topologies."""
    config = RandomProblemConfig(
        n_principals=n_principals,
        n_exchanges=n_exchanges,
        priority_probability=priority_probability,
    )
    specs = [
        ProblemSpec(config=config, seed=seed * 10_000 + index)
        for index in range(samples)
    ]
    results = parallel_map(_gap_worker, specs, processes=processes)
    reduction_feasible = sum(1 for feasible, _ in results if feasible)
    petri_coverable = sum(1 for _, coverable in results if coverable)
    unsound = sum(1 for feasible, coverable in results if feasible and not coverable)
    return IncompletenessRow(
        samples=samples,
        reduction_feasible=reduction_feasible,
        petri_coverable=petri_coverable,
        unsound=unsound,
    )


@dataclass(frozen=True)
class TrustSweepRow:
    """One point of the direct-trust sweep over infeasible instances."""

    trust_edges_added: int
    samples: int
    unlocked: int

    @property
    def unlocked_fraction(self) -> float:
        return self.unlocked / self.samples if self.samples else 0.0


def _random_trust_variant(
    problem: ExchangeProblem, n_edges: int, rng: random.Random
) -> ExchangeProblem:
    variant = problem.copy()
    principals = list(variant.interaction.principals)
    for _ in range(n_edges):
        truster, trustee = rng.sample(principals, 2)
        variant.trust.add(truster, trustee)
    return variant


def _trust_edge_names(
    problem: ExchangeProblem, n_edges: int, rng: random.Random
) -> tuple[tuple[str, str], ...]:
    """The trust pairs :func:`_random_trust_variant` would add, as names.

    Used to ship variants to pool workers as picklable specs; draws from the
    same rng stream so spec-built variants match in-process ones exactly.
    """
    principals = list(problem.interaction.principals)
    pairs = []
    for _ in range(n_edges):
        truster, trustee = rng.sample(principals, 2)
        pairs.append((truster.name, trustee.name))
    return tuple(pairs)


def trust_sweep(
    edge_counts: list[int] | None = None,
    samples: int = 40,
    n_principals: int = 8,
    n_exchanges: int = 6,
    priority_probability: float = 0.8,
    seed: int = 0,
    processes: int | None = 1,
) -> list[TrustSweepRow]:
    """How many infeasible instances does random direct trust unlock?

    For each infeasible random base instance, add *k* random trust edges and
    re-test.  Monotone in *k* in expectation: trust only removes blockers.
    """
    edge_counts = edge_counts if edge_counts is not None else [0, 1, 2, 4, 8]
    config = RandomProblemConfig(
        n_principals=n_principals,
        n_exchanges=n_exchanges,
        priority_probability=priority_probability,
    )
    # Base discovery: the first `samples` infeasible instances in index
    # order, scanning in blocks so the batch driver can parallelize while
    # the selected set stays independent of `processes`.
    base_seeds: list[int] = []
    index = 0
    limit = samples * _DISCOVERY_FACTOR
    while len(base_seeds) < samples and index < limit:
        block = min(_DISCOVERY_BLOCK, limit - index)
        specs = [
            ProblemSpec(config=config, seed=seed * 10_000 + index + k)
            for k in range(block)
        ]
        verdicts = check_feasibility_batch(specs, processes=processes)
        for spec, verdict in zip(specs, verdicts):
            if not verdict.feasible and len(base_seeds) < samples:
                base_seeds.append(int(spec.seed))
        index += block

    bases = [random_problem(config, seed=s) for s in base_seeds]
    rows: list[TrustSweepRow] = []
    for count in edge_counts:
        variant_specs: list[ProblemSpec] = []
        for base_index, (base_seed, base) in enumerate(zip(base_seeds, bases)):
            rng = random.Random((seed, count, base_index).__hash__())
            variant_specs.append(
                ProblemSpec(
                    config=config,
                    seed=base_seed,
                    trust_edges=_trust_edge_names(base, count, rng),
                )
            )
        verdicts = check_feasibility_batch(variant_specs, processes=processes)
        unlocked = sum(1 for v in verdicts if v.feasible)
        rows.append(TrustSweepRow(count, len(bases), unlocked))
    return rows
