"""The fuzz driver behind ``repro fuzz``.

Each case is a pure function of one derived seed: the worker generates a
random exchange problem (topology, priority density, hub skew, and a sprinkle
of direct-trust edges all drawn from the case's own rng), pushes it through
the spec-language front end (format → parse → compile, so the text pipeline
is *in the loop*, not just observed), runs the differential oracle stack
(:mod:`repro.conformance.oracles`), and then the metamorphic relations
(:mod:`repro.conformance.metamorphic`).  Cases fan out over
:func:`repro.analysis.batch.parallel_map`; because every case re-derives its
world from its seed, serial and pooled runs produce identical verdicts —
:meth:`FuzzReport.digest` makes that checkable with one string compare.

Any discrepancy is shrunk to a minimal counterexample
(:mod:`repro.conformance.shrink`) and serialized to a replayable corpus file
(:mod:`repro.conformance.corpus`).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.batch import effective_cpu_count, instrumented_map
from repro.conformance.corpus import load_corpus_file, write_corpus_file
from repro.conformance.metamorphic import metamorphic_suite
from repro.conformance.oracles import (
    CrossCheckResult,
    Discrepancy,
    OracleVerdicts,
    cross_check,
)
from repro.conformance.shrink import shrink_problem
from repro.conformance.transforms import problems_equivalent
from repro.core.problem import ExchangeProblem
from repro.errors import ReproError
from repro.obs.metrics import MetricsSnapshot, snapshot_digest
from repro.spec.compiler import load
from repro.spec.formatter import format_problem
from repro.workloads.random_graphs import RandomProblemConfig, random_problem


@dataclass(frozen=True)
class FuzzConfig:
    """Shape of one fuzz run."""

    cases: int = 200
    seed: int = 0
    simulate: bool = True
    #: run the flow-sensitive lint rules over repro/net before fuzzing.
    preflight: bool = True


#: The flow rules (DESIGN.md §14) the fuzz preflight enforces statically.
FLOW_RULE_CODES = ("ASY001", "ASY002", "LEDG001", "NET001")


def flow_preflight(paths: tuple[str, ...] | None = None) -> None:
    """Statically verify the runtime's ordering disciplines before fuzzing.

    The fuzz sweep exercises the socket runtime dynamically; the flow
    rules prove the same disciplines (log-then-act, await interleaving,
    custody conservation) statically.  Running them first means a sweep
    never spends minutes hammering a runtime whose invariants are already
    visibly broken — the failure surfaces in seconds, with a line number.

    Raises :class:`~repro.errors.StaticCheckError` on any finding.
    """
    # Imported lazily: staticcheck is otherwise not a conformance dependency.
    from repro.errors import StaticCheckError
    from repro.staticcheck import error_count, lint_paths, render_human

    if paths is None:
        import repro.net as net_pkg

        paths = (os.path.dirname(os.path.abspath(net_pkg.__file__)),)
    findings = lint_paths(list(paths), select=FLOW_RULE_CODES)
    if error_count(findings):
        details = "\n".join(render_human(findings))
        raise StaticCheckError(
            "flow preflight failed — the runtime violates its ordering "
            f"disciplines; fix these before fuzzing:\n{details}"
        )


@dataclass(frozen=True)
class CaseSpec:
    """One picklable cell of the sweep (workers rebuild everything from it)."""

    index: int
    seed: int
    simulate: bool = True


@dataclass(frozen=True)
class CaseResult:
    """One case's outcome, flattened for transport off a worker.

    ``spec_text`` is populated only for discrepant cases — it is what the
    parent-side shrinker and the corpus writer reconstruct the problem from.
    """

    index: int
    seed: int
    problem_name: str
    verdicts: OracleVerdicts
    discrepancies: tuple[Discrepancy, ...]
    spec_text: str = ""

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def summary(self) -> dict[str, object]:
        return {
            "index": self.index,
            "verdicts": self.verdicts.to_dict(),
            "kinds": sorted({d.kind for d in self.discrepancies}),
        }


def generate_case_problem(spec: CaseSpec) -> ExchangeProblem:
    """Deterministically build the exchange problem for one case: 4 to 10
    principals and 2 to 7 exchanges, fewer exchanges than principals."""
    rng = random.Random(spec.seed)
    n_principals = rng.randint(4, 10)
    n_exchanges = rng.randint(2, min(7, n_principals - 1))
    config = RandomProblemConfig(
        n_principals=n_principals,
        n_exchanges=n_exchanges,
        priority_probability=rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]),
        hub_probability=rng.choice([0.0, 0.0, 0.0, 0.5, 0.9]),
        max_price=rng.choice([10, 50, 200]),
    )
    problem = random_problem(config, seed=rng.randrange(2**31))
    # Sprinkle direct trust so personas (§4.2.3) are exercised end to end.
    if rng.random() < 0.5:
        principals = list(problem.interaction.principals)
        for _ in range(rng.randint(1, 2)):
            truster, trustee = rng.sample(principals, 2)
            if not problem.trust.trusts(truster, trustee):
                problem.trust.add(truster, trustee)
    return problem


def check_problem(
    problem: ExchangeProblem,
    seed: int = 0,
    run_simulation: bool = True,
) -> CrossCheckResult:
    """The full per-problem conformance suite (front end + oracles + MRs)."""
    discrepancies: list[Discrepancy] = []

    # Spec-language round trip: format → parse → compile → compare.  On
    # success the *recompiled* problem feeds the oracles, so a formatter or
    # parser defect surfaces either here or as an oracle disagreement.
    subject = problem
    try:
        text = format_problem(problem)
        reloaded = load(text)
    except ReproError as exc:
        discrepancies.append(
            Discrepancy("spec-roundtrip", f"format/parse/compile failed: {exc}")
        )
    else:
        if not problems_equivalent(problem, reloaded):
            discrepancies.append(
                Discrepancy(
                    "spec-roundtrip",
                    "recompiled problem is not structurally equivalent "
                    "to the original",
                )
            )
        elif format_problem(reloaded) != text:
            discrepancies.append(
                Discrepancy(
                    "spec-fixed-point",
                    "formatting the recompiled problem did not reproduce "
                    "the original text byte for byte",
                )
            )
        else:
            subject = reloaded

    result = cross_check(subject, seed=seed, run_simulation=run_simulation)
    discrepancies.extend(result.discrepancies)
    discrepancies.extend(metamorphic_suite(subject, seed=seed))
    return CrossCheckResult(
        verdicts=result.verdicts, discrepancies=tuple(discrepancies)
    )


def run_case(spec: CaseSpec) -> CaseResult:
    """Worker: one fully self-contained fuzz case."""
    problem = generate_case_problem(spec)
    result = check_problem(problem, seed=spec.seed, run_simulation=spec.simulate)
    return CaseResult(
        index=spec.index,
        seed=spec.seed,
        problem_name=problem.name,
        verdicts=result.verdicts,
        discrepancies=result.discrepancies,
        spec_text="" if result.ok else format_problem(problem),
    )


def case_specs(config: FuzzConfig) -> list[CaseSpec]:
    """The derived per-case seeds for one run (stable across pool sizes)."""
    rng = random.Random(config.seed)
    return [
        CaseSpec(index=i, seed=rng.randrange(2**63), simulate=config.simulate)
        for i in range(config.cases)
    ]


@dataclass(frozen=True)
class FuzzReport:
    """Aggregated outcome of one fuzz run.

    ``metrics`` is the deterministically merged observability snapshot over
    every case (rule firings, worklist depths, net counters); its digest is
    identical between serial and pooled execution, same as the verdict
    digest.
    """

    config: FuzzConfig
    results: tuple[CaseResult, ...] = field(default_factory=tuple)
    metrics: MetricsSnapshot = ()

    @property
    def discrepant(self) -> tuple[CaseResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    @property
    def feasible_count(self) -> int:
        return sum(1 for r in self.results if r.verdicts.reduction_feasible)

    @property
    def gap_count(self) -> int:
        return sum(1 for r in self.results if r.verdicts.petri_gap)

    @property
    def simulated_count(self) -> int:
        return sum(1 for r in self.results if r.verdicts.simulated)

    def digest(self) -> str:
        """Order-sensitive hash of every per-case verdict (serial == pooled)."""
        payload = json.dumps(
            [r.summary() for r in self.results], sort_keys=True
        ).encode()
        return hashlib.sha256(payload).hexdigest()

    def metrics_digest(self) -> str:
        """Hash of the merged observability metrics (serial == pooled)."""
        return snapshot_digest(self.metrics)

    def describe(self) -> list[str]:
        lines = [
            f"conformance fuzz: {len(self.results)} case(s), seed "
            f"{self.config.seed}",
            f"  feasible: {self.feasible_count}  "
            f"petri-gap (documented §4.2.4 one-sidedness): {self.gap_count}  "
            f"simulated: {self.simulated_count}",
            f"  discrepancies: {len(self.discrepant)}",
        ]
        for result in self.discrepant:
            for discrepancy in result.discrepancies:
                lines.append(
                    f"    case {result.index} ({result.problem_name}): "
                    f"{discrepancy}"
                )
        lines.append(f"  verdict digest: {self.digest()}")
        lines.append(f"  metrics digest: {self.metrics_digest()}")
        return lines

    def to_dict(self) -> dict[str, object]:
        return {
            "cases": len(self.results),
            "seed": self.config.seed,
            "process_cpus": effective_cpu_count(),
            "feasible": self.feasible_count,
            "petri_gap": self.gap_count,
            "simulated": self.simulated_count,
            "discrepancies": [
                {
                    "index": r.index,
                    "problem": r.problem_name,
                    "seed": r.seed,
                    "kinds": [d.kind for d in r.discrepancies],
                    "details": [d.detail for d in r.discrepancies],
                }
                for r in self.discrepant
            ],
            "digest": self.digest(),
            "metrics_digest": self.metrics_digest(),
        }


def run_fuzz(config: FuzzConfig, processes: int | None = None) -> FuzzReport:
    """Run one fuzz sweep, optionally over a process pool.

    Every case runs inside a metrics-only observability scope (worker-side
    when pooled), and the merged snapshot rides back on the report — see
    :func:`repro.analysis.batch.instrumented_map` for the determinism
    argument.
    """
    if config.preflight:
        flow_preflight()
    results, metrics = instrumented_map(
        run_case, case_specs(config), processes=processes
    )
    return FuzzReport(config=config, results=tuple(results), metrics=metrics)


def _still_failing(
    seed: int, kinds: frozenset[str]
) -> Callable[[ExchangeProblem], bool]:
    """A shrink predicate: the same discrepancy kind(s) still present?

    Simulation is kept in the loop only when the original failure involved
    it — reduction-level discrepancies shrink much faster without replays.
    """
    needs_simulation = any(
        k.startswith(("simulation", "execution")) for k in kinds
    )

    def predicate(candidate: ExchangeProblem) -> bool:
        result = check_problem(
            candidate, seed=seed, run_simulation=needs_simulation
        )
        return any(d.kind in kinds for d in result.discrepancies)

    return predicate


def shrink_counterexamples(
    report: FuzzReport, corpus_dir: str
) -> list[str]:
    """Shrink every discrepant case and write it to *corpus_dir*.

    Returns the written file paths.  Shrinking re-runs the exact check kinds
    that originally failed; if a case cannot be reconstructed from its spec
    text (the front end itself broke), it is written un-shrunk.
    """
    paths: list[str] = []
    for result in report.discrepant:
        kinds = frozenset(d.kind for d in result.discrepancies)
        try:
            problem = load(result.spec_text)
            minimal = shrink_problem(problem, _still_failing(result.seed, kinds))
        except ReproError:
            minimal = None
        filename = os.path.join(
            corpus_dir, f"case-{result.index}-seed-{result.seed}.json"
        )
        if minimal is not None:
            final = check_problem(minimal, seed=result.seed)
            paths.append(
                write_corpus_file(
                    filename,
                    minimal,
                    seed=result.seed,
                    case_index=result.index,
                    kinds=tuple(sorted(kinds)),
                    details=tuple(d.detail for d in final.discrepancies),
                    verdicts=final.verdicts.to_dict(),
                    note=f"shrunk from {result.problem_name}",
                )
            )
        else:
            path = os.path.join(
                corpus_dir, f"case-{result.index}-seed-{result.seed}.spec"
            )
            os.makedirs(corpus_dir, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(result.spec_text)
            paths.append(path)
    return paths


def replay_corpus_file(path: str, run_simulation: bool = True) -> CrossCheckResult:
    """Recompile a corpus entry and run the full suite on it."""
    case = load_corpus_file(path)
    return check_problem(
        case.problem, seed=case.seed, run_simulation=run_simulation
    )
