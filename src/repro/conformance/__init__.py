"""Cross-layer conformance engine: differential + metamorphic fuzzing.

The paper's central claims are *equivalences*: the §4.2 reduction is
confluent, the §4.2.4 feasibility test agrees with the safe-execution
semantics of §5, and §6 indemnities only ever enlarge the feasible set.
The repository holds four independent realizations of those semantics —
the compiled reduction engine, the naive reference oracle, the
Petri-net coverability translation, and the discrete-event simulator with
its safety monitor.  This package systematically cross-checks them:

* :mod:`repro.conformance.oracles` — the differential oracle stack: one
  problem, every oracle, any disagreement flagged;
* :mod:`repro.conformance.metamorphic` — metamorphic relations (relabeling,
  commitment-order permutation, trust monotonicity, indemnity monotonicity,
  persona-clause toggling) asserted on problem variants;
* :mod:`repro.conformance.transforms` — the problem rebuilders both of the
  above (and the shrinker) are made of;
* :mod:`repro.conformance.shrink` — greedy delta-debugging of a discrepant
  problem down to a minimal counterexample;
* :mod:`repro.conformance.corpus` — replayable counterexample files
  (spec text + seed + oracle verdicts);
* :mod:`repro.conformance.netparity` — the socket-parity differential
  arm: one seeded fault plan through the in-process simulator *and* the
  real-socket runtime, asserting matching safety verdicts;
* :mod:`repro.conformance.engine` — the fuzz driver behind ``repro fuzz``,
  fanning cases over :func:`repro.analysis.batch.parallel_map`.
"""

from repro.conformance.corpus import (
    CorpusCase,
    load_corpus_file,
    write_corpus_file,
)
from repro.conformance.engine import (
    CaseResult,
    CaseSpec,
    FuzzConfig,
    FuzzReport,
    check_problem,
    replay_corpus_file,
    run_case,
    run_fuzz,
    shrink_counterexamples,
)
from repro.conformance.metamorphic import metamorphic_suite
from repro.conformance.netparity import (
    ParityCase,
    ParityConfig,
    ParityVerdict,
    parity_cases,
    run_parity_case,
)
from repro.conformance.oracles import (
    CrossCheckResult,
    Discrepancy,
    OracleVerdicts,
    cross_check,
    oversold_documents,
)
from repro.conformance.shrink import shrink_problem
from repro.conformance.transforms import (
    ExchangeRecord,
    assemble,
    exchange_records,
    permute_exchanges,
    problems_equivalent,
    relabel_problem,
)

__all__ = [
    "CaseResult",
    "CaseSpec",
    "CorpusCase",
    "CrossCheckResult",
    "Discrepancy",
    "ExchangeRecord",
    "FuzzConfig",
    "FuzzReport",
    "OracleVerdicts",
    "ParityCase",
    "ParityConfig",
    "ParityVerdict",
    "assemble",
    "check_problem",
    "cross_check",
    "exchange_records",
    "load_corpus_file",
    "metamorphic_suite",
    "oversold_documents",
    "parity_cases",
    "permute_exchanges",
    "problems_equivalent",
    "relabel_problem",
    "replay_corpus_file",
    "run_case",
    "run_parity_case",
    "run_fuzz",
    "shrink_counterexamples",
    "shrink_problem",
    "write_corpus_file",
]
