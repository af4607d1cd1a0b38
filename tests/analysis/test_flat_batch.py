"""The free-order verdict loop in the batch pipeline + the single-core pool warning.

``check_feasibility_batch``, the chaos gate and the indemnity planner took an
``engine=`` choice between equivalent reductions; the tests named after that
choice now check that the keyword is rejected and that the one remaining
path agrees with the reference oracle.
"""

import warnings

import pytest

from repro.analysis import batch
from repro.analysis.batch import (
    batch_specs,
    check_feasibility_batch,
    effective_cpu_count,
    parallel_map,
)
from repro.analysis.chaos_study import ChaosConfig, ChaosReport, chaos_study
from repro.conformance.engine import FuzzConfig, run_fuzz
from repro.core.indemnity import minimal_indemnity_plan
from repro.core.reduction_reference import reference_reduce
from repro.workloads import RandomProblemConfig, figure7


def _identity(x):
    return x


SPECS = batch_specs(
    60,
    RandomProblemConfig(n_principals=8, n_exchanges=5, priority_probability=0.5),
    seed=11,
)


def _reference_counts(spec, persona=True):
    trace = reference_reduce(
        spec.build().sequencing_graph(), enable_persona_clause=persona
    )
    return trace.feasible, len(trace.steps), len(trace.remaining), len(trace.blockages)


def _counts(verdict):
    return verdict.feasible, verdict.steps, verdict.remaining, verdict.blockages


class TestFlatEngineBatch:
    def test_flat_matches_indexed_pooled(self):
        serial = check_feasibility_batch(SPECS)
        pooled = check_feasibility_batch(SPECS, processes=2)
        assert pooled == serial
        assert {v.feasible for v in serial} == {True, False}

    def test_flat_persona_ablation(self):
        verdicts = check_feasibility_batch(SPECS[:20], enable_persona_clause=False)
        assert [_counts(v) for v in verdicts] == [
            _reference_counts(spec, persona=False) for spec in SPECS[:20]
        ]

    def test_flat_chunksize_is_block_size(self):
        # However many problems one pool task carries, the verdicts match.
        baseline = check_feasibility_batch(SPECS[:30])
        for block in (1, 7, 64):
            assert (
                check_feasibility_batch(SPECS[:30], processes=2, chunksize=block)
                == baseline
            )

    def test_unknown_engine_raises(self):
        with pytest.raises(TypeError, match="engine"):
            check_feasibility_batch(SPECS[:2], engine="bogus")

    def test_indemnity_unknown_engine_raises(self):
        with pytest.raises(TypeError, match="engine"):
            minimal_indemnity_plan(figure7(), engine="warp")

    def test_indemnity_flat_engine_matches(self):
        # Every re-test of the planner runs the compiled reduction; its final
        # verdict trace must be the oracle's on the same split graph.
        plan = minimal_indemnity_plan(figure7())
        trace = plan.verdict.trace
        reference = reference_reduce(trace.graph)
        assert plan.feasible and reference.feasible
        assert [s.edge for s in trace.steps] == [s.edge for s in reference.steps]


class TestSingleCoreWarning:
    ITEMS = list(range(32))

    def test_pool_on_single_core_host_warns(self, monkeypatch):
        monkeypatch.setattr(batch, "effective_cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning, match="single CPU"):
            result = parallel_map(_identity, self.ITEMS, processes=2)
        assert result == self.ITEMS  # honored, just warned about

    def test_serial_path_never_warns(self, monkeypatch):
        monkeypatch.setattr(batch, "effective_cpu_count", lambda: 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parallel_map(_identity, self.ITEMS, processes=1) == self.ITEMS
            # processes=None on a single-core host resolves to 1 worker:
            # serial, silent.
            assert parallel_map(_identity, self.ITEMS) == self.ITEMS

    def test_multi_core_host_never_warns(self, monkeypatch):
        monkeypatch.setattr(batch, "effective_cpu_count", lambda: 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parallel_map(_identity, self.ITEMS, processes=2) == self.ITEMS

    def test_effective_cpu_count_is_positive(self):
        assert effective_cpu_count() >= 1


class TestCpuCountInArtifacts:
    def test_chaos_report_records_cpus(self):
        report = chaos_study(ChaosConfig(scenarios=10, seed=3))
        data = report.to_dict()
        assert "engine" not in data
        assert data["process_cpus"] == effective_cpu_count()

    def test_chaos_unknown_engine_raises(self):
        with pytest.raises(TypeError, match="engine"):
            ChaosConfig(scenarios=2, engine="bogus")

    def test_fuzz_report_records_cpus_and_flat_arm(self):
        # The flat arm always runs: every case records its verdict (and the
        # run digest covers it); the report keeps no on/off toggle.
        report = run_fuzz(FuzzConfig(cases=4, simulate=False), processes=1)
        for result in report.results:
            assert result.summary()["verdicts"]["flat"] is result.verdicts.flat_feasible
        data = report.to_dict()
        assert data["process_cpus"] == effective_cpu_count()
        assert sorted(data) == [
            "cases",
            "digest",
            "discrepancies",
            "feasible",
            "metrics_digest",
            "petri_gap",
            "process_cpus",
            "seed",
            "simulated",
        ]


def test_chaos_report_roundtrips(tmp_path):
    report = chaos_study(ChaosConfig(scenarios=6, seed=9))
    assert isinstance(report, ChaosReport)
    keys = set(report.to_dict())
    assert {"process_cpus", "verdicts", "violation_count"} <= keys
