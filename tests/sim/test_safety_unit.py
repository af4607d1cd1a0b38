"""Unit tests for the safety monitor's acceptance criteria."""

from repro.core.indemnity import minimal_indemnity_plan
from repro.sim import evaluate_safety, simulate, withholder
from repro.sim.faults import FaultPlan, LinkFault
from repro.sim.runtime import Simulation
from repro.sim.safety import EdgeOutcome, SafetyReport
from repro.spec.compiler import load
from repro.workloads import example1, example2, star


class TestEdgeOutcome:
    def test_ok_when_nothing_given(self, ex1):
        edge = ex1.interaction.edges[0]
        assert EdgeOutcome(edge, gave_permanently=False, received_expected=False).ok

    def test_ok_when_received(self, ex1):
        edge = ex1.interaction.edges[0]
        assert EdgeOutcome(edge, gave_permanently=True, received_expected=True).ok

    def test_bad_when_gave_and_got_nothing(self, ex1):
        edge = ex1.interaction.edges[0]
        assert not EdgeOutcome(edge, gave_permanently=True, received_expected=False).ok


class TestReportShape:
    def test_every_party_gets_a_verdict(self):
        problem = example1()
        report = evaluate_safety(problem, simulate(problem))
        names = {v.party.name for v in report.verdicts}
        assert names == {"Consumer", "Broker", "Producer", "Trusted1", "Trusted2"}

    def test_verdict_of_lookup(self):
        problem = example1()
        report = evaluate_safety(problem, simulate(problem))
        assert report.verdict_of("Broker").money_delta_cents == 200

    def test_verdict_of_unknown_raises(self):
        problem = example1()
        report = evaluate_safety(problem, simulate(problem))
        try:
            report.verdict_of("Nobody")
        except KeyError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected KeyError")

    def test_describe_marks_ok(self):
        problem = example1()
        report = evaluate_safety(problem, simulate(problem))
        text = "\n".join(report.describe())
        assert "[OK ]" in text and "[BAD]" not in text

    def test_honest_parties_safe_excludes_adversary(self):
        problem = example1()
        result = simulate(problem, adversaries={"Broker": withholder(0)}, deadline=50.0)
        report = evaluate_safety(problem, result)
        # Even if the broker's own verdict were BAD, the honest check holds.
        assert report.honest_parties_safe(frozenset({"Broker"}))

    def test_trusted_neutrality_checked(self):
        problem = example1()
        report = evaluate_safety(problem, simulate(problem))
        for name in ("Trusted1", "Trusted2"):
            verdict = report.verdict_of(name)
            assert verdict.ok and verdict.money_delta_cents == 0

    def test_bundle_principal_flagged_in_report_type(self):
        # The producer in a star holds a bundle; honest run passes its gate.
        problem = star(3)
        report = evaluate_safety(problem, simulate(problem))
        assert isinstance(report, SafetyReport)
        assert report.verdict_of("Producer").ok


TAGGED = """
problem "tagged"
principal consumer Buyer
principal consumer Buyer2
principal producer Seller
trusted T1
trusted T2
exchange via T1 {
    Buyer pays $5.00 tag indemnity
    Seller gives d1
}
exchange via T2 {
    Buyer2 pays $7.00 tag plain
    Seller gives d2
}
"""


class TestForfeits:
    def test_payment_tagged_indemnity_is_no_forfeit(self):
        # Seller is a bundle principal, and no indemnity plan exists: the
        # $5.00 it is paid is a price, whatever its tag says.
        problem = load(TAGGED)
        report = evaluate_safety(problem, simulate(problem, deadline=100.0))
        assert report.verdict_of("Seller").forfeits_received_cents == 0

    def test_escrow_arriving_after_reversal_is_bounced(self):
        # Broker2's $12.00 escrow at Trusted3 is held up past the deadline
        # that reverses Trusted3's exchange: it comes back, not kept.
        problem = example2()
        plan = minimal_indemnity_plan(problem)
        faults = FaultPlan(
            seed=1,
            links=(LinkFault(sender="Broker2", recipient="Trusted3", partitions=((0.0, 60.0),)),),
        )
        sim = Simulation.from_plan(problem, plan, deadline=40.0, fault_plan=faults)
        report = evaluate_safety(problem, sim.run(max_time=5000.0))
        trusted3 = report.verdict_of("Trusted3")
        assert trusted3.ok and trusted3.money_delta_cents == 0
        assert report.verdict_of("Broker2").money_delta_cents == -2000
