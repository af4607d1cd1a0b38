"""SEQ5 — §5: the recovered execution sequence for Example #1, verbatim.

Paper listing (ten steps): producer→T2, T2 notifies broker, consumer→T1,
T1 notifies broker, broker→T2 (red edge delayed), T2→broker, T2→producer,
broker→T1, T1→consumer, T1→broker.
"""

from conftest import PAPER_SECTION5_LISTING, paper_reduction_script

from repro.core.execution import recover_execution
from repro.core.reduction_reference import replay_reference
from repro.workloads import example1

PROBLEM = example1()


def _recover():
    sg = PROBLEM.sequencing_graph()
    trace = replay_reference(sg, paper_reduction_script(sg))
    return recover_execution(trace)


def test_bench_section5_exact_listing(benchmark):
    sequence = benchmark(_recover)
    assert sequence.describe() == PAPER_SECTION5_LISTING


def test_bench_section5_red_edge_delayed(benchmark):
    sequence = benchmark(_recover)
    # The broker's delivery to Trusted1 (its red commitment) is committed
    # third but executed in steps 8-10, after the black-edge exchange.
    deposits = [s for s in sequence.steps if s.kind.value == "deposit"]
    assert deposits[-1].action.sender.name == "Broker"
    assert deposits[-1].action.recipient.name == "Trusted1"


def test_bench_section5_sequence_is_physically_executable(benchmark):
    sequence = benchmark(_recover)
    assert sequence.violated_constraints() == []
