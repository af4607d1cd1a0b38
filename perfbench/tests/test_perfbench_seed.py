"""Inputs and counts are functions of the seed alone."""

import pytest

from perfbench import harness
from perfbench.workloads import WORKLOADS

# The WAL's `armed` records carry a wall-clock expiry whose printed length varies.
WALL_CLOCK_SIZED = {"net.wal.bytes"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_same_inputs_and_counts(name):
    first = harness.run_workload(name, seed=11, seconds=0.2, trace=True)
    second = harness.run_workload(name, seed=11, seconds=0.2, trace=True)
    assert first["correct"] and second["correct"]
    assert first["input_digest"] == second["input_digest"]
    counts = {
        metric: entry["value"]
        for metric, entry in first["per_layer"].items()
        if entry["unit"] in ("count", "B", "ratio") and metric not in WALL_CLOCK_SIZED
    }
    assert counts == {metric: second["per_layer"][metric]["value"] for metric in counts}


def test_a_different_seed_changes_the_chaos_inputs(tmp_path):
    chaos = WORKLOADS["chaos"]
    digest = [chaos.input_digest(chaos.make_inputs(seed, str(tmp_path))) for seed in (1, 1, 2)]
    assert digest[0] == digest[1] != digest[2]
