"""The benchmark's output contract: names, units, the p90 rule, failing runs."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import harness, workloads
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_names_and_keys():
    spec = harness.contract()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _metrics(ops: int) -> dict:
    latencies = [0.001 * (1 + i % 7) for i in range(ops)]
    return harness.end_to_end_metrics(latencies, 1, 1, [0.5], ops, 0)


def test_p90_is_reported_only_from_100_operations():
    below = _metrics(99)
    at = _metrics(100)
    assert "latency_p90_ms" not in below
    assert at["latency_p90_ms"][0] >= at["latency_p50_ms"][0]
    assert set(at) == {
        "exchanges_per_s", "latency_p50_ms", "latency_p90_ms",
        "failed_frac", "setup_s", "peak_rss_mb",
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_reports_every_end_to_end_metric(name):
    report = harness.run_workload(name, seed=3, seconds=0.2, trace=False)
    assert report["correct"], report["failures"]
    line = harness.result_line(report)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0
    for entry in harness.contract()["end_to_end"]:
        metric = line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] > 0
    assert report["end_to_end"]["failed_frac"]["value"] == 0


def test_a_wrong_expected_answer_fails_the_run(monkeypatch, capsys, report_dir):
    monkeypatch.setattr(workloads, "EXAMPLE2_INDEMNITY_CENTS", 1300)
    code = harness.main(["--workload", "paper", "--seconds", "0.2"])
    assert code != 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1
    with open(report_dir / "paper-seed0-trace0.json", encoding="utf-8") as handle:
        report = json.load(handle)
    assert report["end_to_end"]["failed_frac"]["value"] == 1.0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(harness.ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
