"""Set up a workload, time it in a closed loop, check every answer, report.

``--trace 0`` measures the end-to-end metrics with no wrapper installed and no
``repro.obs`` tracer active.  ``--trace 1`` runs the same loop twice on the same
inputs, first untraced and then with :class:`LayerTracer` installed, and reports
the per-layer metrics of the traced half plus the traced-minus-untraced cost.

The last line of standard output is the result object the benchmark contract
asks for; the full report (every metric, host context, failures) is also
written to ``.perfbench/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from repro.obs import runtime as obs_runtime

from perfbench.hostspeed import WINDOW as HOST_WINDOW
from perfbench.hostspeed import HostSpeed
from perfbench.layertrace import LayerTracer, layer_totals, root_seconds, write_spans
from perfbench.workloads import (
    NET_CONFIG,
    STAT_FIELDS,
    WORKLOADS,
    Answer,
    Workload,
    last_delivery_time,
    wal_records_and_bytes,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
SETUP_SAMPLES = 3  # host-speed samples before and after each setup repetition
RATE_SLICES = 10
P90_MIN_OPS = 100  # ten samples beyond the 90th percentile


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Phase:
    """One timed closed loop: per-operation latencies, host factors and answers."""

    exchanges_per_op: int
    latencies: list[float] = field(default_factory=list)  # wall seconds
    factors: list[float] = field(default_factory=list)  # host-speed factor per operation
    answers: list[list[Answer] | None] = field(default_factory=list)  # None: it raised
    errors: dict[int, str] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def exchanges(self) -> int:
        return self.ops * self.exchanges_per_op

    @property
    def scaled(self) -> list[float]:
        """Latencies at the reference host speed."""
        return [wall * factor for wall, factor in zip(self.latencies, self.factors)]

    def good_answers(self) -> list[Answer]:
        return [a for answers in self.answers if answers is not None for a in answers]


def set_up(
    workload: Workload, seed: int, workdir: str, host: HostSpeed
) -> tuple[object, list[float], list[float]]:
    """Build the inputs and warm up, SETUP_REPEATS times; keep the last inputs.

    Returns the inputs and each repetition's wall and reference-speed seconds.
    """
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_SAMPLES):
            host.sample()
        before = len(host.samples)
        start = time.perf_counter()
        inputs = workload.make_inputs(seed, workdir)
        workload.warm(inputs)
        elapsed = time.perf_counter() - start
        for _ in range(SETUP_SAMPLES):
            host.sample()
        wall.append(elapsed)
        scaled.append(elapsed * host.factor(before - SETUP_SAMPLES, len(host.samples)))
    gc.collect()
    return inputs, wall, scaled


def timed_loop(
    workload: Workload,
    inputs: object,
    seconds: float,
    host: HostSpeed,
    tracer: LayerTracer | None = None,
) -> Phase:
    """Run operations back to back for *seconds*, ending on a whole pass over the inputs."""
    if obs_runtime.active() is not None:
        raise RuntimeError("a repro.obs tracer is active; the benchmark needs it off")
    pool = workload.pool_size(inputs)
    phase = Phase(workload.exchanges_per_op)
    marks = []
    clock = time.perf_counter
    stop_at = clock() + seconds
    i = 0
    while True:
        marks.append(host.mark())
        if tracer is not None:
            tracer.op = i
        began = clock()
        try:
            answers: list[Answer] | None = workload.operation(inputs, i)
        except Exception as exc:  # a raised operation is a failed one; keep measuring
            answers = None
            phase.errors[i] = f"{type(exc).__name__}: {exc}"
        ended = clock()
        phase.latencies.append(ended - began)
        phase.answers.append(answers)
        i += 1
        if ended >= stop_at and i % pool == 0:
            break
    phase.factors = [host.factor(mark - HOST_WINDOW, mark) for mark in marks]
    return phase


def check_answers(
    workload: Workload, inputs: object, phases: list[Phase]
) -> tuple[int, int, list[str]]:
    """(attempted, failed, first failure messages) over every operation.

    In-process answers are pure functions of their input, so each must also
    equal the first answer on the same input -- across the untraced and the
    traced phase alike.
    """
    pool = workload.pool_size(inputs)
    first: dict[int, list[Answer]] = {}
    attempted = failed = 0
    messages: list[str] = []
    for phase in phases:
        for i, answers in enumerate(phase.answers):
            attempted += 1
            if answers is None:
                problem: str | None = f"raised {phase.errors[i]}"
            else:
                problem = workload.check(inputs, i, answers)
                seen = first.setdefault(i % pool, answers)
                if problem is None and not workload.networked and not all(
                    a.same_outcome(b) for a, b in zip(answers, seen)
                ):
                    problem = "answer differs from an earlier operation on the same input"
            if problem is not None:
                failed += 1
                if len(messages) < 5:
                    messages.append(f"operation {i}: {problem}")
    return attempted, failed, messages


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def slice_rates(latencies: list[float], exchanges_per_op: int, pool: int) -> list[float]:
    """Exchanges per second of operation time in consecutive slices of the loop.

    A slice is one whole pass over a pooled workload's inputs, so every slice
    does the same work; otherwise the loop is cut into RATE_SLICES slices.
    """
    ops = len(latencies)
    if pool > 1:
        bounds = list(range(0, ops + 1, pool))
    else:
        count = min(RATE_SLICES, ops)
        bounds = [round(k * ops / count) for k in range(count + 1)]
    return [
        (stop - first) * exchanges_per_op / sum(latencies[first:stop])
        for first, stop in zip(bounds, bounds[1:])
    ]


def end_to_end_metrics(
    latencies: list[float],
    exchanges_per_op: int,
    pool: int,
    setup_times: list[float],
    attempted: int,
    failed: int,
) -> dict[str, tuple[float, str]]:
    metrics = {
        "exchanges_per_s": (
            statistics.median(slice_rates(latencies, exchanges_per_op, pool)),
            "1/s",
        ),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
    }
    if len(latencies) >= P90_MIN_OPS:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        metrics["latency_p90_ms"] = (p90 * 1e3, "ms")
    metrics["failed_frac"] = (failed / attempted, "ratio")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def layer_metrics(
    workload: Workload, untraced: Phase, traced: Phase, tracer: LayerTracer
) -> dict[str, tuple[float, str]]:
    """Per-exchange layer metrics of the traced phase.

    Self times exclude child spans and are scaled to the reference host speed
    like the end-to-end latencies; counts are per exchange.
    """
    spans = tracer.spans
    totals = layer_totals(spans, traced.factors)
    n = traced.exchanges

    def per_exchange_ms(name: str) -> float:
        entry = totals.get(name)
        return entry.self_s * 1e3 / n if entry else 0.0

    def per_call_us(name: str) -> float:
        entry = totals.get(name)
        return entry.self_s * 1e6 / entry.calls if entry else 0.0

    # Replays of an empty or missing WAL (every fresh node) recover nothing;
    # the per-record cost is taken over the replays that returned records.
    replays = [s for s in spans if s[0] == "net.wal.replay" and s[5]]
    replayed = sum(s[5] for s in replays)
    replay_s = sum((s[2] - s[1]) * traced.factors[s[4]] for s in replays)
    replay_us = replay_s * 1e6 / replayed if replayed else 0.0

    def calls(name: str) -> float:
        entry = totals.get(name)
        return entry.calls / n if entry else 0.0

    def counted(name: str) -> float:
        entry = totals.get(name)
        return entry.count / n if entry else 0.0

    m = {
        "spec.parse.ms": per_exchange_ms("spec.parse"),
        "spec.compile.ms": per_exchange_ms("spec.compile"),
        "spec.bytes": counted("spec.parse"),
        "core.sequencing.ms": per_exchange_ms("core.sequencing"),
        "core.sequencing.calls": calls("core.sequencing"),
        "core.sequencing.edges": counted("core.sequencing"),
        "core.reduction.ms": per_exchange_ms("core.reduction"),
        "core.reduction.calls": calls("core.reduction"),
        "core.reduction.steps": counted("core.reduction"),
        "core.execution.ms": per_exchange_ms("core.execution"),
        "core.protocol.ms": per_exchange_ms("core.protocol"),
        "core.indemnity.ms": per_exchange_ms("core.indemnity"),
        "sim.setup.ms": per_exchange_ms("sim.setup"),
        "sim.run.ms": per_exchange_ms("sim.run"),
        "sim.safety.ms": per_exchange_ms("sim.safety"),
        "net.wire.frames": calls("net.wire.encode"),
        "net.wire.encode.us": per_call_us("net.wire.encode"),
        "net.wire.decode.us": per_call_us("net.wire.decode"),
        "net.wal.records": calls("net.wal.append"),
        "net.wal.append.us": per_call_us("net.wal.append"),
        "net.wal.replay.us": replay_us,
    }

    answers = traced.good_answers()
    delivered, attempts, retransmits, dropped, deferred, abandoned = (
        sum(a.stats[k] for a in answers) for k in range(len(STAT_FIELDS))
    )
    sim = not workload.networked
    m["sim.attempts"] = attempts / n if sim else 0.0
    m["sim.retransmits"] = retransmits / n if sim else 0.0
    m["sim.dropped"] = dropped / n if sim else 0.0
    m["sim.deferred"] = deferred / n if sim else 0.0
    m["sim.abandoned"] = abandoned / n if sim else 0.0
    m["sim.delivered_per_attempt"] = delivered / attempts if sim and attempts else 0.0
    m["net.deliveries"] = 0.0 if sim else delivered / n
    m["net.attempts"] = 0.0 if sim else attempts / n
    m["net.retransmits"] = 0.0 if sim else retransmits / n
    m["net.deferred"] = 0.0 if sim else deferred / n
    m["net.restarts"] = 0.0 if sim else sum(a.restarts for a in answers) / n

    # Supervisor split: call -> epoch -> last delivery -> return.  A run's
    # epoch is the start of its net.epoch marker span.
    handshake = active = tail = 0.0
    wal_bytes = 0
    if workload.networked:
        good_ops = {i for i, a in enumerate(traced.answers) if a is not None}
        epoch_of = {s[3]: s[1] for s in spans if s[0] == "net.epoch"}
        runs = [
            (index, s)
            for index, s in enumerate(spans)
            if s[0] == "net.supervisor" and s[4] in good_ops
        ]
        for (index, span), answer in zip(runs, answers):
            epoch = epoch_of[index]
            active_s = last_delivery_time(answer.run_dir) * NET_CONFIG.time_scale
            handshake += epoch - span[1]
            active += active_s
            tail += span[2] - epoch - active_s
            wal_bytes += wal_records_and_bytes(answer.run_dir)[1]
    m["net.handshake.ms"] = handshake * 1e3 / n
    m["net.active.ms"] = active * 1e3 / n
    m["net.tail.ms"] = tail * 1e3 / n
    m["net.wal.bytes"] = wal_bytes / n

    untraced_s = sum(untraced.scaled) / untraced.exchanges
    traced_s = sum(traced.scaled) / traced.exchanges
    m["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    outside = sum(traced.scaled) - root_seconds(spans, traced.factors)
    m["trace.unattributed.ms"] = outside * 1e3 / n
    units = {entry["name"]: entry["unit"] for entry in contract()["per_layer"]}
    return {name: (value, units[name]) for name, value in m.items()}


def host_context() -> dict:
    return {
        "process_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_implementation() + " " + platform.python_version(),
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process and return its full report."""
    workload = WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        host = HostSpeed(enabled=not workload.networked)
        inputs, setup_wall, setup_scaled = set_up(workload, seed, workdir, host)
        if not trace:
            phases = [timed_loop(workload, inputs, seconds, host)]
        else:
            tracer = LayerTracer()
            untraced = timed_loop(workload, inputs, seconds / 2, host)
            with tracer.installed():
                traced = timed_loop(workload, inputs, seconds / 2, host, tracer)
            phases = [untraced, traced]
        attempted, failed, messages = check_answers(workload, inputs, phases)
        pool = workload.pool_size(inputs)
        measured = phases[0]

        def metrics(latencies: list[float], setup: list[float]) -> dict:
            return {
                metric: {"value": value, "unit": unit}
                for metric, (value, unit) in end_to_end_metrics(
                    latencies, workload.exchanges_per_op, pool, setup, attempted, failed
                ).items()
            }

        report = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "input_digest": workload.input_digest(inputs),
            "host": host_context(),
            "host_factor_median": statistics.median(measured.factors),
            "ops": [phase.ops for phase in phases],
            "exchanges_per_op": workload.exchanges_per_op,
            "attempted": attempted,
            "failed": failed,
            "failures": messages,
            "correct": failed == 0,
            "end_to_end": metrics(measured.scaled, setup_scaled),
            "end_to_end_wall": metrics(measured.latencies, setup_wall),
        }
        if trace:
            report["per_layer"] = {
                metric: {"value": value, "unit": unit}
                for metric, (value, unit) in layer_metrics(
                    workload, untraced, traced, tracer
                ).items()
            }
            spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
            write_spans(spans_path, tracer.spans, traced.factors, origin=tracer.spans[0][1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(report_path(name, seed, trace), "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2, sort_keys=True)
    return report


def report_path(name: str, seed: int, trace: bool) -> str:
    return os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json")


def result_line(report: dict) -> dict:
    """The contract's last line: every end_to_end (or per_layer) metric it names."""
    section = "per_layer" if report["trace"] else "end_to_end"
    names = [entry["name"] for entry in contract()[section]]
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: report[section][name] for name in names},
    }


def describe(report: dict) -> list[str]:
    ops = " + ".join(str(n) for n in report["ops"])
    lines = [
        f"{report['workload']}: seed {report['seed']}, {ops} operations of "
        f"{report['exchanges_per_op']} exchange(s), {report['failed']} failed"
    ]
    lines.extend(f"  ! {message}" for message in report["failures"])
    lines.append(f"  host speed factor (median)  {report['host_factor_median']:.4f}")
    for section in ("end_to_end", "per_layer"):
        for metric, entry in report.get(section, {}).items():
            lines.append(f"  {metric:<26} {entry['value']:>12.4f} {entry['unit']}")
    return lines


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload, each in its own process, and tabulate the results."""
    script = os.path.join(ROOT, "perfbench", "run.py")
    status = 0
    rows = []
    for name in WORKLOADS:
        path = report_path(name, seed, trace)
        if os.path.exists(path):
            os.remove(path)  # never tabulate a stale report
        argv = [sys.executable, script, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("\n".join(child.stdout.splitlines()[:-1]) + "\n")
        status = status or child.returncode
        report = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)
        rows.append((name, report))
    metrics = ["exchanges_per_s", "latency_p50_ms", "latency_p90_ms",
               "failed_frac", "setup_s", "peak_rss_mb"]
    print()
    print(f"{'workload':<9}" + "".join(f"{m:>17}" for m in metrics))
    for name, report in rows:
        cells = []
        for metric in metrics:
            entry = report["end_to_end"].get(metric) if report else None
            cells.append(f"{entry['value']:.4g} {entry['unit']}" if entry else "-")
        print(f"{name:<9}" + "".join(f"{cell:>17}" for cell in cells))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload, or (without --workload) all of them.",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(describe(report)))
    print(json.dumps(result_line(report)))
    return 0 if report["correct"] else 1
