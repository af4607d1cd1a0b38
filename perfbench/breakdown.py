"""Per-layer self time of each exchange in an operation, read from a span log.

    python3 perfbench/breakdown.py .perfbench/spans-paper-seed0.jsonl

A traced run writes its spans to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.
The exchanges of one operation are told apart by its root spans: each root
``spec.parse`` (an exchange read from spec text) or ``net.supervisor`` (one
networked run) starts the next exchange.  Times are milliseconds at the
reference host speed (each span is scaled by its operation's factor, as in
the run's report), averaged over operations.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

EXCHANGE_STARTS = ("spec.parse", "net.supervisor")


def breakdown(path: str) -> tuple[dict[str, list[float]], int]:
    """(self ms per span name per exchange position, operations) of one span log."""
    with open(path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    child_us: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            child_us[span["parent"]] += span["end_us"] - span["start_us"]
    position: dict[int, int] = {}  # span id -> exchange position within its op
    current: dict[int, int] = defaultdict(lambda: -1)
    for span in spans:
        if span["parent"] >= 0:
            position[span["id"]] = position[span["parent"]]
            continue
        if span["name"] in EXCHANGE_STARTS:
            current[span["op"]] += 1
        position[span["id"]] = max(current[span["op"]], 0)
    totals: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        slot = position[span["id"]]
        row = totals[span["name"]]
        row.extend([0.0] * (slot + 1 - len(row)))
        self_us = span["end_us"] - span["start_us"] - child_us[span["id"]]
        row[slot] += self_us * span["factor"] / 1e3
    ops = len({span["op"] for span in spans})
    return {name: [ms / ops for ms in row] for name, row in totals.items()}, ops


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    table, ops = breakdown(argv[0])
    width = max(len(row) for row in table.values())
    print(f"self ms per operation, mean of {ops} operations; columns are exchange positions")
    print(f"{'span':<18}" + "".join(f"{f'#{k}':>12}" for k in range(width)))
    for name in sorted(table):
        row = table[name] + [0.0] * (width - len(table[name]))
        print(f"{name:<18}" + "".join(f"{ms:>12.4f}" for ms in row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
