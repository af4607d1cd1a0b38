"""Indemnity-capital studies (§6 / Figure 7, generalized).

Figure 7 shows the ordering effect for one 3-document bundle; these sweeps
generalize it: how the total escrow scales with bundle size, how far the
worst ordering overshoots the greedy optimum, and the full per-permutation
cost table for small bundles (the raw data behind the figure).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.batch import parallel_map
from repro.core.indemnity import (
    commitment_cost,
    greedy_order,
    minimal_indemnity_plan,
    plan_indemnities,
)
from repro.core.parties import consumer
from repro.workloads.bundles import broker_bundle

CONSUMER = consumer("Consumer")


@dataclass(frozen=True)
class OrderingCost:
    """Escrow total for one indemnification order."""

    order: tuple[str, ...]  # trusted-intermediary names, in offer order
    total_cents: int
    offers: int


def _ordering_cost_worker(spec: tuple[tuple[float, ...], tuple[int, ...]]) -> OrderingCost:
    """Worker: rebuild the bundle and price one permutation of its members."""
    prices, permutation_indices = spec
    problem = broker_bundle(len(prices), prices)
    members = [e for e in problem.interaction.edges if e.principal == CONSUMER]
    permutation = [members[i] for i in permutation_indices]
    plan = plan_indemnities(problem, permutation)
    return OrderingCost(
        order=tuple(e.trusted.name for e in permutation),
        total_cents=plan.total_cents,
        offers=len(plan.offers),
    )


def ordering_costs(prices: Sequence[float], processes: int | None = 1) -> list[OrderingCost]:
    """Escrow totals for every indemnification order of a bundle.

    For Figure 7's prices this contains both of the paper's orderings —
    $90 (B1 first) and $70 (B3 first) — among the six permutations.  With
    ``processes=N`` the k! permutations fan out over the batch driver's
    process pool (each worker rebuilds the bundle from its prices).
    """
    prices = tuple(prices)
    specs = [
        (prices, permutation)
        for permutation in itertools.permutations(range(len(prices)))
    ]
    return parallel_map(_ordering_cost_worker, specs, processes=processes)


@dataclass(frozen=True)
class BundleScalingRow:
    """Escrow requirements for a k-document bundle."""

    k: int
    total_price_cents: int
    greedy_cents: int
    worst_cents: int

    @property
    def overshoot(self) -> float:
        """Worst ordering relative to the greedy optimum."""
        # Dimensionless ratio of two cents amounts, not ledger arithmetic.
        if not self.greedy_cents:
            return 1.0
        return self.worst_cents / self.greedy_cents  # repro: noqa[MONEY001]


def _bundle_scaling_worker(spec: tuple[int, float]) -> BundleScalingRow:
    """Worker: greedy vs worst escrow for one bundle size."""
    k, base_price = spec
    prices = tuple(base_price * (i + 1) for i in range(k))
    problem = broker_bundle(k, prices)
    greedy = minimal_indemnity_plan(problem)
    members = greedy_order(problem, CONSUMER)
    ascending = list(reversed(members))  # cheapest first = worst
    worst = plan_indemnities(problem, ascending)
    return BundleScalingRow(
        k=k,
        total_price_cents=sum(commitment_cost(e) for e in members),
        greedy_cents=greedy.total_cents,
        worst_cents=worst.total_cents,
    )


def bundle_scaling(
    max_k: int = 5,
    base_price: float = 10.0,
    processes: int | None = 1,
) -> list[BundleScalingRow]:
    """Greedy vs worst-order escrow as bundle size grows.

    Prices are ``base_price · (1..k)``.  Greedy = (k−2)·S + c_min; worst =
    ascending-cost order = (k−2)·S + c_max (the most expensive piece left
    uncovered last is never optimal).
    """
    specs = [(k, base_price) for k in range(2, max_k + 1)]
    return parallel_map(_bundle_scaling_worker, specs, processes=processes)


def figure7_table() -> list[str]:
    """The Figure 7 narrative as text rows (used by the bench and CLI)."""
    rows = ordering_costs((10.0, 20.0, 30.0))
    by_total = sorted(rows, key=lambda r: (r.total_cents, r.order))
    lines = [f"{'order (first two indemnifiers)':<34} {'total':>8} {'offers':>6}"]
    for row in by_total:
        label = " -> ".join(row.order[: row.offers])
        lines.append(f"{label:<34} ${row.total_cents / 100:>6.2f} {row.offers:>6}")
    return lines
