"""Exact accumulated-cost distributions for cost chains.

The accumulated cost at absorption is a random non-negative integer K.
Everything here is exact: probabilities are Fractions, and the
distribution is truncated at a caller-chosen budget with all excess mass
folded into a single overflow bucket, which is enough to evaluate any
budget formula because verdicts are constant beyond the largest constant.

The engine walks cost levels in increasing order. Costs never decrease
along a run, so mass can only flow from a level to strictly higher ones,
except through zero-cost transitions, which stay inside the level. Each
level's zero-cost subgraph is split by ``linalg.strongly_connected`` and
resolved component by component with ``linalg.resolve_component``: one
state at a time where it is acyclic, by an exact linear solve for the
expected visit counts where it is cyclic. A level without zero-cost
edges keeps its inflow as is. Levels are kept sparse (a heap of occupied
levels), so huge budgets with few reachable cost values stay cheap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import NotAChainError
from .formula import Formula, max_constant, normalize
from .linalg import resolve_component, strongly_connected
from .model import CostChain, Transition, is_chain, require_valid

__all__ = ["TruncatedDistribution", "cost_distribution", "solve_chain"]


@dataclass(frozen=True)
class TruncatedDistribution:
    """Distribution of K up to a budget, plus the overflow tail.

    ``mass`` maps each cost in [0, budget] with nonzero probability to
    P(K = cost); ``overflow`` is P(K > budget). The entries and the
    overflow always sum to exactly 1. ``stats`` carries solver counters
    (levels processed, linear solves, peak numerator size) and does not
    participate in equality.
    """

    budget: int
    mass: Mapping[int, Fraction]
    overflow: Fraction
    stats: Mapping[str, int] = field(default_factory=dict, compare=False)


def cost_distribution(chain: CostChain, budget: int) -> TruncatedDistribution:
    """Compute the exact truncated distribution of the accumulated cost.

    Args:
        chain: a validated cost chain.
        budget: truncation point, a non-negative integer (arbitrarily large).

    Returns:
        The distribution record; invariant sum(mass) + overflow == 1.

    Raises:
        NotAChainError: if some state has more than one enabled action.
        NotValidatedError: if ``validate`` reports violations.
        ValueError: on a negative or non-integer budget.
    """
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 0:
        raise ValueError(f"budget must be a non-negative int, got {budget!r}")
    if not is_chain(chain):
        raise NotAChainError("process has states with more than one enabled action")
    require_valid(chain)

    target = chain.target
    dist: dict[str, tuple[Transition, ...]] = {
        q: chain.transitions[(q, chain.enabled[q][0])] for q in chain.states
    }

    stats = {"levels": 0, "linear_solves": 0, "max_numerator_bits": 0}
    mass: dict[int, Fraction] = {}
    overflow = Fraction(0)

    if chain.initial == target:
        mass[0] = Fraction(1)
        return TruncatedDistribution(budget, mass, overflow, stats)

    pending: dict[int, dict[str, Fraction]] = {0: {chain.initial: Fraction(1)}}
    heap = [0]
    while heap:
        level = heapq.heappop(heap)
        inflow = pending.pop(level)
        visits = _zero_level_visits(inflow, dist, target, stats)
        stats["levels"] += 1
        for q, count in visits.items():
            if count == 0:
                continue
            bits = count.numerator.bit_length()
            if bits > stats["max_numerator_bits"]:
                stats["max_numerator_bits"] = bits
            for succ, cost, prob, _ in dist[q]:
                flow = count * prob
                if succ == target:
                    total = level + cost
                    if total <= budget:
                        mass[total] = mass.get(total, Fraction(0)) + flow
                    else:
                        overflow += flow
                elif cost == 0:
                    continue
                else:
                    total = level + cost
                    if total > budget:
                        overflow += flow
                    else:
                        bucket = pending.get(total)
                        if bucket is None:
                            pending[total] = {succ: flow}
                            heapq.heappush(heap, total)
                        else:
                            bucket[succ] = bucket.get(succ, Fraction(0)) + flow

    assert sum(mass.values(), overflow) == 1
    return TruncatedDistribution(budget, mass, overflow, stats)


def solve_chain(chain: CostChain, formula: Formula) -> Fraction:
    """Exact probability that the accumulated cost satisfies the formula."""
    accept = normalize(formula)
    budget = max_constant(formula)
    distribution = cost_distribution(chain, budget)
    total = sum(
        (p for c, p in distribution.mass.items() if c in accept),
        Fraction(0),
    )
    if budget + 1 in accept:
        total += distribution.overflow
    return total


def _zero_level_visits(
    inflow: dict[str, Fraction],
    dist: Mapping[str, tuple[Transition, ...]],
    target: str,
    stats: dict[str, int],
) -> dict[str, Fraction]:
    """Expected visit counts within one cost level's zero-cost subgraph.

    The subgraph spans the non-target states reachable from the inflow
    support via zero-cost transitions. The counts solve v = inflow + Z^T v,
    which is nonsingular because no zero-cost end component can exist in
    a validated process. Each state is a one-action component member
    whose edges are its zero-cost predecessors, so components resolve
    predecessors first; a level counts one linear solve if any of its
    components is cyclic.
    """
    relevant: list[str] = list(inflow)
    seen = set(inflow)
    predecessors: dict[str, list[tuple[str, Fraction]]] = {}
    for q in relevant:
        for succ, cost, prob, _ in dist[q]:
            if cost == 0 and succ != target:
                if succ not in seen:
                    seen.add(succ)
                    relevant.append(succ)
                predecessors.setdefault(succ, []).append((q, prob))
    if not predecessors:
        return inflow

    zero = Fraction(0)
    options = {q: ((inflow.get(q, zero), predecessors.get(q, ())),) for q in relevant}
    visits: dict[str, Fraction] = {}
    components = strongly_connected(relevant, lambda q: [p for p, _ in predecessors.get(q, ())])
    solved = [
        resolve_component(members, cyclic, options, visits, "max")[1]
        for members, cyclic in components
    ]
    stats["linear_solves"] += any(solved)
    return visits
