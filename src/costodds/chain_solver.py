"""Exact accumulated-cost distributions for cost chains.

The accumulated cost at absorption is a random non-negative integer K.
Everything here is exact. ``cost_distribution`` truncates the
distribution at a caller-chosen budget with all excess mass folded into
a single overflow bucket. ``solve_chain``, the probability that K
satisfies a formula, is ``mdp_solver.solve_max``'s value: a chain is the
one-scheduler case of a process, so one engine answers both.

The walk reads the chain's cached integer table (``CostProcess.int_table``):
per state its denominator D_q, the lcm of its probability denominators,
and its (successor, cost, weight) rows with weight = prob·D_q. Each call
first gives every reachable state its leaving row: the exits (edges that
cost something or enter the target) by which a run entering the state
leaves its zero-cost part, as int weights over one denominator. They
are the rows of N·A_c, with N = (I − Z)^-1 the closure of the zero-cost
subgraph Z and A_c the exits at cost c, and follow the chain's
zero-cost components (``IntTable.components``), with one fraction-free
solve (``linalg.solve_linear_system``) per cyclic one.

The walk then visits cost levels in increasing order. Costs never
decrease along a run and every leaving edge that stays off the target
costs something, so mass flows from a level only to strictly higher
ones. A pending level is one int denominator and a numerator per state.
Its flows land over den·L, with L the lcm of the denominators of the
rows it visits; numbers meeting with different denominators are
rescaled by the quotient when one denominator divides the other, to
their lcm otherwise. Levels are kept sparse (a heap of occupied levels),
so huge budgets with few reachable cost values stay cheap. Fractions
appear only at the boundary: one per mass entry and one for the
overflow. The ``max_numerator_bits`` counter is read off them, so the
walk itself takes no gcd.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import NotAChainError
from .formula import Formula
from .linalg import solve_linear_system
from .mdp_solver import solve_max
from .model import CostChain, IntTable, is_chain, require_valid

__all__ = ["TruncatedDistribution", "cost_distribution", "solve_chain"]

_NOT_A_CHAIN = "process has states with more than one enabled action"

# A state's leaving row: a denominator and its (successor, cost, weight) exits.
_Row = tuple[int, tuple[tuple[str, int, int], ...]]


@dataclass(frozen=True)
class TruncatedDistribution:
    """Distribution of K up to a budget, plus the overflow tail.

    ``mass`` maps each cost in [0, budget] with nonzero probability to
    P(K = cost); ``overflow`` is P(K > budget). The entries and the
    overflow always sum to exactly 1. ``stats`` carries solver counters
    (levels processed, levels that visit a state from which a cyclic
    zero-cost component is reachable and so count one linear solve, and
    the bit length of the largest numerator among the reduced masses and
    the overflow) and does not participate in equality.
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
    cells, spill, stats = _walk(chain, budget)
    mass = {cost: Fraction(num, den) for cost, (num, den) in cells.items()}
    overflow = Fraction(*spill)
    stats["max_numerator_bits"] = max(p.numerator.bit_length() for p in (*mass.values(), overflow))
    return TruncatedDistribution(budget, mass, overflow, stats)


def solve_chain(chain: CostChain, formula: Formula) -> Fraction:
    """Exact probability that the accumulated cost satisfies the formula:
    ``solve_max``'s value, checked first to be a chain (``NotAChainError``)."""
    if not is_chain(chain):
        raise NotAChainError(_NOT_A_CHAIN)
    return solve_max(chain, formula).value


def _walk(
    chain: CostChain, budget: int
) -> tuple[dict[int, list[int]], list[int], dict[str, int]]:
    """The level walk: mass per cost and the overflow as [numerator,
    denominator] pairs, unreduced, and the level and solve counters."""
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 0:
        raise ValueError(f"budget must be a non-negative int, got {budget!r}")
    if not is_chain(chain):
        raise NotAChainError(_NOT_A_CHAIN)
    require_valid(chain)

    stats = {"levels": 0, "linear_solves": 0}
    mass: dict[int, list[int]] = {}
    overflow = [0, 1]
    if chain.initial == chain.target:
        mass[0] = [1, 1]
        return mass, overflow, stats

    target = chain.target
    leaving, looped = _leaving_rows(chain, chain.int_table)
    pending: dict[int, list] = {0: [1, {chain.initial: 1}]}
    heap = [0]
    while heap:
        level = heapq.heappop(heap)
        den, visits = pending.pop(level)
        stats["levels"] += 1
        stats["linear_solves"] += not looped.isdisjoint(visits)

        hits: dict[int, int] = {}
        spill = 0
        moves: dict[int, dict[str, int]] = {}
        scale = math.lcm(*(leaving[q][0] for q in visits))
        for q, n in visits.items():
            own, entries = leaving[q]
            if own != scale:
                n *= scale // own
            for succ, cost, weight in entries:
                total = level + cost
                if total > budget:
                    spill += n * weight
                elif succ == target:
                    hits[total] = hits.get(total, 0) + n * weight
                else:
                    bucket = moves.get(total)
                    if bucket is None:
                        moves[total] = {succ: n * weight}
                    else:
                        bucket[succ] = bucket.get(succ, 0) + n * weight

        out = den * scale
        for total, num in hits.items():
            cell = mass.get(total)
            if cell is None:
                mass[total] = [num, out]
            else:
                _accumulate(cell, num, out)
        if spill:
            _accumulate(overflow, spill, out)
        for total, flows in moves.items():
            bucket = pending.get(total)
            if bucket is None:
                pending[total] = [out, flows]
                heapq.heappush(heap, total)
                continue
            common = _common(bucket[0], out)
            if common != bucket[0]:
                factor = common // bucket[0]
                bucket[0] = common
                bucket[1] = {q: n * factor for q, n in bucket[1].items()}
            factor = common // out
            nums = bucket[1]
            for q, n in flows.items():
                nums[q] = nums.get(q, 0) + n * factor

    num, den = _total([*mass.values(), overflow])
    assert num == den
    return mass, overflow, stats


def _leaving_rows(chain: CostChain, table: IntTable) -> tuple[dict[str, _Row], set[str]]:
    """Per reachable state, the row by which a run entering it leaves its
    zero-cost part, and the states that reach a cyclic zero-cost component.

    A row is (denominator, (successor, cost, weight) entries) over the
    exits: the edges that cost something or enter the target. A state
    without zero-cost edges keeps its table row. Otherwise
    D_q·L[q] = Σ_exits w·e_(s,c) + Σ_zero w·L[u]. The table's
    ``components`` come after every component they reach, so a
    successor outside the component already has its row. The members'
    rows then solve D_q·L[q] − Σ_inside w·L[u] = the rest, scaled by
    the lcm of the outside rows' denominators, with one column per
    distinct (successor, cost) exit: directly for a lone state, by one
    fraction-free solve for a cyclic component. Rows are reduced, so
    the order of a component's members is moot.
    """
    target = chain.target
    leaving: dict[str, _Row] = {}
    looped: set[str] = set()
    for members, cyclic in table.components:
        if members[0] not in chain.reachable:
            continue
        zero = {
            q: [(u, w) for u, cost, w in table.rows[q][0][1] if not cost and u != target]
            for q in members
        }
        if not cyclic and not zero[members[0]]:
            leaving[members[0]] = table.rows[members[0]][0]
            continue
        index = {q: i for i, q in enumerate(members)}
        outside = {u for q in members for u, _ in zero[q] if u not in index}
        lcm_out = math.lcm(*(leaving[u][0] for u in outside))
        matrix = [[0] * len(members) for _ in members]
        sums = []
        for i, q in enumerate(members):
            own, entries = table.rows[q][0]
            matrix[i][i] += own
            flows = [(s, c, w * lcm_out) for s, c, w in entries if c or s == target]
            for u, w in zero[q]:
                if u in index:
                    matrix[i][index[u]] -= w
                    continue
                den, row = leaving[u]
                flows += [(s, c, v * w * (lcm_out // den)) for s, c, v in row]
            merged: dict[tuple[str, int], int] = {}
            for s, c, w in flows:
                merged[s, c] = merged.get((s, c), 0) + w
            sums.append(merged)
        columns = list(dict.fromkeys(key for exits in sums for key in exits))
        rhs = [[exits.get(key, 0) for key in columns] for exits in sums]
        det, solution = solve_linear_system(matrix, rhs) if cyclic else (own, rhs)
        if cyclic or not looped.isdisjoint(outside):
            looped.update(members)
        for q, values in zip(members, solution):
            g = math.gcd(det * lcm_out, *values)
            row = tuple((s, c, v // g) for (s, c), v in zip(columns, values))
            leaving[q] = (det * lcm_out // g, row)
    return leaving, looped


def _common(a: int, b: int) -> int:
    """A common denominator: the larger when one divides the other, else the lcm."""
    if a == b or a % b == 0:
        return a
    if b % a == 0:
        return b
    return math.lcm(a, b)


def _accumulate(cell: list[int], num: int, den: int) -> None:
    """cell[0]/cell[1] += num/den, over a common denominator."""
    common = _common(cell[1], den)
    cell[0] = cell[0] * (common // cell[1]) + num * (common // den)
    cell[1] = common


def _total(cells) -> tuple[int, int]:
    """The sum of [numerator, denominator] pairs, unreduced.

    Numerators over the same denominator add first, since a walk's many
    cells share a few dozen denominators at most.
    """
    by_den: dict[int, int] = {}
    for num, den in cells:
        by_den[den] = by_den.get(den, 0) + num
    acc = [0, 1]
    for den, num in by_den.items():
        _accumulate(acc, num, den)
    return acc[0], acc[1]
