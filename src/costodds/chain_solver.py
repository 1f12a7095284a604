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
takes D, the lcm of the reachable states' D_q, so a state that no run
reaches widens no number. It adds the zero-cost closure N = (I − Z)^-1
of the zero-cost subgraph Z, as int rows over one common denominator E,
for the reachable states that have zero-cost edges. The closure reads the chain's zero-cost components
(``IntTable.components``) and takes one fraction-free solve
(``linalg.solve_linear_system``) per cyclic one.

The walk then visits cost levels in increasing order. Costs never
decrease along a run, so mass flows from a level only to strictly higher
ones, except through zero-cost transitions, which the closure settles in
one product: a level whose inflow touches a zero-cost state multiplies
it by N, and the walk skips the zero-cost edges that do not enter the
target. A pending level is one int denominator and a numerator per
state. A flow from q lands over den·D as n·(D/D_q)·w; numbers meeting
with different denominators are rescaled by the quotient when one
denominator divides the other, to their lcm otherwise. Levels are kept sparse (a heap of
occupied levels), so huge budgets with few reachable cost values stay
cheap. Fractions appear only at the boundary: one per mass entry and one
for the overflow. The ``max_numerator_bits`` counter is read off them, so
the walk itself takes no gcd.
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

# Per state with zero-cost edges: its row of N as numerators over E, and
# whether a cyclic zero-cost component is reachable from it.
_Closure = dict[str, tuple[dict[str, int], bool]]


@dataclass(frozen=True)
class TruncatedDistribution:
    """Distribution of K up to a budget, plus the overflow tail.

    ``mass`` maps each cost in [0, budget] with nonzero probability to
    P(K = cost); ``overflow`` is P(K > budget). The entries and the
    overflow always sum to exactly 1. ``stats`` carries solver counters
    (levels processed, levels whose zero-cost part is cyclic and so
    counts one linear solve, and the bit length of the largest numerator
    among the reduced masses and the overflow) and does not participate
    in equality.
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
    table = chain.int_table
    rows = table.rows
    scale = math.lcm(*(rows[q][0][0] for q in chain.reachable))
    closure_den, closure = _closure(chain, table)
    pending: dict[int, list] = {0: [1, {chain.initial: 1}]}
    heap = [0]
    while heap:
        level = heapq.heappop(heap)
        den, visits = pending.pop(level)
        if closure and not closure.keys().isdisjoint(visits):
            inflow, visits = visits, {}
            cyclic = False
            for q, n in inflow.items():
                entry = closure.get(q)
                if entry is None:
                    visits[q] = visits.get(q, 0) + n * closure_den
                    continue
                row, looped = entry
                cyclic = cyclic or looped
                for r, c in row.items():
                    visits[r] = visits.get(r, 0) + n * c
            den *= closure_den
            stats["linear_solves"] += cyclic
        stats["levels"] += 1

        hits: dict[int, int] = {}
        spill = 0
        moves: dict[int, dict[str, int]] = {}
        for q, n in visits.items():
            own, entries = rows[q][0]
            if own != scale:
                n *= scale // own
            for succ, cost, weight in entries:
                total = level + cost
                if total > budget:
                    spill += n * weight
                elif succ == target:
                    hits[total] = hits.get(total, 0) + n * weight
                elif cost:
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


def _closure(chain: CostChain, table: IntTable) -> tuple[int, _Closure]:
    """Rows of N = (I − Z)^-1 over E for reachable states with zero-cost edges.

    Row q of N holds the expected visits to each state of a run that
    enters q and moves along zero-cost edges only:
    N[q] = e_q + Σ (w/D_q)·N[u] over q's zero-cost edges (q, u, w). The
    table's ``components`` come after every component they reach, so the
    rows outside a component are known when it comes. Its members'
    rows then solve D_q·N[q] − Σ_inside w·N[u] = D_q·e_q + Σ_outside w·N[u],
    scaled by the lcm L of the outside rows' denominators: directly for
    a lone state, by one fraction-free solve for a cyclic component. A
    state without zero-cost edges has the unit row and is left out.
    Rows are reduced, so the order of a component's members is moot.
    """
    target = chain.target
    zero: dict[str, tuple[int, list[tuple[str, int]]]] = {}
    for q in chain.reachable:
        own, entries = table.rows[q][0]
        edges = [(succ, w) for succ, cost, w in entries if not cost and succ != target]
        if edges:
            zero[q] = own, edges
    found: dict[str, tuple[int, dict[str, int], bool]] = {}
    for members, cyclic in table.components:
        if members[0] not in zero:
            continue
        index = {q: i for i, q in enumerate(members)}
        outside = {
            u: found.get(u) or (1, {u: 1}, False)
            for q in members
            for u, _ in zero[q][1]
            if u not in index
        }
        lcm_out = math.lcm(*(den for den, _, _ in outside.values()))
        columns = dict(index)
        for _, entries, _ in outside.values():
            for r in entries:
                columns.setdefault(r, len(columns))
        matrix = [[0] * len(members) for _ in members]
        rhs = [[0] * len(columns) for _ in members]
        for i, q in enumerate(members):
            own, edges = zero[q]
            matrix[i][i] += own
            rhs[i][i] += own * lcm_out
            for u, w in edges:
                j = index.get(u)
                if j is not None:
                    matrix[i][j] -= w
                    continue
                den, entries, _ = outside[u]
                factor = w * (lcm_out // den)
                for r, c in entries.items():
                    rhs[i][columns[r]] += factor * c
        det, solution = solve_linear_system(matrix, rhs) if cyclic else (own, rhs)
        looped = cyclic or any(flag for _, _, flag in outside.values())
        for q, values in zip(members, solution):
            g = math.gcd(det * lcm_out, *values)
            row = {r: values[j] // g for r, j in columns.items()}
            found[q] = (det * lcm_out // g, row, looped)

    closure_den = math.lcm(*(den for den, _, _ in found.values()))
    closure = {
        q: ({r: c * (closure_den // den) for r, c in row.items()}, looped)
        for q, (den, row, looped) in found.items()
    }
    return closure_den, closure


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
