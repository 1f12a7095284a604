"""Optimal budget-formula probabilities over schedulers, with witnesses.

The decision variable is a deterministic cost-aware memoryless scheduler:
a map from (state, accumulated cost) to an enabled action. Costs above
the formula's largest constant are indistinguishable, so the cost
component saturates into a single ``TOP`` bucket whose value is the
formula's constant tail verdict. That truncation makes the search space
finite and the optimum attainable by backward induction over the pairs.

Below ``TOP`` the (state, cost) pairs form a graph whose only cycles
cost zero, so the solver walks it level by level. A forward sweep finds
the states each cost level reaches, closed under zero-cost edges. Levels
up to a budget do not depend on it, so one sweep serves every formula on
a process, and a solve extends it only past the largest budget solved so
far. The states of the levels within the largest cost above the budget
seed the ``TOP`` set, closed under every edge. Levels then resolve from
the highest cost down, each level's reached components in the order of
the process's zero-cost components (``IntTable.components``), so every
value a component reads is already fixed. The ``linalg`` kernel reads
each pair's rows as the process's integer table (``CostProcess.int_table``)
holds them, ints over each action's own denominator D_a: a lone pair
takes its best action (``_best``), a zero-cost cycle runs exact policy
iteration (``resolve_component``: evaluate a policy with one
fraction-free linear solve, switch only on strict improvement).
Values stay reduced int pairs; the one ``Fraction`` is the answer's.
Ties break toward the lowest canonical action index so schedulers are
reproducible.

Under ``x<=B`` the value and choice at (state, cost) depend only on the
remaining budget r = B - cost: the epoch model of Hartmanns, Junges,
Katoen and Quatmann (TACAS 2018). Such solves keep them per mode and
(state, r), and later ``x<=B`` solves on the same object read them
instead of resolving again, up to the largest ``x<=B`` solved on it.
Other formulas share the sweep but resolve their levels afresh. The
sweep and the epochs live in this module, in a ``_Sweep`` per process
object held by a weak-keyed map, so they last exactly as long as the
process does and a new object with the same rows starts empty.
"""

from __future__ import annotations

import heapq
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Final, Mapping, NamedTuple

from .errors import (
    ModelFormatError,
    SchedulerGapError,
    ThresholdRangeError,
)
from .formula import Formula, _exactly, max_constant, normalize
from .linalg import _best, resolve_component
from .model import CostChain, CostProcess, build_chain, require_valid
from .rational import _digits, parse_cost

__all__ = [
    "TOP",
    "Scheduler",
    "SolveResult",
    "solve_max",
    "solve_min",
    "decide",
    "decide_qualitative",
    "decide_cost_utility",
    "induce_chain",
    "scheduler_to_json",
    "scheduler_from_json",
]

# Saturation marker for accumulated costs beyond the formula's last constant.
TOP: Final[str] = "top"

SchedulerKey = tuple[str, "int | str"]


@dataclass(frozen=True)
class Scheduler:
    """Deterministic cost-aware memoryless scheduler.

    ``entries`` records a choice for every reachable (state, saturated
    cost) pair at which more than one action is enabled; states with a
    single action need no entry. ``budget`` is the saturation point:
    costs above it map to ``TOP``.
    """

    budget: int
    entries: Mapping[SchedulerKey, str]

    def action_at(self, process: CostProcess, state: str, cost: "int | str") -> str:
        """The action this scheduler plays at ``state`` with the given cost."""
        acts = process.enabled[state]
        if len(acts) == 1:
            return acts[0]
        if cost == TOP or (isinstance(cost, int) and cost > self.budget):
            key: SchedulerKey = (state, TOP)
        else:
            key = (state, cost)
        try:
            action = self.entries[key]
        except KeyError:
            raise SchedulerGapError(
                f"scheduler has no entry for state {state!r} at cost {key[1]}"
            ) from None
        if action not in acts:
            raise SchedulerGapError(
                f"scheduler plays {action!r} at state {state!r} (cost {key[1]}), "
                "which that state does not enable"
            )
        return action


@dataclass(frozen=True)
class SolveResult:
    """An optimal value together with a scheduler attaining it."""

    value: Fraction
    scheduler: Scheduler
    mode: str


def solve_max(process: CostProcess, formula: Formula) -> SolveResult:
    """Maximal probability over schedulers that the final cost satisfies the formula."""
    return _solve(process, formula, "max")


def solve_min(process: CostProcess, formula: Formula) -> SolveResult:
    """Minimal probability over schedulers; otherwise as ``solve_max``."""
    return _solve(process, formula, "min")


def decide(
    process: CostProcess,
    formula: Formula,
    threshold: Fraction,
    quantifier: str,
) -> tuple[bool, Scheduler]:
    """Threshold query: does some (or every) scheduler reach the threshold?

    Args:
        process: validated cost process.
        formula: budget formula over the accumulated cost.
        threshold: rational in [0, 1].
        quantifier: "exists" (some scheduler) or "forall" (all schedulers).

    Returns:
        The verdict plus the optimizing scheduler: a witness for a true
        "exists", a counter-witness for a false "forall".
    """
    if not 0 <= threshold <= 1:
        raise ThresholdRangeError(f"threshold must be in [0, 1], got {threshold}")
    if quantifier == "exists":
        result = solve_max(process, formula)
    elif quantifier == "forall":
        result = solve_min(process, formula)
    else:
        raise ValueError(f"quantifier must be 'exists' or 'forall', got {quantifier!r}")
    return result.value >= threshold, result.scheduler


def decide_qualitative(process: CostProcess, total: int) -> tuple[bool, Scheduler]:
    """Can some scheduler make the accumulated cost equal ``total`` almost surely?"""
    if not isinstance(total, int) or isinstance(total, bool) or total < 0:
        raise ValueError(f"total must be a non-negative int, got {total!r}")
    result = solve_max(process, _exactly(total))
    return result.value == 1, result.scheduler


def induce_chain(process: CostProcess, scheduler: Scheduler) -> CostChain:
    """Fix the scheduler's choices, yielding the chain it induces.

    Product states pair an original state with a saturated cost; all
    target copies collapse into the original target so the result is a
    well-formed chain. Transition costs are preserved, hence the chain's
    accumulated cost distribution equals the process's under this
    scheduler.
    """
    require_valid(process)
    target = process.target
    if process.initial == target:
        return build_chain([], target, target)

    def name(state: str, cost: "int | str") -> str:
        return f"{state}@{_digits(cost)}"

    start = (process.initial, 0 if scheduler.budget >= 0 else TOP)
    seen = {start}
    frontier = [start]
    rows: list[tuple[str, str, int, Fraction]] = []
    used_names = {target, name(*start)}
    while frontier:
        state, cost = frontier.pop()
        action = scheduler.action_at(process, state, cost)
        for succ, step, prob, _ in process.transitions[(state, action)]:
            if succ == target:
                rows.append((name(state, cost), target, step, prob))
                continue
            if cost == TOP:
                nxt: "int | str" = TOP
            else:
                total = cost + step
                nxt = total if total <= scheduler.budget else TOP
            rows.append((name(state, cost), name(succ, nxt), step, prob))
            key = (succ, nxt)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
                label = name(succ, nxt)
                if label in used_names:
                    raise ModelFormatError(f"state name collision on {label!r}")
                used_names.add(label)
    return build_chain(rows, name(*start), target)


def decide_cost_utility(process: CostProcess, cost_cap: int, goal: int) -> bool:
    """Almost-sure combined query: cost at most ``cost_cap`` and utility at least ``goal``.

    Some scheduler must keep every support path to the target within the
    cap while earning the goal: a min-max cost (``_min_max_cost``) from
    the initial pair of a state and its utility saturated at the goal.
    Only pairs that some walk reaches within the cap take part, and the
    goal pair as a zero-cost self-loop; any other successor (the target
    short of the goal, a pair beyond the cap) is lost, worth the ceiling,
    which no run within the cap pays.
    """
    for label, bound in (("cost_cap", cost_cap), ("goal", goal)):
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
            raise ValueError(f"{label} must be a non-negative int, got {bound!r}")
    require_valid(process)
    target = process.target
    if process.initial == target:
        return goal == 0

    # Cheapest cost at which the walk reaches each (state, utility) pair.
    start = (process.initial, 0)
    cheapest = {start: 0}
    heap = [(0, start)]
    while heap:
        cost, (state, utility) = heapq.heappop(heap)
        if cost > cheapest[(state, utility)]:
            continue
        for action in process.enabled[state]:
            for succ, step, _, gain in process.transitions[(state, action)]:
                pair = (succ, min(utility + gain, goal))
                total = cost + step
                if succ != target and total < cheapest.get(pair, cost_cap + 1):
                    cheapest[pair] = total
                    heapq.heappush(heap, (total, pair))

    # Finite min-max costs stay within pairs * k_max, and any past the cap
    # loses, so every value below this ceiling is within the cap.
    ceiling = min(cost_cap, len(cheapest) * process.int_table.max_cost) + 1
    graph: dict[tuple[str, int], list] = {}
    for state, utility in cheapest:
        graph[(state, utility)] = per_action = []
        for action in process.enabled[state]:
            per_action.append([])
            for succ, step, _, gain in process.transitions[(state, action)]:
                per_action[-1].append(((succ, min(utility + gain, goal)), step))
    graph[(target, goal)] = [[((target, goal), 0)]]
    return _min_max_cost(graph, start, "min", ceiling) is not None


# ---------------------------------------------------------------------------
# Serialization


def scheduler_to_json(scheduler: Scheduler) -> list[dict[str, str]]:
    """Serialize as a list of {"state", "cost", "action"} records."""

    def order(key: SchedulerKey) -> tuple[str, int, int]:
        state, cost = key
        if cost == TOP:
            return (state, 1, 0)
        return (state, 0, cost)  # type: ignore[return-value]

    return [
        {"state": state, "cost": _digits(cost), "action": scheduler.entries[(state, cost)]}
        for state, cost in sorted(scheduler.entries, key=order)
    ]


def scheduler_from_json(data: object) -> Scheduler:
    """Parse the list format of ``scheduler_to_json``; budget is inferred.

    The inferred budget is the largest integer cost among the entries,
    which reproduces the original saturation behavior on the process the
    scheduler was solved for: every reachable multi-action pair below the
    solve-time budget is recorded explicitly, so lookups can only differ
    beyond the last recorded level, where all costs share the TOP choice.
    """
    if not isinstance(data, list):
        raise ModelFormatError("scheduler file must be a JSON list")
    entries: dict[SchedulerKey, str] = {}
    budget = 0
    for row in data:
        if not isinstance(row, dict):
            raise ModelFormatError(f"scheduler rows must be objects, got {row!r}")
        try:
            state, cost, action = row["state"], row["cost"], row["action"]
        except KeyError as missing:
            raise ModelFormatError(f"scheduler row is missing key {missing}") from None
        if not isinstance(state, str) or not isinstance(action, str):
            raise ModelFormatError(f"state and action must be strings: {row!r}")
        if cost == TOP:
            key: SchedulerKey = (state, TOP)
        else:
            if isinstance(cost, str) and cost.isdigit():
                cost = parse_cost(cost, f"scheduler cost at {state!r}")
            if not isinstance(cost, int) or isinstance(cost, bool) or cost < 0:
                raise ModelFormatError(f"cost must be a non-negative int or 'top': {row!r}")
            key = (state, cost)
            budget = max(budget, cost)
        if key in entries and entries[key] != action:
            raise ModelFormatError(f"conflicting scheduler entries for {key}")
        entries[key] = action
    return Scheduler(budget, entries)


# ---------------------------------------------------------------------------
# Engines


class _Sweep(NamedTuple):
    """One process's forward sweep over cost levels and its ``x<=B`` epochs.

    ``levels[cost]`` holds the states some run reaches at exactly that
    cost, closed under zero-cost edges once the level is completed.
    ``costs`` lists the completed levels in ascending order, and
    ``components[i]`` level ``costs[i]``'s sorted ``IntTable.component_of``
    indices. ``pending`` is the heap of levels reached but not completed.
    ``epochs[mode]`` holds the values and choices keyed by (state,
    remaining budget). It holds no reference to its process, so the
    process's ``_SWEEPS`` entry goes when the process does.
    """

    costs: list[int]
    levels: dict[int, dict[str, None]]
    components: list[list[int]]
    pending: list[int]
    epochs: dict[str, tuple[dict, dict]]


_SWEEPS: weakref.WeakKeyDictionary[CostProcess, _Sweep] = weakref.WeakKeyDictionary()


def _solve(process: CostProcess, formula: Formula, mode: str) -> SolveResult:
    require_valid(process)
    accept = normalize(formula)
    budget = max_constant(formula)
    target = process.target
    enabled = process.enabled
    table = process.int_table
    rows = table.rows
    sweep = _SWEEPS.get(process)
    if sweep is None:
        epochs = {"max": ({}, {}), "min": ({}, {})}
        sweep = _SWEEPS[process] = _Sweep([], {0: {process.initial: None}}, [], [0], epochs)

    # Resume the process's forward sweep up to the budget. A level popped
    # from the heap is complete: every lower level has pushed its arrivals.
    costs, levels, level_components, pending, epochs = sweep
    while pending and pending[0] <= budget:
        cost = heapq.heappop(pending)
        queue = list(levels[cost])
        for state in queue:
            for _, action_rows in rows[state]:
                for succ, step, _ in action_rows:
                    total = cost + step
                    if succ == target or succ in levels.setdefault(total, {}):
                        continue
                    if not levels[total]:
                        heapq.heappush(pending, total)
                    levels[total][succ] = None
                    if total == cost:
                        queue.append(succ)
        costs.append(cost)
        level_components.append(sorted({table.component_of[state] for state in queue}))
    count = bisect_right(costs, budget)

    # Every run past the budget first lands in a level within the largest
    # cost above it, completed or pending, and every state of a higher
    # level is reached from there; those levels seed ``TOP``, closed under
    # every edge.
    horizon = budget + table.max_cost
    beyond: dict[str, None] = {}
    for cost in costs[count : bisect_right(costs, horizon)]:
        beyond.update(levels[cost])
    for cost in pending:
        if cost <= horizon:
            beyond.update(levels[cost])
    queue = list(beyond)
    for state in queue:
        for _, action_rows in rows[state]:
            for succ, _, _ in action_rows:
                if succ != target and succ not in beyond:
                    beyond[succ] = None
                    queue.append(succ)

    if accept.spans == ((0, budget),):
        values, choices = epochs[mode]
    else:
        values, choices = {}, {}
    # A run past the budget has the tail verdict whatever it does next, so
    # the kernel counts its weight by that verdict, and in ``TOP`` the
    # lowest-index action is chosen.
    tail = int(budget + 1 in accept)
    entries: dict[SchedulerKey, str] = {
        (state, TOP): enabled[state][0] for state in beyond if len(enabled[state]) > 1
    }
    for index in range(count - 1, -1, -1):
        # Vertices are (state, remaining budget) pairs; values are reduced
        # (numerator, denominator) int pairs.
        cost = costs[index]
        left = budget - cost
        level = (cost, left, accept, tail, target)
        for component in level_components[index]:
            members, cyclic = table.components[component]
            pair = (members[0], left)
            if cyclic and pair not in choices:
                resolved = resolve_component(members, rows, level, values, mode)
                choices.update(((state, left), i) for state, i in zip(members, resolved))
            elif pair not in choices:
                values[pair], choices[pair] = _best(rows[members[0]], level, values, mode)
            for state in members:
                if len(enabled[state]) > 1:
                    entries[(state, cost)] = enabled[state][choices[(state, left)]]
    numerator, denominator = values[(process.initial, budget)]
    return SolveResult(Fraction(numerator, denominator), Scheduler(budget, entries), mode)


def _min_max_cost(graph: Mapping, start: object, mode: str, ceiling: int) -> "int | None":
    """Optimal worst-case cost from ``start``, or None if infinite.

    ``graph`` maps a vertex to one list of (successor, cost) edges per
    action; a successor missing from it is lost, worth ``ceiling``, and
    a vertex whose one edge is a zero-cost self-loop is an exit worth 0.
    The value is the least fixpoint of D(v) = opt_a max_edge (cost +
    D(succ)), opt "min" or "max", by round-robin iteration from 0 with
    values capped at ``ceiling``, which stands for infinity. Infinite
    runs have probability zero, so zero-cost cycles add nothing.
    """
    dist = dict.fromkeys(graph, 0)
    changed = True
    while changed:
        changed = False
        for vertex, per_action in graph.items():
            best = -1
            for edges in per_action:
                worst = 0
                for succ, cost in edges:
                    candidate = cost + dist.get(succ, ceiling)
                    if candidate > worst:
                        worst = candidate
                if best < 0 or (worst < best if mode == "min" else worst > best):
                    best = worst
            if best > ceiling:
                best = ceiling
            if best != dist[vertex]:
                dist[vertex] = best
                changed = True
    return None if dist[start] >= ceiling else dist[start]
