"""Shared fixtures, independent oracles, and instance generators.

Everything the suite compares solver output against lives here and
deliberately avoids the package's own algorithms: truncated
distributions come from product-space state elimination, optimal values
from exhaustive enumeration of scheduler assignments, witness checks
from a separate Fraction elimination plus one Bellman step, path counts and
game verdicts from direct recursion over the instance, Monte Carlo
streams from a plain per-draw bit stream and step loop, and the chain
solver's counters from its earlier Fraction level walk. Cost-utility
verdicts are the exception: their reference is the earlier product
construction decided by ``solve_max``, itself checked by the oracles.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from fractions import Fraction
from random import Random
from typing import Mapping

import costodds as co
from costodds.gadgets import ArithmeticCircuit, CountdownGame, make_circuit, make_countdown

HALF = Fraction(1, 2)
ONE = Fraction(1)

# Product-space sink for runs whose accumulated cost left the budget.
OVER = ("#over", -1)


# ---------------------------------------------------------------------------
# Fixed models


def choice_example() -> co.CostProcess:
    """Three-state process with one real decision, taken at q1 knowing the cost so far."""
    return co.build_process(
        [
            ("q0", "a", "q1", 1, HALF),
            ("q0", "a", "q1", 3, HALF),
            ("q1", "a1", "t", 3, ONE),
            ("q1", "a2", "t", 6, HALF),
            ("q1", "a2", "t", 1, HALF),
        ],
        "q0",
        "t",
    )


def two_flip_chain() -> co.CostChain:
    """One step to the target, cost 1 or 3 with equal odds."""
    return co.build_chain([("q0", "t", 1, HALF), ("q0", "t", 3, HALF)], "q0", "t")


def geometric_chain() -> co.CostChain:
    """Pay 1 per failed coin flip until the first success."""
    return co.build_chain([("q0", "q0", 1, HALF), ("q0", "t", 0, HALF)], "q0", "t")


def zero_loop_chain() -> co.CostChain:
    """A free two-state cycle that forces a linear solve per cost level."""
    return co.build_chain(
        [
            ("q0", "q1", 0, HALF),
            ("q0", "t", 1, HALF),
            ("q1", "q0", 0, HALF),
            ("q1", "t", 0, HALF),
        ],
        "q0",
        "t",
    )


# A zero-cost cycle q0-q1 with exits at three costs, and an unreachable
# state u whose probabilities have a 2^301 denominator: the chain's
# int_table spans u too, so its D is 3·2^301 while the reachable
# states' probabilities need only 6. Rows are (state, successor, cost, prob).
UNREACHABLE_WIDE_ROWS = [
    ("q0", "q1", 0, HALF),
    ("q0", "t", 1, HALF),
    ("q1", "q0", 0, Fraction(1, 3)),
    ("q1", "q1", 1, Fraction(1, 3)),
    ("q1", "t", 2, Fraction(1, 3)),
    ("u", "q0", 0, Fraction(2**300 + 1, 2**301)),
    ("u", "t", 3, Fraction(2**300 - 1, 2**301)),
]


# Level 0 of this process is an acyclic prefix (s0, s1) feeding two
# disjoint zero-cost cycles (a0-a1, b0-b1) and a zero-cost self-loop (c),
# with choices inside the cycles and at c; c's second action climbs to
# cycle a at cost 1. Rows are (state, action, successor, cost, prob).
TWO_CYCLE_ROWS = [
    ("s0", "a", "s1", 0, HALF),
    ("s0", "a", "c", 0, HALF),
    ("s1", "a", "a0", 0, HALF),
    ("s1", "a", "b0", 0, HALF),
    ("a0", "stay", "a1", 0, HALF),
    ("a0", "stay", "t", 1, HALF),
    ("a0", "go", "a1", 0, Fraction(1, 3)),
    ("a0", "go", "t", 3, Fraction(2, 3)),
    ("a1", "a", "a0", 0, HALF),
    ("a1", "a", "t", 2, HALF),
    ("b0", "a", "b1", 0, Fraction(2, 3)),
    ("b0", "a", "t", 0, Fraction(1, 3)),
    ("b1", "x", "b0", 0, HALF),
    ("b1", "x", "t", 4, HALF),
    ("b1", "y", "b0", 0, Fraction(1, 4)),
    ("b1", "y", "t", 1, Fraction(3, 4)),
    ("c", "loop", "c", 0, HALF),
    ("c", "loop", "t", 2, HALF),
    ("c", "climb", "c", 0, Fraction(1, 3)),
    ("c", "climb", "a0", 1, Fraction(2, 3)),
]


def two_cycle_process() -> co.CostProcess:
    """Zero-cost cycles of every shape side by side on level 0."""
    return co.build_process(TWO_CYCLE_ROWS, "s0", "t")


def two_cycle_chain() -> co.CostChain:
    """``two_cycle_process`` with every state's first action only, so
    level 0 is the only level with zero-cost cycles."""
    first: dict[str, str] = {}
    rows = [row for row in TWO_CYCLE_ROWS if first.setdefault(row[0], row[1]) == row[1]]
    return co.build_chain([(q, succ, cost, p) for q, _, succ, cost, p in rows], "s0", "t")


def mc_fixture_corpus() -> list[tuple[co.CostProcess, object, co.CostFormula, Fraction]]:
    """(process, scheduler, formula, exact value) rows for sampling checks."""
    deterministic = co.build_chain([("q0", "t", 4, ONE)], "q0", "t")
    rows: list[tuple[co.CostProcess, object, co.CostFormula, Fraction]] = [
        (deterministic, None, co.parse("x<=5"), ONE),
        (geometric_chain(), None, co.parse("x<=1"), Fraction(3, 4)),
    ]
    process = choice_example()
    best = co.solve_max(process, co.parse("x<=5"))
    rows.append((process, best.scheduler, co.parse("x<=5"), best.value))
    return rows


# ---------------------------------------------------------------------------
# Chain oracle: product construction plus state elimination


def chain_distribution_oracle(
    chain: co.CostChain, budget: int
) -> tuple[dict[int, Fraction], Fraction]:
    """Exact truncated cost distribution of a validated chain.

    Unrolls the chain over accumulated costs up to the budget, then
    eliminates interior states one by one, rescaling by the escape
    probability; what remains are direct edges from the start to the
    absorbing (target, cost) nodes and the overflow sink.
    """
    if chain.initial == chain.target:
        return {0: ONE}, Fraction(0)

    start = (chain.initial, 0)
    edges: dict[tuple[str, int], dict[tuple[str, int], Fraction]] = {}
    absorbing: set[tuple[str, int]] = {OVER}
    queue = [start]
    while queue:
        node = queue.pop()
        if node in edges or node in absorbing:
            continue
        state, cost = node
        if state == chain.target:
            absorbing.add(node)
            continue
        out: dict[tuple[str, int], Fraction] = {}
        (action,) = chain.enabled[state]
        for entry in chain.transitions[(state, action)]:
            paid = cost + entry.cost
            succ = OVER if paid > budget else (entry.successor, paid)
            out[succ] = out.get(succ, Fraction(0)) + entry.prob
        edges[node] = out
        queue.extend(out)

    for node in [n for n in edges if n != start]:
        out = edges.pop(node)
        stay = out.pop(node, Fraction(0))
        out = {succ: p / (1 - stay) for succ, p in out.items()}
        for table in edges.values():
            weight = table.pop(node, None)
            if weight is not None:
                for succ, p in out.items():
                    table[succ] = table.get(succ, Fraction(0)) + weight * p

    table = edges[start]
    stay = table.pop(start, Fraction(0))
    mass: dict[int, Fraction] = {}
    overflow = Fraction(0)
    for node, p in table.items():
        p /= 1 - stay
        if node == OVER:
            overflow += p
        else:
            mass[node[1]] = mass.get(node[1], Fraction(0)) + p
    return mass, overflow


def chain_value_oracle(chain: co.CostChain, formula: co.CostFormula) -> Fraction:
    """P(final cost satisfies formula), via the elimination oracle."""
    bound = co.max_constant(formula)
    mass, overflow = chain_distribution_oracle(chain, bound)
    value = sum(
        (p for cost, p in mass.items() if co.satisfies(cost, formula)), Fraction(0)
    )
    if co.satisfies(bound + 1, formula):
        value += overflow
    return value


# ---------------------------------------------------------------------------
# Chain solver reference: the Fraction level walk


def reference_cost_distribution(chain: co.CostChain, budget: int) -> co.TruncatedDistribution:
    """``cost_distribution`` as a level walk over Fractions, counters included.

    Each level's zero-cost subgraph is split into strongly connected
    components and resolved one component at a time, with one linear
    solve counted per level that has a cyclic component. The peak is the
    bit length of the largest numerator among the masses and the overflow.
    """
    target = chain.target
    dist: dict[str, tuple[co.Transition, ...]] = {
        q: chain.transitions[(q, chain.enabled[q][0])] for q in chain.states
    }

    stats = {"levels": 0, "linear_solves": 0}
    mass: dict[int, Fraction] = {}
    overflow = Fraction(0)

    pending: dict[int, dict[str, Fraction]] = {}
    heap: list[int] = []
    if chain.initial == target:
        mass[0] = Fraction(1)
    else:
        pending[0] = {chain.initial: Fraction(1)}
        heap.append(0)
    while heap:
        level = heapq.heappop(heap)
        inflow = pending.pop(level)
        visits = _zero_level_visits(inflow, dist, target, stats)
        stats["levels"] += 1
        for q, count in visits.items():
            if count == 0:
                continue
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
    stats["max_numerator_bits"] = max(p.numerator.bit_length() for p in [*mass.values(), overflow])
    return co.TruncatedDistribution(budget, mass, overflow, stats)


def _zero_level_visits(
    inflow: dict[str, Fraction],
    dist: Mapping[str, tuple[co.Transition, ...]],
    target: str,
    stats: dict[str, int],
) -> dict[str, Fraction]:
    """Expected visit counts within one cost level's zero-cost subgraph.

    The subgraph spans the non-target states reachable from the inflow
    support via zero-cost transitions. The counts solve v = inflow + Z^T v,
    which is nonsingular because no zero-cost end component can exist in
    a validated process; ``eliminate`` solves it. A level counts one
    linear solve if its subgraph has a cycle.
    """
    relevant: list[str] = list(inflow)
    seen = set(inflow)
    rows: dict[str, list] = {q: [{}, count] for q, count in inflow.items()}
    for q in relevant:
        for succ, cost, prob, _ in dist[q]:
            if cost == 0 and succ != target:
                if succ not in seen:
                    seen.add(succ)
                    relevant.append(succ)
                    rows[succ] = [{}, Fraction(0)]
                coefficients = rows[succ][0]
                coefficients[q] = coefficients.get(q, 0) + prob
    if not any(coefficients for coefficients, _ in rows.values()):
        return inflow
    visits, cyclic = eliminate(rows, relevant)
    stats["linear_solves"] += cyclic
    return visits


def eliminate(rows: dict, order: list) -> tuple[dict, bool]:
    """Solve x_v = constant + Σ c·x_u for every v with ``rows[v] == [coefficients, constant]``.

    Variables are eliminated in ``order``: each is divided through by one
    minus its coefficient on itself and substituted into the remaining
    rows; back-substitution then gives every value. The coefficients
    must be non-negative and make I − P a nonsingular M-matrix, so no
    pivot is zero. Then some variable meets a coefficient on itself
    exactly when the coefficient graph has a cycle, which the second
    result reports. ``rows`` is consumed.
    """
    definitions = []
    cyclic = False
    for var in order:
        coefficients, constant = rows.pop(var)
        stay = coefficients.pop(var, 0)
        cyclic = cyclic or stay != 0
        scale = 1 / (1 - Fraction(stay))
        coefficients = {u: c * scale for u, c in coefficients.items()}
        constant *= scale
        for row in rows.values():
            c = row[0].pop(var, None)
            if c is not None:
                for u, d in coefficients.items():
                    row[0][u] = row[0].get(u, 0) + c * d
                row[1] += c * constant
        definitions.append((var, coefficients, constant))
    values: dict = {}
    for var, coefficients, constant in reversed(definitions):
        values[var] = constant + sum(c * values[u] for u, c in coefficients.items())
    return values, cyclic


# ---------------------------------------------------------------------------
# Process oracle: exhaustive scheduler assignments on the truncated space


def choice_points(process: co.CostProcess, cap: int) -> list[tuple[str, int]]:
    """(state, cost) pairs below the cap where several actions are enabled
    and some run can arrive, whatever the scheduler does."""
    seen = {(process.initial, 0)}
    queue = [(process.initial, 0)]
    while queue:
        state, cost = queue.pop()
        if state == process.target or cost == cap:
            continue
        for action in process.enabled[state]:
            for entry in process.transitions[(state, action)]:
                node = (entry.successor, min(cap, cost + entry.cost))
                if node not in seen:
                    seen.add(node)
                    queue.append(node)
    return sorted(
        (state, cost)
        for state, cost in seen
        if cost < cap and state != process.target and len(process.enabled[state]) > 1
    )


def optimal_value_oracle(
    process: co.CostProcess, formula: co.CostFormula, mode: str, limit: int = 12
) -> Fraction:
    """Optimal probability by trying every deterministic cost-aware choice.

    Requires that the zero-cost part of the control graph is acyclic away
    from the target, so a fixed assignment evaluates by plain recursion.
    """
    cap = co.max_constant(formula) + 1
    sat = {c: Fraction(1 if co.satisfies(c, formula) else 0) for c in range(cap + 1)}
    points = choice_points(process, cap)
    if len(points) > limit:
        raise ValueError(f"too many choice points to enumerate: {len(points)}")

    def evaluate(assignment: dict[tuple[str, int], str]) -> Fraction:
        memo: dict[tuple[str, int], Fraction] = {}
        busy: set[tuple[str, int]] = set()

        def value(state: str, cost: int) -> Fraction:
            if state == process.target or cost == cap:
                # The target is reached almost surely and the verdict
                # can no longer change once the cost saturates.
                return sat[cost]
            node = (state, cost)
            if node in memo:
                return memo[node]
            if node in busy:
                raise AssertionError(f"zero-cost cycle through {node}")
            busy.add(node)
            acts = process.enabled[state]
            action = acts[0] if len(acts) == 1 else assignment[node]
            total = sum(
                (
                    entry.prob * value(entry.successor, min(cap, cost + entry.cost))
                    for entry in process.transitions[(state, action)]
                ),
                Fraction(0),
            )
            busy.discard(node)
            memo[node] = total
            return total

        return value(process.initial, 0)

    pick = max if mode == "max" else min
    best: Fraction | None = None
    for actions in itertools.product(*(process.enabled[state] for state, _ in points)):
        value = evaluate(dict(zip(points, actions)))
        best = value if best is None else pick(best, value)
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Witness checker: the scheduler's own value, then one Bellman step


def check_optimal(
    process: co.CostProcess, formula: co.CostFormula, result: co.SolveResult
) -> None:
    """Assert that ``result`` is an optimal value with its canonical witness.

    The scheduler is evaluated exactly on every (state, saturated cost)
    pair reachable under any actions, by elimination over Fractions.
    Since every scheduler reaches the target almost surely, the Bellman
    equation has one fixpoint, the optimum; so the scheduler is optimal
    iff its values satisfy the equation at every pair. Each entry must
    also be the lowest-index action attaining the optimum, and entries
    must cover exactly the reachable pairs with a choice.
    """
    budget = co.max_constant(formula)
    scheduler = result.scheduler
    assert scheduler.budget == budget
    pick = {"max": max, "min": min}[result.mode]
    verdict = {c: Fraction(co.satisfies(c, formula)) for c in range(budget + 2)}

    def outcomes(state, cost, action):
        # (prob, successor pair, None), or (prob, None, verdict) on arrival.
        for succ, step_cost, prob, _ in process.transitions[(state, action)]:
            total = budget + 1 if cost == co.TOP else min(cost + step_cost, budget + 1)
            if succ == process.target:
                yield prob, None, verdict[total]
            else:
                yield prob, (succ, co.TOP if total > budget else total), None

    pairs = [(process.initial, 0)]
    seen = set(pairs)
    for state, cost in pairs:
        for action in process.enabled[state]:
            for _, pair, _ in outcomes(state, cost, action):
                if pair is not None and pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
    choosing = {pair for pair in pairs if len(process.enabled[pair[0]]) > 1}
    assert set(scheduler.entries) == choosing

    def chosen(pair):
        acts = process.enabled[pair[0]]
        return acts[0] if len(acts) == 1 else scheduler.entries[pair]

    # x_p = Σ c·x_u + constant per pair under the scheduler. I − P is a
    # nonsingular M-matrix, so elimination in any order meets no zero
    # pivot; the highest costs go first, since edges never lower the cost.
    rows = {}
    for pair in pairs:
        coefficients: dict = {}
        constant = Fraction(0)
        for prob, succ, value in outcomes(*pair, chosen(pair)):
            if succ is None:
                constant += prob * value
            else:
                coefficients[succ] = coefficients.get(succ, 0) + prob
        rows[pair] = [coefficients, constant]
    order = sorted(pairs, key=lambda p: budget + 1 if p[1] == co.TOP else p[1], reverse=True)
    values, _ = eliminate(rows, order)

    assert result.value == values[(process.initial, 0)]
    for pair in pairs:
        acts = process.enabled[pair[0]]
        options = [
            sum(
                (
                    prob * (value if succ is None else values[succ])
                    for prob, succ, value in outcomes(*pair, action)
                ),
                Fraction(0),
            )
            for action in acts
        ]
        best = pick(options)
        assert values[pair] == best, f"Bellman equation fails at {pair}"
        assert chosen(pair) == acts[options.index(best)], f"not the lowest optimal index at {pair}"


# ---------------------------------------------------------------------------
# Sampling oracle: one object per bit stream, one scheduler call per choice


class ReferenceBits:
    """Bits of SHA-256(seed ‖ index ‖ counter), counter increasing on demand."""

    def __init__(self, seed: int, index: int) -> None:
        self.prefix = seed.to_bytes(8, "little") + index.to_bytes(8, "little")
        self.counter = self.value = self.left = 0

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection on fixed-width draws."""
        if bound == 1:
            return 0
        width = (bound - 1).bit_length()
        while True:
            while self.left < width:
                block = self.prefix + self.counter.to_bytes(8, "little")
                self.counter += 1
                digest = int.from_bytes(hashlib.sha256(block).digest(), "big")
                self.value = (self.value << 256) | digest
                self.left += 256
            self.left -= width
            draw = self.value >> self.left
            self.value &= (1 << self.left) - 1
            if draw < bound:
                return draw


def reference_run(
    process: co.CostProcess, scheduler, seed: int, index: int, max_steps: int
) -> int | None:
    """Final cost of run (seed, index), or None past ``max_steps`` steps."""
    bits = ReferenceBits(seed, index)
    state, cost, steps = process.initial, 0, 0
    while state != process.target:
        steps += 1
        if steps > max_steps:
            return None
        actions = process.enabled[state]
        if len(actions) == 1:
            action = actions[0]
        else:
            action = scheduler.action_at(process, state, cost)
        entries = process.transitions[(state, action)]
        den = math.lcm(*(entry.prob.denominator for entry in entries))
        draw = bits.below(den)
        acc = 0
        for entry in entries:
            acc += entry.prob * den
            if draw < acc:
                state, cost = entry.successor, cost + entry.cost
                break
    return cost


# ---------------------------------------------------------------------------
# Random models


def random_chain(rng: Random, max_states: int = 5, max_cost: int = 3) -> co.CostChain:
    """A validated chain; one edge per state always points toward the target."""
    for _ in range(1000):
        n = rng.randint(2, max_states)
        states = [f"q{i}" for i in range(n - 1)] + ["t"]
        entries = []
        for i, state in enumerate(states[:-1]):
            fanout = rng.choice((1, 2))
            share = Fraction(1, fanout)
            entries.append(
                (state, states[rng.randint(i + 1, n - 1)], rng.randint(0, max_cost), share)
            )
            for _ in range(fanout - 1):
                entries.append(
                    (state, states[rng.randrange(n)], rng.randint(0, max_cost), share)
                )
        chain = co.build_chain(entries, "q0", "t")
        if co.validate(chain).ok:
            return chain
    raise AssertionError("chain generator kept producing invalid models")


# Probability with a 301-bit denominator.
WIDE_PROB = Fraction(2**300 + 1, 2**301)


def mixed_denominator_chain(rng: Random, max_states: int = 5) -> co.CostChain:
    """A validated chain mixing denominators 2, 3, 7 and 2^301.

    Each state has a forward edge (toward the target, so every closed set
    holds it) and a second edge anywhere, often at cost zero, and some
    have a zero-cost self-loop; positive-cost edges back into zero-cost
    cycles make the walk meet those cycles at many cost levels.
    """
    names = [f"s{i}" for i in range(rng.randint(1, max_states))] + ["t"]
    entries = [
        (names[i], *edge) for i in range(len(names) - 1) for edge in _mixed_edges(rng, names, i)
    ]
    chain = co.build_chain(entries, "s0", "t")
    assert co.validate(chain).ok
    return chain


def mixed_denominator_process(rng: Random, max_states: int = 4) -> co.CostProcess:
    """A validated process with one or two actions per state, each action's
    edges drawn as in ``mixed_denominator_chain``."""
    names = [f"s{i}" for i in range(rng.randint(1, max_states))] + ["t"]
    entries = [
        (names[i], action, *edge)
        for i in range(len(names) - 1)
        for action in ("a", "b")[: rng.choice((1, 2))]
        for edge in _mixed_edges(rng, names, i)
    ]
    process = co.build_process(entries, "s0", "t")
    assert co.validate(process).ok
    return process


def _mixed_edges(rng: Random, names: list[str], i: int) -> list[tuple[str, int, Fraction]]:
    """(successor, cost, prob) edges out of ``names[i]``; the last name is the target."""
    n = len(names) - 1
    first = rng.choice((HALF, Fraction(1, 3), Fraction(2, 7), WIDE_PROB))
    edges = [(names[rng.randint(i + 1, n)], rng.randint(0, 3), first)]
    rest = 1 - first
    loop = rest * rng.choice((0, 0, Fraction(1, 3), Fraction(2, 7)))
    if loop:
        edges.append((names[i], 0, loop))
    edges.append((names[rng.randrange(n + 1)], rng.choice((0, 0, 1, 2)), rest - loop))
    return edges


def random_process(
    rng: Random, max_states: int = 5, max_cost: int = 3
) -> co.CostProcess:
    """A validated process with one or two actions per state."""
    for _ in range(1000):
        n = rng.randint(2, max_states)
        states = [f"q{i}" for i in range(n - 1)] + ["t"]
        entries = []
        for i, state in enumerate(states[:-1]):
            for action in ("a", "b")[: rng.choice((1, 2))]:
                fanout = rng.choice((1, 2))
                share = Fraction(1, fanout)
                entries.append(
                    (
                        state,
                        action,
                        states[rng.randint(i + 1, n - 1)],
                        rng.randint(0, max_cost),
                        share,
                    )
                )
                for _ in range(fanout - 1):
                    entries.append(
                        (
                            state,
                            action,
                            states[rng.randrange(n)],
                            rng.randint(0, max_cost),
                            share,
                        )
                    )
        process = co.build_process(entries, "q0", "t")
        if co.validate(process).ok:
            return process
    raise AssertionError("process generator kept producing invalid models")


def random_branching_process(
    rng: Random,
    max_states: int = 4,
    max_cost: int = 3,
    cap: int = 7,
    limit: int = 10,
) -> co.CostProcess:
    """Like ``random_process`` but tailored for exhaustive enumeration.

    Zero costs only occur on forward edges, so the zero-cost control
    graph is acyclic, and the potentially reachable choice points below
    the cap are few enough for ``optimal_value_oracle``.
    """
    for _ in range(2000):
        n = rng.randint(2, max_states)
        states = [f"q{i}" for i in range(n - 1)] + ["t"]
        entries = []
        for i, state in enumerate(states[:-1]):
            for action in ("a", "b")[: rng.choice((1, 2))]:
                fanout = rng.choice((1, 2))
                share = Fraction(1, fanout)
                for edge in range(fanout):
                    if edge == 0:
                        j = rng.randint(i + 1, n - 1)
                    else:
                        j = rng.randrange(n)
                    # Backward and self edges must make progress in cost.
                    low = 0 if j > i else 1
                    entries.append(
                        (state, action, states[j], rng.randint(low, max_cost), share)
                    )
        process = co.build_process(entries, "q0", "t")
        if co.validate(process).ok and len(choice_points(process, cap)) <= limit:
            return process
    raise AssertionError("branching generator kept producing unusable models")


def fresh(process: co.CostProcess) -> co.CostProcess:
    """The same process as a new object: no cached validation or table, and
    no solver state, since ``mdp_solver`` keys its sweep by the object.

    Oracles that call the engine solve on such copies, so the sweep and
    the epochs that earlier solves filled are never checked against
    themselves.
    """
    return co.CostProcess(
        process.states, process.initial, process.target, process.enabled, process.transitions
    )


def random_formula(rng: Random, max_bound: int = 6) -> co.CostFormula:
    """A small Boolean combination of budget atoms."""

    def leaf() -> co.CostFormula:
        atom = co.Atom(rng.randint(0, max_bound))
        return co.Not(atom) if rng.random() < 0.5 else atom

    formula = leaf()
    for _ in range(rng.randint(0, 2)):
        other = leaf()
        formula = co.And(formula, other) if rng.random() < 0.5 else co.Or(formula, other)
    return formula


def any_process(rng: Random, max_states: int = 5) -> co.CostProcess:
    """A process that may break any validation rule, or none.

    Each non-target state gets one to three actions of one to three
    edges; an action's first edge usually points toward the target, the
    others anywhere. Some distributions miss 1, some target loops carry a
    utility or a cost, leave the target or come with a second action, and
    the initial state is drawn, so the states before it are often never
    reached.
    """
    names = [f"q{i}" for i in range(rng.randint(1, max_states) - 1)] + ["t"]
    n = len(names)
    entries = []
    for i, state in enumerate(names[:-1]):
        for action in "abc"[: rng.choice((1, 1, 2, 2, 3))]:
            width = rng.randint(1, 3)
            probs = [Fraction(1, width)] * width
            if rng.random() < 0.05:
                probs[0] = rng.choice((Fraction(1, width + 1), Fraction(2, width + 1)))
            for k, prob in enumerate(probs):
                forward = k == 0 and rng.random() < 0.6
                j = rng.randint(i + 1, n - 1) if forward else rng.randrange(n)
                entries.append((state, action, names[j], rng.randint(0, 2), prob))
    entries += rng.choice(
        [
            [("t", "a", "t", 0, ONE, 1)],
            [("t", "a", "t", 1, ONE)],
            [("t", "a", "t", 0, HALF), ("t", "a", names[0], 0, HALF)],
            [("t", "a", "t", 0, ONE), ("t", "b", "t", 0, ONE)],
        ]
        if rng.random() < 0.1
        else [[]]
    )
    return co.build_process(entries, rng.choice(names), "t", names)


def validity_oracle(process: co.CostProcess) -> bool:
    """``validate(process).ok`` from the definitions, by enumeration.

    Every distribution sums to 1; the target's one action is a zero-cost,
    zero-utility self-loop of probability 1; and under every stationary
    deterministic scheduler, each state reachable under it has a path to
    the target under it. The last is condition (ii), since some
    stationary deterministic scheduler attains the least probability of
    reaching the target, and a finite chain reaches it almost surely iff
    every reachable state has a path to it.
    """
    if any(sum(t.prob for t in row) != 1 for row in process.transitions.values()):
        return False
    target = process.target
    loops = [process.transitions[(target, a)] for a in process.enabled[target]]
    if loops != [((target, 0, ONE, 0),)]:
        return False
    states = process.states
    for choice in itertools.product(*(process.enabled[q] for q in states)):
        succ = {
            q: {t.successor for t in process.transitions[(q, a)]} for q, a in zip(states, choice)
        }
        seen = {process.initial}
        frontier = [process.initial]
        while frontier:
            for r in succ[frontier.pop()] - seen:
                seen.add(r)
                frontier.append(r)
        reaching = {target}
        grown = True
        while grown:
            grown = False
            for q in states:
                if q not in reaching and succ[q] & reaching:
                    reaching.add(q)
                    grown = True
        if not seen <= reaching:
            return False
    return True


# ---------------------------------------------------------------------------
# Cost-utility reference and corpora


def reference_cost_utility(process: co.CostProcess, cost_cap: int, goal: int) -> bool:
    """``decide_cost_utility`` by ``solve_max`` under ``x<=cost_cap`` on a product.

    Product states pair a state with its utility saturated at the goal;
    only pairs that some walk reaches within the cap are built. An
    arrival at the target short of the goal, or an edge to a pair beyond
    the cap, goes to the target at cost ``cost_cap + 1``, which no run
    within the cap can pay.
    """
    target = process.target
    if process.initial == target:
        return goal == 0
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

    goal_pair = (target, goal)
    rows = []
    for state, utility in cheapest:
        for action in process.enabled[state]:
            for succ, step, prob, gain in process.transitions[(state, action)]:
                pair = (succ, min(utility + gain, goal))
                if pair == goal_pair or pair in cheapest:
                    rows.append(((state, utility), action, pair, step, prob))
                else:
                    rows.append(((state, utility), action, goal_pair, cost_cap + 1, prob))
    product = co.build_process(rows, start, goal_pair)
    return co.solve_max(product, co.Atom(cost_cap)).value == 1


def with_utilities(rng: Random, process: co.CostProcess, top: int = 2) -> co.CostProcess:
    """The same process with a utility in [0, top] drawn for every transition."""
    rows = [
        (state, action, entry.successor, entry.cost, entry.prob, rng.randint(0, top))
        for state in process.states
        if state != process.target
        for action in process.enabled[state]
        for entry in process.transitions[(state, action)]
    ]
    return co.build_process(rows, process.initial, process.target, process.states)


def utility_loop_process(rng: Random, max_states: int = 4) -> co.CostProcess:
    """A validated process whose actions pair a forward edge with a zero-cost
    edge back to the same or an earlier state, each earning utility 0-2.

    The forward edge keeps every end component away from the non-target
    states, and the zero-cost back edges close free loops that earn utility.
    """
    names = [f"u{i}" for i in range(rng.randint(1, max_states))] + ["t"]
    rows = []
    for i, state in enumerate(names[:-1]):
        for action in ("a", "b")[: rng.choice((1, 2))]:
            forward = rng.choice((HALF, Fraction(1, 3), Fraction(2, 3)))
            ahead = names[rng.randint(i + 1, len(names) - 1)]
            back = names[rng.randint(0, i)]
            rows.append((state, action, ahead, rng.randint(0, 3), forward, rng.randint(0, 2)))
            rows.append((state, action, back, 0, 1 - forward, rng.randint(0, 2)))
    process = co.build_process(rows, "u0", "t")
    assert co.validate(process).ok
    return process


# ---------------------------------------------------------------------------
# Circuit corpora


LEAF_ROWS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("zero", "zero", ()),
    ("one", "one", ()),
)


def level_four_tower() -> ArithmeticCircuit:
    """x = 1+1, y = x*x, z = y+y, w = z*z = 64, and w2 = z2*z = 32 with z2 = 4."""
    return make_circuit(
        [
            *LEAF_ROWS,
            ("x", "plus", ("one", "one")),
            ("y", "times", ("x", "x")),
            ("z", "plus", ("y", "y")),
            ("zero1", "plus", ("zero", "zero")),
            ("zero2", "times", ("zero1", "zero1")),
            ("z2", "plus", ("y", "zero2")),
            ("w", "times", ("z", "z")),
            ("w2", "times", ("z2", "z")),
        ]
    )


def zero_ladder(levels: int) -> ArithmeticCircuit:
    """Two all-zero gates a<l>, b<l> on each of ``levels`` levels, both fed by
    the pair below; lifting the top gate builds a zero ladder as tall."""
    rows = [("a0", "zero", ()), ("b0", "zero", ())]
    for level in range(1, levels):
        kind = "plus" if level % 2 else "times"
        below = (f"a{level - 1}", f"b{level - 1}")
        rows += [(f"a{level}", kind, below), (f"b{level}", kind, below)]
    return make_circuit(rows)


def wide_sums(width: int) -> ArithmeticCircuit:
    """``width`` level-1 gates p<i> = one + zero: a DFA letter budget of
    3 * width + 1 letters for any one of them."""
    return make_circuit(
        [*LEAF_ROWS, *((f"p{i}", "plus", ("one", "zero")) for i in range(width))]
    )


def _pairings(ids: list[str]) -> list[tuple[str, str]]:
    """Unordered input pairs over one level, repetition allowed."""
    return [(a, b) for pos, a in enumerate(ids) for b in ids[pos:]]


def fixed_circuit_corpus() -> list[tuple[ArithmeticCircuit, str]]:
    """Every alternating circuit over shared 0/1 leaves for a fixed set of
    per-level gate-count profiles, paired with each top-level gate."""
    profiles = [(1,), (2,), (1, 1), (2, 1), (2, 2), (1, 1, 1), (2, 1, 1), (2, 2, 1)]
    corpus: list[tuple[ArithmeticCircuit, str]] = []

    def grow(profile, level, prior, rows):
        if level > len(profile):
            circuit = make_circuit(rows)
            corpus.extend((circuit, top) for top in prior)
            return
        kind = "plus" if level % 2 else "times"
        for combo in itertools.combinations(_pairings(prior), profile[level - 1]):
            ids = [f"g{level}_{pos}" for pos in range(len(combo))]
            grow(
                profile,
                level + 1,
                ids,
                rows + [(gid, kind, pair) for gid, pair in zip(ids, combo)],
            )

    for profile in profiles:
        grow(profile, 1, ["zero", "one"], list(LEAF_ROWS))
    return corpus


def random_circuit(
    rng: Random, max_level: int = 3
) -> tuple[ArithmeticCircuit, str]:
    """A random alternating circuit with at most 8 gates, and a gate in it."""
    rows = list(LEAF_ROWS)
    prior = ["zero", "one"]
    for level in range(1, rng.randint(1, max_level) + 1):
        kind = "plus" if level % 2 else "times"
        ids = []
        for pos in range(rng.randint(1, 2)):
            gid = f"g{level}_{pos}"
            rows.append((gid, kind, (rng.choice(prior), rng.choice(prior))))
            ids.append(gid)
        prior = ids
    return make_circuit(rows), rng.choice(prior)


def posslp_corpus() -> list[tuple[ArithmeticCircuit, list[str]]]:
    """Circuits with gate lists covering ties, zeros, strict orders, and
    square gates (which make the comparison chains cyclic)."""
    sums = make_circuit(
        [
            *LEAF_ROWS,
            ("p", "plus", ("one", "one")),
            ("q", "plus", ("one", "zero")),
            ("r", "plus", ("zero", "zero")),
            ("m", "times", ("p", "q")),
            ("s", "times", ("p", "p")),
        ]
    )
    towers = make_circuit(
        [
            *LEAF_ROWS,
            ("x", "plus", ("one", "one")),
            ("x0", "plus", ("zero", "one")),
            ("y", "times", ("x", "x")),
            ("y2", "times", ("x", "x0")),
            ("z", "plus", ("y", "y")),
            ("z2", "plus", ("y2", "y2")),
        ]
    )
    nils = make_circuit(
        [
            ("zero", "zero", ()),
            ("n1", "plus", ("zero", "zero")),
            ("n2", "times", ("n1", "n1")),
            ("n3", "plus", ("n2", "n2")),
        ]
    )
    return [
        (sums, ["p", "q", "r", "m", "s"]),
        (towers, ["x", "x0", "y", "y2", "z", "z2"]),
        (nils, ["n1", "n2", "n3"]),
    ]


# ---------------------------------------------------------------------------
# Game corpora


def random_countdown(rng: Random, max_states: int = 3, max_total: int = 12) -> CountdownGame:
    """A countdown game with at most 3 announceable values per state."""
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    moves = []
    for state in states:
        for step in rng.sample(range(1, 5), rng.randint(0, 3)):
            for succ in rng.sample(states, rng.randint(1, n)):
                moves.append((state, step, succ))
    return make_countdown(states, "s0", rng.randint(1, max_total), moves)


def subset_sum_corpus(tops: tuple[int, ...] = (2, 4)):
    """Every game with the given player-pair counts, weights <= 4, T <= 16."""
    for count in tops:
        for weights in itertools.product(range(5), repeat=count):
            for total in range(17):
                yield weights, total
