"""Seeded query lists for the four benchmark workloads.

Each workload turns a seed into a list of ``Query`` objects. A query is
one user question: ``prepare`` hands it fresh inputs (a new model object,
so no validation result is cached from an earlier query), ``run`` asks
the question through the package's public API and is the only timed
part, ``check`` compares the answer with an independent oracle, and
``fingerprint`` renders every exact output as text for the pinned digest.

The lists are stratified: every round of a list holds a fixed number of
queries of each kind, and every model family fixes the sizes that decide
a query's cost (state count, largest cost, smallest probability), so two
seeds give lists of nearly the same cost while their models differ.
Nothing here imports the repository's tests, so editing a test cannot
move the baseline.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from random import Random
from typing import Any, Callable

HALF = Fraction(1, 2)
ONE = Fraction(1)

# Monte Carlo tolerance, in standard deviations; see ``_mc_within``.
MC_SIGMAS = 7

# Draws per Monte Carlo query.
MC_DRAWS = 2000

# Largest transition cost of quantile-search models.
QUANTILE_MAX_COST = 2

# Budget up to which quantile-search models must keep both choice states busy.
PAIR_PROBE = 200

# Processes per quantile-search list. Their costs spread over a factor of
# three even within a family, so the list must be long for two seeds to
# cost nearly the same: over ten seeds, the spread of the p90 latency at
# 48 processes was about one and a half times that at 96.
QUANTILE_PROCESSES = 96

# Truncation budget of the exact-chains cost distributions.
DISTRIBUTION_BUDGET = 1000

# Costs at which every exact-chains chain must be able to enter its target.
DENSE_WINDOW = range(30, 61)


class CheckFailed(Exception):
    """An answer disagreed with its oracle."""


@dataclass
class Query:
    kind: str
    prepare: Callable[[], tuple]
    run: Callable[..., Any]
    check: Callable[[Any], None]
    fingerprint: Callable[[Any], str]


def build(name: str, seed: int, api: Any, workdir: str) -> list[Query]:
    """Generate the query list of one workload.

    ``api`` carries the freshly imported package modules (``co``,
    ``gadgets``, ``cli``); queries call through their attributes, so the
    traced run's rebinding reaches them. ``workdir`` receives the model
    files that CLI queries read.
    """
    try:
        generate = GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(GENERATORS)}") from None
    return generate(Random(seed), api, workdir)


def _rounds(*streams: list[Query]) -> list[Query]:
    """Round-robin merge of equally long streams, so every prefix keeps the mix.

    A kind that should appear k times per round is passed as k streams.
    """
    assert len({len(s) for s in streams}) == 1
    return [query for group in zip(*streams) for query in group]


def _fresh(api: Any, process: Any) -> Any:
    """The same process as a new object, with no cached validation."""
    return api.co.CostProcess(
        process.states, process.initial, process.target, process.enabled, process.transitions
    )


def _rat(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Model families


def _cyclic_process(api: Any, rng: Random, states: int, max_cost: int, actions: int) -> Any:
    """A validated process with a control cycle, ``states`` states including
    the target, largest cost exactly ``max_cost`` and smallest probability
    exactly 1/2: the quantities that fix the a-priori quantile bound."""
    co = api.co
    while True:
        names = [f"q{i}" for i in range(states - 1)] + ["t"]
        entries = []
        for i, state in enumerate(names[:-1]):
            for action in ("a", "b")[: rng.randint(1, actions)]:
                forward = names[rng.randint(i + 1, states - 1)]
                entries.append((state, action, forward, rng.randint(0, max_cost), HALF))
                anywhere = names[rng.randrange(states - 1)]
                entries.append((state, action, anywhere, rng.randint(0, max_cost), HALF))
        if max(row[3] for row in entries) != max_cost:
            continue
        process = co.build_process(entries, "q0", "t")
        if co.validate(process).ok and not co.is_acyclic(process):
            return process


def _dense_process(api: Any, rng: Random, zero: str) -> Any:
    """A 3-state process (two choice states and the target) with two actions
    per state, costs up to ``QUANTILE_MAX_COST``, every probability 1/2, and
    cycles through both choice states at most accumulated costs.

    Quantile cost follows the number of reachable (state, cost) pairs, so
    the family pins it: both states must be reachable at over three
    quarters of the costs up to ``PAIR_PROBE``. ``zero`` fixes the
    zero-cost edges between choice states: "none", "acyclic", or "cycle"
    (a zero-cost cycle, whose levels need policy iteration).
    """
    co = api.co
    names = ("q0", "q1", "t")
    while True:
        entries = [
            (state, action, names[rng.randint(i + 1, 2)] if edge == 0 else names[rng.randrange(2)],
             rng.randint(0, QUANTILE_MAX_COST), HALF)
            for i, state in enumerate(names[:2])
            for action in ("a", "b")
            for edge in (0, 1)
        ]
        free = {(row[0], row[2]) for row in entries if row[3] == 0 and row[2] != "t"}
        cyclic = any(a == b for a, b in free) or {("q0", "q1"), ("q1", "q0")} <= free
        kind = "cycle" if cyclic else "acyclic" if free else "none"
        if kind != zero or max(row[3] for row in entries) != QUANTILE_MAX_COST:
            continue
        process = co.build_process(entries, "q0", "t")
        pairs, _ = _explore(process, PAIR_PROBE)
        if len(pairs) > 1.5 * PAIR_PROBE and co.validate(process).ok:
            return process


def _explore(process: Any, budget: int) -> tuple[set, set]:
    """The (state, cost) pairs with cost <= budget that some run visits
    outside the target, and the costs <= budget at which some run enters it."""
    start = (process.initial, 0)
    seen = {start}
    hits = set()
    frontier = [start]
    while frontier:
        state, cost = frontier.pop()
        for action in process.enabled[state]:
            for entry in process.transitions[(state, action)]:
                pair = (entry.successor, cost + entry.cost)
                if pair[1] > budget:
                    continue
                if entry.successor == process.target:
                    hits.add(pair[1])
                elif pair not in seen:
                    seen.add(pair)
                    frontier.append(pair)
    return seen, hits


def _cyclic_chain(api: Any, rng: Random, states: int) -> Any:
    """A validated chain with cycles, including zero-cost ones, that can
    enter the target at every cost of ``DENSE_WINDOW``.

    ``cost_distribution`` does a fixed amount of work per cost level that
    carries mass, so a chain that reaches the target only at every second
    or third cost costs a half or a third of one that reaches it at every
    cost; a list that mixed them freely would cost up to twice as much
    under one seed as under another.
    """
    co = api.co
    while True:
        names = [f"q{i}" for i in range(states - 1)] + ["t"]
        entries = []
        for i, state in enumerate(names[:-1]):
            share = rng.choice((HALF, Fraction(1, 3)))
            rest = 1 - share
            entries.append((state, names[rng.randint(i + 1, states - 1)], rng.randint(1, 3), share))
            entries.append((state, names[rng.randrange(states - 1)], rng.randint(0, 3), rest))
        chain = co.build_chain(entries, "q0", "t")
        if (set(DENSE_WINDOW) <= _explore(chain, DENSE_WINDOW[-1])[1]
                and co.validate(chain).ok and not co.is_acyclic(chain)):
            return chain


LEAVES = (("zero", "zero", ()), ("one", "one", ()))


def posslp_corpus(api: Any) -> list[tuple[Any, list[str]]]:
    """The circuits and gate lists of acceptance criterion 4: ties, zeros,
    strict orders and square gates (which make the comparison chains cyclic)."""
    sums = api.gadgets.make_circuit([
        *LEAVES,
        ("p", "plus", ("one", "one")),
        ("q", "plus", ("one", "zero")),
        ("r", "plus", ("zero", "zero")),
        ("m", "times", ("p", "q")),
        ("s", "times", ("p", "p")),
    ])
    towers = api.gadgets.make_circuit([
        *LEAVES,
        ("x", "plus", ("one", "one")),
        ("x0", "plus", ("zero", "one")),
        ("y", "times", ("x", "x")),
        ("y2", "times", ("x", "x0")),
        ("z", "plus", ("y", "y")),
        ("z2", "plus", ("y2", "y2")),
    ])
    nils = api.gadgets.make_circuit([
        ("zero", "zero", ()),
        ("n1", "plus", ("zero", "zero")),
        ("n2", "times", ("n1", "n1")),
        ("n3", "plus", ("n2", "n2")),
    ])
    return [
        (sums, ["p", "q", "r", "m", "s"]),
        (towers, ["x", "x0", "y", "y2", "z", "z2"]),
        (nils, ["n1", "n2", "n3"]),
    ]


def _random_circuit(api: Any, rng: Random, levels: int) -> Any:
    """An alternating circuit with ``levels`` levels of one or two gates."""
    rows = list(LEAVES)
    prior = ["zero", "one"]
    for level in range(1, levels + 1):
        kind = "plus" if level % 2 else "times"
        ids = []
        for pos in range(rng.randint(1, 2)):
            gid = f"g{level}_{pos}"
            rows.append((gid, kind, (rng.choice(prior), rng.choice(prior))))
            ids.append(gid)
        prior = ids
    return api.gadgets.make_circuit(rows)


def _fresh_circuit(circuit: Any) -> Any:
    """The same circuit as a new object, with no cached gate index."""
    return type(circuit)(circuit.gates, circuit.outputs)


# ---------------------------------------------------------------------------
# exact-chains


def _posslp_query(api: Any, circuit: Any, first: str, second: str) -> Query:
    co, gadgets = api.co, api.gadgets

    def run(work):
        chain, formula, _ = gadgets.posslp_instance(work, first, second)
        return co.solve_chain(chain, formula)

    def check(value):
        expected = gadgets.eval_circuit(circuit, first) >= gadgets.eval_circuit(circuit, second)
        _require((value >= HALF) == expected, f"posslp {first} vs {second}: got {value}")

    return Query("posslp", lambda: (_fresh_circuit(circuit),), run, check, _rat)


def _certificate_query(api: Any, circuit: Any, gate: str) -> Query:
    co, gadgets = api.co, api.gadgets

    def run(work):
        gate_id = gate
        if work.gate(gate_id).level % 2 == 0:
            work, gate_id = gadgets.lift_gate(work, gate_id)
        cert = gadgets.circuit_to_chain(work, gate_id)
        hit = co.solve_chain(cert.model, co.parse(f"x={cert.target_value}"))
        return hit, cert.scale

    def check(output):
        hit, scale = output
        _require(hit * scale == gadgets.eval_circuit(circuit, gate), f"certificate {gate}: {hit}*{scale}")

    return Query(
        "certificate",
        lambda: (_fresh_circuit(circuit),),
        run,
        check,
        lambda out: f"{_rat(out[0])}*{out[1]}",
    )


def _distribution_query(api: Any, chain: Any, budget: int) -> Query:
    co = api.co

    def check(dist):
        total = sum(dist.mass.values(), dist.overflow)
        _require(total == 1, f"distribution mass sums to {total}")
        _require(all(0 <= c <= budget and p > 0 for c, p in dist.mass.items()), "mass outside [0, budget]")

    def fingerprint(dist):
        cells = ",".join(f"{c}:{_rat(p)}" for c, p in sorted(dist.mass.items()))
        return f"{cells};{_rat(dist.overflow)}"

    return Query(
        "distribution",
        lambda: (_fresh(api, chain),),
        lambda work: co.cost_distribution(work, budget),
        check,
        fingerprint,
    )


# The criterion-4 comparisons asked in every pass, one per round. On a
# 2-core x86-64 VM under Python 3.11 the first four take about 100 ms and
# the next ten 53-65 ms, more than nearly every seeded query, so the
# list's p90 (its 12th largest latency of 115) falls inside that dense
# cluster of fixed queries and a seeded query that overtakes one moves it
# by a few percent at most. The remaining nine cover every circuit with
# ties, zeros and cheap orders. Comparisons of a level-1 gate with a
# product two levels up (165-380 ms each) are left out: they would make a
# pass so long that few passes fit in a run.
POSSLP_PAIRS = (
    ("y", "y"), ("y", "y2"), ("y2", "y"), ("y2", "y2"),
    ("m", "r"), ("s", "r"), ("y", "z"), ("y", "z2"), ("y2", "z"),
    ("y2", "z2"), ("z", "y"), ("z", "y2"), ("z2", "y"), ("z2", "y2"),
    ("p", "p"), ("q", "r"), ("r", "m"), ("m", "m"), ("x", "x0"),
    ("z", "z2"), ("n1", "n2"), ("n2", "n3"), ("n3", "n1"),
)


def _exact_chains(rng: Random, api: Any, workdir: str) -> list[Query]:
    rounds = len(POSSLP_PAIRS)
    circuit_of = {gate: circuit for circuit, gates in posslp_corpus(api) for gate in gates}
    posslp_fixed = [_posslp_query(api, circuit_of[a], a, b) for a, b in POSSLP_PAIRS]
    # One-level circuits keep the seeded comparisons cheap next to the fixed
    # ones, so the seed barely moves a round's cost; two per round put the
    # median latency inside their cluster rather than at its edge.
    posslp_random = [[], []]
    certificates = []
    for index in range(rounds):
        for stream in posslp_random:
            circuit = _random_circuit(api, rng, 1)
            inner = [g.id for g in circuit.gates if g.kind in ("plus", "times")]
            stream.append(_posslp_query(api, circuit, rng.choice(inner), rng.choice(inner)))
        circuit = _random_circuit(api, rng, 1 + index % 3)
        inner = [g.id for g in circuit.gates if g.kind in ("plus", "times")]
        certificates.append(_certificate_query(api, circuit, rng.choice(inner)))
    # Three-state chains that carry mass at nearly every cost up to 1000:
    # each takes about 10-60 ms, together about a third of a pass, and
    # over ten seeds their total moves the pass by a few percent.
    distributions = [
        _distribution_query(api, _cyclic_chain(api, rng, 3), DISTRIBUTION_BUDGET)
        for _ in range(rounds)
    ]
    return _rounds(posslp_fixed, *posslp_random, certificates, distributions)


# ---------------------------------------------------------------------------
# mdp-decide


def _scheduler_text(api: Any, scheduler: Any) -> str:
    return json.dumps(api.co.scheduler_to_json(scheduler), separators=(",", ":"))


def _subset_sum_query(api: Any, weights: list[int], total: int, universal: bool) -> Query:
    co, gadgets = api.co, api.gadgets

    if universal:
        def run():
            process, budget, tau = gadgets.universal_qsubsetsum_to_process(weights, total)
            result = co.solve_min(process, co.parse(f"x<={budget - 1}"))
            return result.value < tau, result.scheduler
    else:
        def run():
            process, budget, tau = gadgets.qsubsetsum_to_process(weights, total)
            return co.decide(process, co.parse(f"x<={budget}"), tau, "exists")

    def check(output):
        expected = gadgets.qsubsetsum_brute(weights, total)
        _require(output[0] is expected, f"subset-sum {weights} T={total}: got {output[0]}")

    return Query(
        "subset-sum-forall" if universal else "subset-sum-exists",
        tuple,
        run,
        check,
        lambda out: f"{out[0]};{_scheduler_text(api, out[1])}",
    )


def _random_game(api: Any, rng: Random) -> Any:
    count = rng.randint(2, 3)
    states = [f"s{i}" for i in range(count)]
    moves = []
    for state in states:
        for step in rng.sample(range(1, 5), rng.randint(1, 3)):
            for succ in rng.sample(states, rng.randint(1, count)):
                moves.append((state, step, succ))
    return api.gadgets.make_countdown(states, "s0", rng.randint(6, 12), moves)


def _countdown_query(api: Any, game: Any) -> Query:
    co, gadgets = api.co, api.gadgets

    def run():
        process, total = gadgets.countdown_to_process(game)
        return co.decide_qualitative(process, total)

    def check(output):
        _require(output[0] is gadgets.countdown_brute(game), f"countdown game: got {output[0]}")

    return Query(
        "countdown", tuple, run, check, lambda out: f"{out[0]};{_scheduler_text(api, out[1])}"
    )


def _random_formula(api: Any, rng: Random) -> Any:
    co = api.co
    left = co.Atom(rng.randint(0, 8))
    right = co.Atom(rng.randint(0, 8))
    shape = rng.randrange(3)
    if shape == 0:
        return left
    if shape == 1:
        return co.And(co.Not(left), right)
    return co.Or(left, co.Not(right))


def _optimum_query(api: Any, process: Any, formula: Any, mode: str) -> Query:
    co = api.co
    solver_name = "solve_max" if mode == "max" else "solve_min"

    def check(result):
        # Duality: the best chance of phi is one minus the worst chance of !phi.
        other = co.solve_min if mode == "max" else co.solve_max
        dual = other(_fresh(api, process), co.Not(formula)).value
        _require(result.value == 1 - dual, f"{solver_name}: {result.value} vs dual {dual}")

    return Query(
        "optimum",
        lambda: (_fresh(api, process),),
        lambda work: getattr(co, solver_name)(work, formula),
        check,
        lambda result: f"{_rat(result.value)};{_scheduler_text(api, result.scheduler)}",
    )


def _bound_query(api: Any, process: Any, tau: Fraction) -> Query:
    co = api.co

    def run(work):
        bound = co.budget_upper_bound(work, tau).B_bound
        return bound, co.solve_min(work, co.parse(f"x<={bound}")).value

    def check(output):
        _require(output[1] >= tau, f"bound {output[0]} gives only {output[1]} < {tau}")

    return Query(
        "bound",
        lambda: (_fresh(api, process),),
        run,
        check,
        lambda out: f"{out[0]};{_rat(out[1])}",
    )


def _cli_query(api: Any, path: str, weights: list[int], total: int) -> Query:
    """``costodds solve --json`` on a subset-sum model file written at set-up."""
    co, gadgets, cli = api.co, api.gadgets, api.cli
    _, budget, tau = gadgets.qsubsetsum_to_process(weights, total)
    argv = ["solve", "--model", path, "--formula", f"x<={budget}", "--quant", "exists",
            "--tau", _rat(tau), "--json"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(output):
        code, text = output
        expected = gadgets.qsubsetsum_brute(weights, total)
        report = json.loads(text)
        _require(report["verdict"] is expected, f"cli verdict {report['verdict']}, oracle {expected}")
        _require(code == (0 if expected else 1), f"cli exit code {code}")

    return Query("cli", tuple, run, check, lambda out: f"{out[0]};{out[1]}")


def _subset_sum_instance(rng: Random) -> tuple[list[int], int]:
    count = rng.choice((2, 4))
    weights = [rng.randint(0, 4) for _ in range(count)]
    weights[rng.randrange(count)] = rng.randint(1, 4)
    return weights, rng.randint(0, count * max(weights))


def _mdp_decide(rng: Random, api: Any, workdir: str) -> list[Query]:
    co, gadgets = api.co, api.gadgets
    rounds = 200
    exists = [[], [], []]
    universal = [[], []]
    games = [[], []]
    optima, bounds, clis = [], [], []
    for index in range(rounds):
        for stream in exists:
            stream.append(_subset_sum_query(api, *_subset_sum_instance(rng), False))
        for stream in universal:
            stream.append(_subset_sum_query(api, *_subset_sum_instance(rng), True))
        for stream in games:
            stream.append(_countdown_query(api, _random_game(api, rng)))
        process = _cyclic_process(api, rng, states=4, max_cost=3, actions=2)
        optima.append(_optimum_query(api, process, _random_formula(api, rng), rng.choice(("max", "min"))))
        small = _cyclic_process(api, rng, states=3, max_cost=3, actions=2)
        bounds.append(_bound_query(api, small, rng.choice((Fraction(1, 4), HALF))))
        weights, total = _subset_sum_instance(rng)
        path = os.path.join(workdir, f"qss-{index}.json")
        model, _, _ = gadgets.qsubsetsum_to_process(weights, total)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(co.model_to_json(model), handle)
        clis.append(_cli_query(api, path, weights, total))
    return _rounds(*exists, *universal, *games, optima, bounds, clis)


# ---------------------------------------------------------------------------
# quantile-search


def _quantile_query(api: Any, process: Any, tau: Fraction, quantifier: str) -> Query:
    co = api.co
    solver = co.solve_max if quantifier == "exists" else co.solve_min

    def value_at(budget: int) -> Fraction:
        return solver(_fresh(api, process), co.parse(f"x<={budget}")).value

    def check(answer):
        if answer is None:
            # Infinite: no finite budget is met almost surely; the worst-case
            # fixpoint's cap is past every finite answer.
            _require(tau == 1, f"infinite answer at tau {tau}")
            k_max = max(e.cost for rows in process.transitions.values() for e in rows)
            _require(value_at(len(process.states) * k_max + 1) < 1, "finite answer exists")
            return
        _require(value_at(answer) >= tau, f"budget {answer} misses tau {tau}")
        _require(answer == 0 or value_at(answer - 1) < tau, f"budget {answer} is not the smallest")

    return Query(
        "quantile",
        lambda: (_fresh(api, process),),
        lambda work: co.quantile_query(work, tau, quantifier),
        check,
        lambda answer: "inf" if answer is None else str(answer),
    )


def _quantile_search(rng: Random, api: Any, workdir: str) -> list[Query]:
    taus = (HALF, Fraction(9, 10), Fraction(99, 100))
    queries = []
    for index in range(QUANTILE_PROCESSES):
        process = _dense_process(api, rng, ("none", "acyclic", "cycle")[index % 3])
        for tau, quantifier in product(taus, ("exists", "forall")):
            queries.append(_quantile_query(api, process, tau, quantifier))
        queries.append(_quantile_query(api, process, ONE, ("exists", "forall")[index % 2]))
    return queries


# ---------------------------------------------------------------------------
# monte-carlo


def _mc_within(hits: int, draws: int, exact: Fraction) -> bool:
    """Is the hit count within MC_SIGMAS standard deviations of its mean?

    The additive MC_SIGMAS**2 / 3 is Bernstein's correction for skewed
    counts: together they bound a false alarm by 2 exp(-MC_SIGMAS**2 / 2).
    Degenerate probabilities must be hit exactly.
    """
    if exact in (0, 1):
        return hits == exact * draws
    mean = float(exact) * draws
    sigma = math.sqrt(mean * (1 - float(exact)))
    return abs(hits - mean) <= MC_SIGMAS * sigma + MC_SIGMAS**2 / 3


def _mc_query(api: Any, process: Any, scheduler: Any, formula: Any, seed: int) -> Query:
    co = api.co
    exact: list[Fraction] = []

    def check(report):
        if not exact:
            chain = process if scheduler is None else co.induce_chain(_fresh(api, process), scheduler)
            exact.append(co.solve_chain(chain, formula))
        _require(report.guard_trips == 0 and report.n == MC_DRAWS, f"{report.guard_trips} guard trips")
        _require(
            _mc_within(report.hits, report.n, exact[0]),
            f"{report.hits}/{report.n} hits, exact {exact[0]}",
        )

    return Query(
        "estimate",
        lambda: (_fresh(api, process),),
        lambda work: co.estimate(work, scheduler, formula, MC_DRAWS, seed),
        check,
        lambda report: f"{report.n};{report.hits};{report.guard_trips}",
    )


def mc_fixtures(api: Any) -> list[tuple[Any, Any, Any]]:
    """(process, scheduler, formula) rows of acceptance criterion 13."""
    co = api.co
    deterministic = co.build_chain([("q0", "t", 4, ONE)], "q0", "t")
    geometric = co.build_chain([("q0", "q0", 1, HALF), ("q0", "t", 0, HALF)], "q0", "t")
    choice = co.build_process(
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
    best = co.solve_max(choice, co.parse("x<=5"))
    return [
        (deterministic, None, co.parse("x<=5")),
        (geometric, None, co.parse("x<=1")),
        (choice, best.scheduler, co.parse("x<=5")),
    ]


def _monte_carlo(rng: Random, api: Any, workdir: str) -> list[Query]:
    co = api.co
    fixtures = mc_fixtures(api)
    rows = []
    for _ in range(100):
        process = _cyclic_process(api, rng, states=5, max_cost=3, actions=2)
        formula = co.parse(f"x<={rng.randint(2, 10)}")
        solver = co.solve_max if rng.random() < 0.5 else co.solve_min
        rows.append((process, solver(process, formula).scheduler, formula))
    queries = []
    for index, (process, scheduler, formula) in enumerate(rows):
        fixed = fixtures[index % len(fixtures)]
        sample_seed = rng.getrandbits(32)
        queries.append(_mc_query(api, *fixed, sample_seed))
        queries.append(_mc_query(api, process, scheduler, formula, sample_seed))
    return queries


GENERATORS: dict[str, Callable[[Random, Any, str], list[Query]]] = {
    "exact-chains": _exact_chains,
    "mdp-decide": _mdp_decide,
    "quantile-search": _quantile_search,
    "monte-carlo": _monte_carlo,
}
