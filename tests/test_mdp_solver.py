"""Optimal scheduling over processes: values, witnesses, dual routes."""

import dataclasses
import gc
import itertools
import sys
import time
import weakref
from fractions import Fraction
from random import Random

import pytest

import costodds as co
from costodds import (
    TOP,
    ModelFormatError,
    NotValidatedError,
    Scheduler,
    SchedulerGapError,
    ThresholdRangeError,
)
from costodds import mdp_solver
from costodds.linalg import _best, resolve_component, strongly_connected

from helpers import (
    HALF,
    ONE,
    UNREACHABLE_WIDE_ROWS,
    check_optimal,
    choice_example,
    choice_points,
    chain_value_oracle,
    fresh,
    mixed_denominator_process,
    optimal_value_oracle,
    random_branching_process,
    random_chain,
    random_formula,
    random_process,
    two_cycle_process,
)


def all_stationary_values(formula):
    """Every deterministic choice at q1's two decision points, evaluated
    by inducing the chain and solving it with the elimination oracle."""
    process = choice_example()
    values = {}
    for low in ("a1", "a2"):
        for high in ("a1", "a2"):
            scheduler = Scheduler(
                budget=co.max_constant(formula),
                entries={("q1", 1): low, ("q1", 3): high, ("q1", TOP): "a1"},
            )
            chain = co.induce_chain(process, scheduler)
            values[(low, high)] = chain_value_oracle(chain, formula)
    return values


def test_choice_example_max_value_and_witness():
    result = co.solve_max(choice_example(), co.parse("x<=5"))
    assert result.value == Fraction(3, 4)
    assert dict(result.scheduler.entries) == {("q1", 1): "a1", ("q1", 3): "a2"}


def test_choice_example_min_value_and_witness():
    result = co.solve_min(choice_example(), co.parse("x<=5"))
    assert result.value == Fraction(1, 4)
    assert dict(result.scheduler.entries) == {("q1", 1): "a2", ("q1", 3): "a1"}


def test_choice_example_against_full_enumeration():
    values = all_stationary_values(co.parse("x<=5"))
    assert values == {
        ("a1", "a1"): HALF,
        ("a1", "a2"): Fraction(3, 4),
        ("a2", "a1"): Fraction(1, 4),
        ("a2", "a2"): HALF,
    }
    assert co.solve_max(choice_example(), co.parse("x<=5")).value == max(values.values())
    assert co.solve_min(choice_example(), co.parse("x<=5")).value == min(values.values())


def test_tight_budget_forces_the_cheap_arm():
    result = co.solve_max(choice_example(), co.parse("x<=3"))
    assert result.value == Fraction(1, 4)
    assert result.scheduler.entries[("q1", 1)] == "a2"


def test_induced_chain_reproduces_the_optimum():
    process = choice_example()
    formula = co.parse("x<=5")
    result = co.solve_max(process, formula)
    chain = co.induce_chain(process, result.scheduler)
    assert co.is_chain(chain)
    assert co.validate(chain).ok
    assert chain_value_oracle(chain, formula) == result.value
    assert co.solve_chain(chain, formula) == result.value


def test_decide_thresholds():
    process = choice_example()
    formula = co.parse("x<=5")
    assert co.decide(process, formula, Fraction(3, 4), "exists")[0]
    assert not co.decide(process, formula, Fraction(4, 5), "exists")[0]
    assert co.decide(process, formula, Fraction(1, 4), "forall")[0]
    assert not co.decide(process, formula, Fraction(3, 4), "forall")[0]


def test_decide_argument_checks():
    process = choice_example()
    formula = co.parse("x<=5")
    with pytest.raises(ThresholdRangeError):
        co.decide(process, formula, Fraction(3, 2), "exists")
    with pytest.raises(ValueError):
        co.decide(process, formula, HALF, "sometimes")


def test_decide_qualitative():
    sure = co.build_chain([("q0", "t", 4, ONE)], "q0", "t")
    assert co.decide_qualitative(sure, 4)[0]
    assert not co.decide_qualitative(sure, 5)[0]
    with pytest.raises(ValueError):
        co.decide_qualitative(sure, -1)
    with pytest.raises(ValueError):
        co.decide_qualitative(sure, True)


def test_huge_totals_and_scheduler_costs_pass_the_digit_cap(digit_cap):
    huge = 10**5000
    sure = co.build_chain([("q0", "t", huge, ONE)], "q0", "t")
    assert co.decide_qualitative(sure, huge)[0]
    assert not co.decide_qualitative(sure, huge - 1)[0]
    doc = co.scheduler_to_json(Scheduler(budget=huge, entries={("q1", huge): "a2"}))
    sys.set_int_max_str_digits(0)  # to build the expected text; the fixture restores it
    assert doc == [{"state": "q1", "cost": str(huge), "action": "a2"}]


def test_induced_chains_name_costs_past_the_digit_cap(digit_cap):
    huge = 10**5000
    process = co.build_process(
        [("q0", "a", "q1", huge, ONE), ("q1", "a", "t", 0, ONE), ("q1", "b", "t", 2, ONE)],
        "q0",
        "t",
    )
    formula = co.Atom(huge + 1)
    result = co.solve_max(process, formula)
    induced = co.induce_chain(process, result.scheduler)
    assert "q1@1" + "0" * 5000 in induced.states
    assert co.solve_chain(induced, formula) == result.value == 1


def test_solvers_reject_invalid_processes():
    broken = co.build_process([("q0", "a", "t", 1, HALF)], "q0", "t")
    with pytest.raises(NotValidatedError):
        co.solve_max(broken, co.parse("x<=1"))


def test_scheduler_entries_only_at_choice_states():
    result = co.solve_max(choice_example(), co.parse("x<=5"))
    for state, _ in result.scheduler.entries:
        assert len(choice_example().enabled[state]) > 1


def test_scheduler_action_at():
    result = co.solve_max(choice_example(), co.parse("x<=5"))
    scheduler = result.scheduler
    process = choice_example()
    assert scheduler.action_at(process, "q0", 0) == "a"
    assert scheduler.action_at(process, "q1", 1) == "a1"
    assert scheduler.action_at(process, "q1", 3) == "a2"
    with pytest.raises(SchedulerGapError):
        scheduler.action_at(process, "q1", 2)


def test_scheduler_naming_a_disabled_action_is_a_gap():
    process = choice_example()
    scheduler = Scheduler(5, {("q1", 1): "zzz", ("q1", 3): "a1"})
    with pytest.raises(SchedulerGapError, match="zzz"):
        scheduler.action_at(process, "q1", 1)
    with pytest.raises(SchedulerGapError, match="zzz"):
        co.induce_chain(process, scheduler)


def test_scheduler_json_round_trip():
    result = co.solve_max(choice_example(), co.parse("x<=5"))
    doc = co.scheduler_to_json(result.scheduler)
    assert doc == [
        {"state": "q1", "cost": "1", "action": "a1"},
        {"state": "q1", "cost": "3", "action": "a2"},
    ]
    back = co.scheduler_from_json(doc)
    assert dict(back.entries) == dict(result.scheduler.entries)


def test_scheduler_from_json_rejects_malformed_rows(digit_cap):
    with pytest.raises(ModelFormatError):
        co.scheduler_from_json({"state": "q1"})
    for cost in ("x", "²", "1" * 5000):
        with pytest.raises(ModelFormatError):
            co.scheduler_from_json([{"state": "q1", "cost": cost, "action": "a"}])
    with pytest.raises(ModelFormatError):
        co.scheduler_from_json([{"state": "q1", "cost": "1"}])


def test_top_entries_serialize():
    scheduler = Scheduler(budget=2, entries={("q1", TOP): "a2"})
    doc = co.scheduler_to_json(scheduler)
    assert doc == [{"state": "q1", "cost": "top", "action": "a2"}]
    assert dict(co.scheduler_from_json(doc).entries) == {("q1", TOP): "a2"}


def test_chains_collapse_max_min_and_solve_chain():
    rng = Random(17)
    for _ in range(25):
        chain = random_chain(rng)
        formula = random_formula(rng)
        direct = chain_value_oracle(chain, formula)
        assert co.solve_chain(chain, formula) == direct
        assert co.solve_max(chain, formula).value == direct
        assert co.solve_min(chain, formula).value == direct


def test_values_match_exhaustive_scheduler_enumeration():
    rng = Random(18)
    for _ in range(50):
        process = random_branching_process(rng)
        formula = random_formula(rng)
        assert co.solve_max(process, formula).value == optimal_value_oracle(
            process, formula, "max"
        )
        assert co.solve_min(process, formula).value == optimal_value_oracle(
            process, formula, "min"
        )


def test_target_edges_past_the_budget_take_the_tail_verdict():
    # An edge that passes the remaining budget adds its weight times the
    # tail verdict before the target is looked at. These formulas accept
    # every cost past their largest constant, so a target edge that jumps
    # there must count as accepted.
    rng = Random(22)
    texts = ("x>={k}", "!(x<={k})", "x<={a} | x>={k}")
    jumps = 0
    for _ in range(40):
        process = random_branching_process(rng, max_cost=4)
        k = rng.randint(1, 3)
        formula = co.parse(rng.choice(texts).format(k=k, a=rng.randint(0, k - 1)))
        assert co.max_constant(formula) + 1 in co.normalize(formula)
        jumps += any(
            e.successor == process.target and e.cost > k
            for edges in process.transitions.values()
            for e in edges
        )
        for solver, mode in ((co.solve_max, "max"), (co.solve_min, "min")):
            result = solver(process, formula)
            assert result.value == optimal_value_oracle(process, formula, mode)
            check_optimal(process, formula, result)
    assert jumps >= 10


def test_max_dominates_min():
    rng = Random(19)
    for _ in range(30):
        process = random_branching_process(rng)
        formula = random_formula(rng)
        assert co.solve_max(process, formula).value >= co.solve_min(process, formula).value


def test_duality_max_is_one_minus_min_of_negation():
    rng = Random(20)
    for _ in range(30):
        process = random_branching_process(rng)
        formula = random_formula(rng)
        assert co.solve_max(process, formula).value == 1 - co.solve_min(
            process, co.Not(formula)
        ).value


def test_witness_schedulers_attain_the_reported_value():
    rng = Random(21)
    for _ in range(30):
        process = random_branching_process(rng)
        formula = random_formula(rng)
        for solver in (co.solve_max, co.solve_min):
            result = solver(process, formula)
            induced = co.induce_chain(process, result.scheduler)
            assert chain_value_oracle(induced, formula) == result.value


def has_zero_cost_cycle(process):
    def free_successors(state):
        return [
            e.successor
            for a in process.enabled[state]
            for e in process.transitions[(state, a)]
            if e.cost == 0 and e.successor != process.target
        ]

    return any(cyclic for _, cyclic in strongly_connected(process.states, free_successors))


def test_witnesses_pass_the_checker_on_zero_cost_cycles():
    rng = Random(35)
    checked = 0
    while checked < 300:
        process = random_process(rng)
        if not has_zero_cost_cycle(process):
            continue
        formula = random_formula(rng)
        for solver in (co.solve_max, co.solve_min):
            check_optimal(process, formula, solver(process, formula))
        checked += 1
    process = two_cycle_process()
    for formula in map(co.parse, ("x<=0", "x<=2", "x>=3 & x<=5")):
        for solver in (co.solve_max, co.solve_min):
            check_optimal(process, formula, solver(process, formula))


def test_witnesses_pass_the_checker_with_mixed_denominators():
    # Policy evaluation scales each row to ints by the lcm of all its
    # denominators; rows mixing 2, 3, 7 and 2^301 catch a partial scale.
    rng = Random(36)
    checked = 0
    while checked < 200:
        process = mixed_denominator_process(rng)
        if not has_zero_cost_cycle(process):
            continue
        formula = random_formula(rng)
        for solver in (co.solve_max, co.solve_min):
            check_optimal(process, formula, solver(process, formula))
        checked += 1


def test_an_unreachable_wide_state_leaves_the_values_alone():
    # Each chain row also gets an action "b" that costs one more; u and
    # its 2^301 denominator stay unreachable under both.
    def two_actions(rows):
        pairs = (("a", 0), ("b", 1))
        entries = [(q, a, s, c + extra, p) for q, s, c, p in rows for a, extra in pairs]
        return co.build_process(entries, "q0", "t")

    wide = two_actions(UNREACHABLE_WIDE_ROWS)
    narrow = two_actions([row for row in UNREACHABLE_WIDE_ROWS if row[0] != "u"])
    for formula in map(co.parse, ("x<=0", "x<=3", "x>=2 & x<=6", "x=4")):
        for solver in (co.solve_max, co.solve_min):
            results = [solver(process, formula) for process in (wide, narrow)]
            assert results[0].value == results[1].value
            for process, result in zip((wide, narrow), results):
                check_optimal(process, formula, result)


@pytest.mark.parametrize("budget", [100, 200, 300])
def test_witnesses_pass_the_checker_at_budgets_in_the_hundreds(budget):
    # Wide denominators compound over hundreds of cost levels, so values
    # carry numerators of thousands of bits through the integer kernel.
    rng = Random(budget)
    checked = 0
    while checked < 3:
        process = mixed_denominator_process(rng, max_states=5)
        if sum(len(process.enabled[q]) > 1 for q in process.states) < 2:
            continue
        for text in (f"x<={budget}", f"x>={budget // 2} & x<={budget}"):
            formula = co.parse(text)
            for solver in (co.solve_max, co.solve_min):
                check_optimal(process, formula, solver(process, formula))
        checked += 1


def test_kernel_breaks_ties_low_and_keeps_values_reduced():
    # Rows as IntTable holds them, at cost 0 with nothing left: a zero-cost
    # edge into t is a constant, and u = 1/3 is an outside value. Each
    # action carries its own D_a. b = (2 + 2a + 2u)/6, and a picks u
    # (1/1), b (1/1), or the constant 2/3. Under the max, a = b = 2/3
    # both through b and through the constant, so the tie goes to index
    # 1; policy iteration reaches the constant first.
    level = (0, 0, co.normalize(co.Atom(0)), 0, "t")
    rows = {
        "a": ((1, (("u", 0, 1),)), (1, (("b", 0, 1),)), (3, (("t", 0, 2),))),
        "b": ((6, (("t", 0, 2), ("a", 0, 2), ("u", 0, 2))),),
    }
    values = {("u", 0): (1, 3)}
    assert resolve_component(["a", "b"], rows, level, values, "max") == [1, 0]
    assert values == {("u", 0): (1, 3), ("a", 0): (2, 3), ("b", 0): (2, 3)}
    values = {("u", 0): (1, 3)}
    assert resolve_component(["a", "b"], rows, level, values, "min") == [0, 0]
    assert values == {("u", 0): (1, 3), ("a", 0): (1, 3), ("b", 0): (5, 9)}
    # A lone member: the constant 2/6 ties the edge to u.
    lone = ((6, (("t", 0, 2),)), (6, (("u", 0, 6),)))
    assert _best(lone, level, {("u", 0): (1, 3)}, "min") == ((1, 3), 0)
    # Ties across denominators: 1/2 over 2 against 2/4 over 4, either way round.
    pairs = (((2, (("t", 0, 1),)), (4, (("t", 0, 2),))), ((4, (("t", 0, 2),)), (2, (("t", 0, 1),))))
    for mode, actions in itertools.product(("max", "min"), pairs):
        assert _best(actions, level, {}, mode) == ((1, 2), 0)


def test_constant_formulas_solve_to_zero_or_one():
    process = choice_example()
    assert co.solve_max(process, co.parse("x>=0")).value == 1
    assert co.solve_min(process, co.parse("x>=0")).value == 1
    assert co.solve_max(process, co.parse("x<=3 & x>=5")).value == 0


@pytest.mark.parametrize("text, value", [("x<=0", 1), ("x>=1", 0), ("x=0", 1), ("x<=3", 1)])
def test_runs_that_start_at_the_target(text, value):
    # q1's choice is never reached: the value is the verdict at cost 0
    # and the scheduler is empty up to the formula's budget.
    base = choice_example()
    process = co.CostProcess(base.states, "t", "t", base.enabled, base.transitions)
    formula = co.parse(text)
    for solver, mode in ((co.solve_max, "max"), (co.solve_min, "min")):
        result = solver(process, formula)
        assert result == co.SolveResult(
            Fraction(value), Scheduler(co.max_constant(formula), {}), mode
        )
        assert type(result.value) is Fraction
        check_optimal(process, formula, result)


def test_saturated_choices_use_the_top_entry():
    # With bound 2 the cost-3 arrival at q1 is already saturated (and
    # worthless), so it is recorded under TOP; the cost-1 arrival still
    # has a real choice and picks the cheap arm of a2.
    process = choice_example()
    result = co.solve_max(process, co.parse("x<=2"))
    assert result.value == Fraction(1, 4)
    assert set(result.scheduler.entries) == {("q1", 1), ("q1", TOP)}
    assert result.scheduler.entries[("q1", 1)] == "a2"


def test_cost_utility_decision():
    process = co.build_process([("q0", "a", "t", 2, ONE, 3)], "q0", "t")
    assert co.decide_cost_utility(process, 2, 3)
    assert not co.decide_cost_utility(process, 1, 3)
    assert not co.decide_cost_utility(process, 2, 4)


def test_cost_utility_zero_cost_utility_loop():
    # Each free lap of q0 earns one utility; leaving through q1 costs 2
    # and earns 3, so the utility is 3 plus a geometric lap count.
    rows = [
        ("q0", "loop", "q0", 0, HALF, 1),
        ("q0", "loop", "q1", 0, HALF, 0),
        ("q0", "jump", "t", 5, ONE, 9),
        ("q1", "go", "t", 2, ONE, 3),
    ]
    process = co.build_process(rows, "q0", "t")
    assert co.decide_cost_utility(process, 2, 3)
    assert not co.decide_cost_utility(process, 4, 4)
    assert co.decide_cost_utility(process, 5, 4)
    assert co.decide_cost_utility(process, 5, 9)
    assert not co.decide_cost_utility(process, 5, 10)
    assert not co.decide_cost_utility(process, 1, 0)


def test_cost_utility_binding_cap():
    # "rich" always earns 6 but costs 4 half of the time.
    rows = [
        ("q0", "cheap", "t", 1, ONE, 1),
        ("q0", "rich", "t", 4, HALF, 6),
        ("q0", "rich", "t", 2, HALF, 6),
    ]
    process = co.build_process(rows, "q0", "t")
    assert co.decide_cost_utility(process, 1, 1)
    assert co.decide_cost_utility(process, 4, 6)
    assert not co.decide_cost_utility(process, 3, 6)
    assert not co.decide_cost_utility(process, 3, 2)
    assert co.decide_cost_utility(process, 3, 1)


def test_cost_utility_cap_zero_prunes_a_huge_goal():
    # Every lap of the utility cycle costs 1, so cap 0 leaves one pair.
    rows = [("q0", "a", "q0", 1, HALF, 1), ("q0", "a", "t", 0, HALF, 0)]
    process = co.build_process(rows, "q0", "t")
    start = time.perf_counter()
    assert not co.decide_cost_utility(process, 0, 10**9)
    assert time.perf_counter() - start < 1
    assert not co.decide_cost_utility(process, 0, 0)


def test_cost_utility_huge_cap_on_a_positive_cost_loop():
    # Action a pays 1 per lap of s until a fair coin leaves; b leaves at
    # once for 3 and earns the only utility. A huge cap costs nothing.
    rows = [
        ("s", "a", "s", 1, HALF),
        ("s", "a", "t", 1, HALF),
        ("s", "b", "t", 3, ONE, 1),
    ]
    process = co.build_process(rows, "s", "t")
    for goal, verdict in ((0, True), (1, True), (2, False)):
        start = time.perf_counter()
        assert co.decide_cost_utility(process, 10**9, goal) is verdict
        assert time.perf_counter() - start < 1


def test_cost_utility_argument_checks():
    process = co.build_process([("q0", "a", "t", 2, ONE, 3)], "q0", "t")
    for cap, goal in ((-1, 0), (0, True), (1.0, 1)):
        with pytest.raises(ValueError):
            co.decide_cost_utility(process, cap, goal)
    with pytest.raises(NotValidatedError):
        co.decide_cost_utility(co.build_process([("q0", "a", "t", 1, HALF)], "q0", "t"), 1, 1)
    assert co.decide_cost_utility(co.build_chain([], "t", "t"), 0, 0)
    assert not co.decide_cost_utility(co.build_chain([], "t", "t"), 0, 1)


def test_a_successor_missing_from_the_graph_is_lost():
    # "gone" is not a vertex, so reaching it is worth the ceiling.
    lost = {"v": [[("gone", 1)]]}
    for mode in ("min", "max"):
        assert mdp_solver._min_max_cost(lost, "v", mode, 10) is None
    # A second action reaches "z", held at 0 by its zero-cost self-loop.
    graph = {"v": [[("gone", 1)], [("z", 3)]], "z": [[("z", 0)]]}
    assert mdp_solver._min_max_cost(graph, "v", "min", 10) == 3
    assert mdp_solver._min_max_cost(graph, "v", "max", 10) is None


def every_scheduler_value(process, formula):
    """The value of every deterministic cost-aware scheduler: one choice per
    choice point below the saturation, each induced chain scored by the
    elimination oracle."""
    budget = co.max_constant(formula)
    points = choice_points(process, budget + 1)
    saturated = {
        (q, TOP): process.enabled[q][0] for q in process.states if len(process.enabled[q]) > 1
    }
    values = []
    for actions in itertools.product(*(process.enabled[q] for q, _ in points)):
        scheduler = Scheduler(budget, {**saturated, **dict(zip(points, actions))})
        values.append(chain_value_oracle(co.induce_chain(process, scheduler), formula))
    return values


@pytest.mark.parametrize("text", ["x<=0", "x<=1", "x<=2", "x=2", "x<=3", "x>=2 & x<=4"])
def test_zero_cost_components_match_every_scheduler(text):
    process = two_cycle_process()
    formula = co.parse(text)
    values = every_scheduler_value(process, formula)
    best = co.solve_max(process, formula)
    worst = co.solve_min(process, formula)
    assert best.value == max(values)
    assert worst.value == min(values)
    for result in (best, worst):
        induced = co.induce_chain(process, result.scheduler)
        assert chain_value_oracle(induced, formula) == result.value


def assert_same_as_fresh(process, formula, solver):
    result = solver(process, formula)
    assert result == solver(fresh(process), formula)
    return result


def test_deep_pass_over_pairs():
    # 20 002 (state, cost) pairs in one chain of components.
    chain = co.build_chain([("q0", "q0", 1, HALF), ("q0", "t", 0, HALF)], "q0", "t")
    assert co.solve_max(chain, co.parse("x<=20000")).value == 1 - Fraction(1, 2**20001)
    # The sweep's epochs hold one entry per reached state and epoch, per
    # mode, and later x<=B solves on the object add only epochs it lacks.
    epochs = mdp_solver._SWEEPS[chain].epochs
    values, choices = epochs["max"]
    assert len(values) == len(choices) == 20001
    assert epochs["min"] == ({}, {})
    for bound in (20000, 7, 20001, 0):
        assert assert_same_as_fresh(chain, co.parse(f"x<={bound}"), co.solve_max).value == (
            1 - Fraction(1, 2 ** (bound + 1))
        )
    assert len(values) == 20002
    # Other formulas walk the levels with a table of their own.
    assert_same_as_fresh(chain, co.parse("x>=3 & x<=9"), co.solve_max)
    assert len(values) == 20002


@pytest.mark.parametrize("order", ["descending", "ascending", "shuffled"])
def test_epoch_table_answers_as_a_fresh_solve(order):
    # One process object serves x<=B solves in every order, between other
    # formulas and in both modes; each answer must equal a fresh object's.
    rng = Random(f"epochs-{order}")
    draws = [random_process, random_branching_process, mixed_denominator_process]
    for trial in range(45):
        process = draws[trial % 3](rng)
        budgets = rng.sample(range(13), 6)
        if order != "shuffled":
            budgets.sort(reverse=order == "descending")
        formulas = [co.parse(f"x<={b}") for b in budgets]
        for _ in range(3):
            formulas.insert(rng.randrange(len(formulas) + 1), random_formula(rng, 12))
        for formula in formulas:
            for solver in (co.solve_max, co.solve_min):
                result = assert_same_as_fresh(process, formula, solver)
                if trial % 5 == 0:
                    check_optimal(process, formula, result)


def test_epoch_table_on_zero_cost_cycles_and_at_the_target():
    process = two_cycle_process()
    for text in ("x<=3", "x<=0", "x<=5", "x>=2 & x<=4", "x<=2", "x<=6"):
        for solver in (co.solve_max, co.solve_min):
            formula = co.parse(text)
            check_optimal(process, formula, assert_same_as_fresh(process, formula, solver))
    base = choice_example()
    at_target = co.CostProcess(base.states, "t", "t", base.enabled, base.transitions)
    for bound in (4, 0, 2):
        for solver in (co.solve_max, co.solve_min):
            result = assert_same_as_fresh(at_target, co.parse(f"x<={bound}"), solver)
            assert result.value == 1 and result.scheduler.entries == {}


def late_choice_process():
    # q1 is reached only by the cost-5 jump from the initial level, and it
    # chooses; q3 chooses too but is reached only from q1. So budgets below
    # 5 meet both only past the budget, where the scheduler records their
    # TOP choices.
    return co.build_process(
        [
            ("q0", "a", "q1", 5, HALF),
            ("q0", "a", "q4", 1, HALF),
            ("q4", "a", "q4", 2, HALF),
            ("q4", "a", "t", 0, HALF),
            ("q1", "a1", "q3", 1, HALF),
            ("q1", "a1", "t", 1, HALF),
            ("q1", "a2", "q2", 0, ONE),
            ("q2", "a", "q1", 0, HALF),
            ("q2", "a", "t", 2, HALF),
            ("q3", "b1", "t", 0, ONE),
            ("q3", "b2", "t", 4, ONE),
        ],
        "q0",
        "t",
    )


@pytest.mark.parametrize("order", ["descending", "ascending", "shuffled"])
def test_reach_table_answers_as_a_fresh_sweep(order):
    # One object's sweep serves budgets in any order and every formula;
    # each answer, TOP entries included, equals a fresh object's.
    process = late_choice_process()
    budgets = list(range(13))
    if order == "shuffled":
        Random(14).shuffle(budgets)
    elif order == "descending":
        budgets.reverse()
    texts = [f"x<={b}" for b in budgets]
    for slot, text in zip((2, 6, 11), ("x>=3 & x<=9", "x<=2 | x>=6", "x>=5")):
        texts.insert(slot, text)
    for text in texts:
        formula = co.parse(text)
        for solver in (co.solve_max, co.solve_min):
            result = assert_same_as_fresh(process, formula, solver)
            check_optimal(process, formula, result)
            if co.max_constant(formula) < 5:
                assert set(result.scheduler.entries) == {("q1", TOP), ("q3", TOP)}


def test_reach_table_completes_levels_only_up_to_the_largest_budget():
    chain = co.build_chain(
        [("q0", "q0", 2, HALF), ("q0", "q1", 1, HALF), ("q1", "t", 0, HALF), ("q1", "q0", 2, HALF)],
        "q0",
        "t",
    )
    co.solve_max(chain, co.parse("x<=7"))
    reach = mdp_solver._SWEEPS[chain]
    # Every state reached at each cost up to 7, by a walk over (state, cost).
    expected: dict[int, set] = {}
    frontier = [("q0", 0)]
    while frontier:
        state, cost = frontier.pop()
        if state != "t" and cost <= 7 and state not in expected.setdefault(cost, set()):
            expected[cost].add(state)
            frontier += [(e.successor, cost + e.cost) for e in chain.transitions[(state, "a")]]
    assert reach.costs == sorted(expected)
    assert all(set(reach.levels[c]) == expected[c] for c in reach.costs)
    assert min(reach.pending) > 7
    snapshot = (list(reach.costs), list(reach.pending), {c: dict(s) for c, s in reach.levels.items()})
    assert_same_as_fresh(chain, co.parse("x<=3"), co.solve_min)
    assert (reach.costs, reach.pending, reach.levels) == snapshot


def test_the_model_keeps_no_solver_state():
    # Every engine runs on one process; the object keeps only its fields
    # and the immutable caches derived from them.
    process = choice_example()
    budget = co.parse("x<=4")
    for solver in (co.solve_max, co.solve_min):
        solver(process, budget)
        solver(process, co.parse("x>=2 & x<=3"))
    for threshold in (HALF, ONE):
        co.quantile_query(process, threshold, "exists")
    co.decide_cost_utility(process, 5, 0)
    co.estimate(process, co.solve_max(process, budget).scheduler, budget, 50, 3)
    co.is_chain(process)
    co.is_acyclic(process)
    derived = set(vars(process)) - {field.name for field in dataclasses.fields(process)}
    assert derived == {"reachable", "int_table", "_report", "_chain", "_acyclic"}
    # The solver's state goes with its process.
    gc.collect()
    kept = len(mdp_solver._SWEEPS)
    solved = fresh(process)
    co.solve_max(solved, budget)
    assert len(mdp_solver._SWEEPS) == kept + 1
    alive = weakref.ref(solved)
    del solved
    gc.collect()
    assert alive() is None
    assert len(mdp_solver._SWEEPS) == kept
