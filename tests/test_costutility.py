"""Qualitative exact-cost queries phrased as cost-utility queries."""

from random import Random

import pytest

import costodds as co
from costodds import NotValidatedError
from costodds.gadgets import countdown_to_process, qualitative_to_cost_utility
from helpers import (
    HALF,
    ONE,
    choice_example,
    fresh,
    mixed_denominator_process,
    random_countdown,
    random_process,
    reference_cost_utility,
    utility_loop_process,
    with_utilities,
)


def test_costs_are_mirrored_onto_the_utility_track():
    process = choice_example()
    lifted = qualitative_to_cost_utility(process, 4)
    assert lifted.states == process.states
    assert lifted.initial == process.initial
    assert lifted.target == process.target
    assert co.validate(lifted).ok
    for state in process.states:
        if state == process.target:
            continue
        assert lifted.enabled[state] == process.enabled[state]
        for action in process.enabled[state]:
            plain = process.transitions[(state, action)]
            twin = lifted.transitions[(state, action)]
            assert [(r.successor, r.cost, r.cost, r.prob) for r in plain] == [
                (r.successor, r.cost, r.utility, r.prob) for r in twin
            ]


def test_pinned_caps_and_goals():
    four = co.build_chain([("q0", "t", 4, ONE)], "q0", "t")
    lifted = qualitative_to_cost_utility(four, 4)
    assert co.decide_cost_utility(lifted, 4, 4) is True
    assert co.decide_cost_utility(lifted, 5, 4) is True
    assert co.decide_cost_utility(lifted, 3, 3) is False
    assert co.decide_cost_utility(lifted, 4, 5) is False


def test_random_countdown_gadgets_agree():
    rng = Random(31)
    for _ in range(40):
        process, total = countdown_to_process(random_countdown(rng))
        lifted = qualitative_to_cost_utility(process, total)
        direct = co.decide_qualitative(process, total)[0]
        assert co.decide_cost_utility(lifted, total, total) is direct


def test_verdicts_match_the_product_reference():
    rng = Random(53)
    corpora = [
        lambda: with_utilities(rng, random_process(rng)),
        lambda: with_utilities(rng, mixed_denominator_process(rng)),
        lambda: with_utilities(rng, countdown_to_process(random_countdown(rng))[0]),
        lambda: utility_loop_process(rng),
    ]
    for index in range(160):
        process = corpora[index % len(corpora)]()
        for _ in range(4):
            cap, goal = rng.randint(0, 12), rng.randint(0, 6)
            expected = reference_cost_utility(fresh(process), cap, goal)
            assert co.decide_cost_utility(process, cap, goal) is expected, (index, cap, goal)


def test_countdown_reductions_match_the_product_reference():
    rng = Random(59)
    for _ in range(40):
        process, total = countdown_to_process(random_countdown(rng))
        lifted = qualitative_to_cost_utility(process, total)
        expected = reference_cost_utility(fresh(lifted), total, total)
        assert co.decide_cost_utility(lifted, total, total) is expected


def test_rejects_invalid_processes():
    broken = co.build_process([("q0", "a", "t", 1, HALF)], "q0", "t")
    with pytest.raises(NotValidatedError):
        qualitative_to_cost_utility(broken, 1)


@pytest.mark.parametrize("total", [-1, True, "4", 2.0])
def test_rejects_bad_totals(total):
    with pytest.raises(ValueError):
        qualitative_to_cost_utility(choice_example(), total)
