"""Folding arbitrary threshold queries into the 1/2 threshold."""

import json
from fractions import Fraction
from random import Random

import pytest

import costodds as co
from costodds import PreconditionError, ThresholdRangeError
from costodds.gadgets import threshold_to_half
from helpers import HALF, ONE, choice_example, random_chain, two_flip_chain

TAUS = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(2, 3), Fraction(9, 10), Fraction(1)]


def test_half_threshold_is_the_identity():
    chain = two_flip_chain()
    assert threshold_to_half(chain, co.parse("x<=1"), HALF, 2, 0) is chain


def test_low_threshold_bias_is_pinned():
    chain = two_flip_chain()
    formula = co.parse("x<=1")
    assert co.solve_chain(chain, formula) == HALF
    folded = threshold_to_half(chain, formula, Fraction(1, 4), 2, 0)
    assert folded.initial == "half"
    assert co.is_chain(folded)
    assert co.validate(folded).ok
    # success mass becomes 1/3 + 2/3 * 1/2
    assert co.solve_chain(folded, formula) == Fraction(2, 3)
    # Without utilities the written model has no "utility" field.
    assert json.dumps(co.model_to_json(folded)) == (
        '{"states": ["half", "t", "q0"], "initial": "half", "target": "t", "transitions": ['
        '{"from": "half", "to": "t", "cost": "0", "prob": "1/3"}, '
        '{"from": "half", "to": "q0", "cost": "0", "prob": "2/3"}, '
        '{"from": "t", "to": "t", "cost": "0", "prob": "1"}, '
        '{"from": "q0", "to": "t", "cost": "1", "prob": "1/2"}, '
        '{"from": "q0", "to": "t", "cost": "3", "prob": "1/2"}]}'
    )


def test_high_threshold_bias_is_pinned():
    chain = two_flip_chain()
    formula = co.parse("x<=1")
    folded = threshold_to_half(chain, formula, Fraction(3, 4), 2, 0)
    assert co.solve_chain(folded, formula) == Fraction(1, 3)


def test_probe_costs_must_split_the_formula():
    chain = two_flip_chain()
    formula = co.parse("x<=1")
    with pytest.raises(PreconditionError, match="satisfies"):
        threshold_to_half(chain, formula, Fraction(1, 4), 1, 0)
    with pytest.raises(PreconditionError, match="violates"):
        threshold_to_half(chain, formula, Fraction(1, 4), 2, 5)


@pytest.mark.parametrize("tau", [HALF, Fraction(1, 4), Fraction(3, 4)])
@pytest.mark.parametrize(
    "miss, hit, message",
    [
        (-3, 2, "miss cost must be a non-negative int, got -3"),
        (0, 2.5, "hit cost must be a non-negative int, got 2.5"),
        (True, 2, "miss cost must be a non-negative int, got True"),
    ],
    ids=["negative-miss", "fractional-hit", "bool-miss"],
)
def test_probe_costs_must_be_non_negative_ints(tau, miss, hit, message):
    # Checked before the fold, so even a cost the fold would not use is refused.
    with pytest.raises(PreconditionError, match=message):
        threshold_to_half(two_flip_chain(), co.parse("x>=2"), tau, miss, hit)


def test_threshold_must_be_a_probability():
    chain = two_flip_chain()
    for tau in (Fraction(-1, 4), Fraction(3, 2)):
        with pytest.raises(ThresholdRangeError):
            threshold_to_half(chain, co.parse("x<=1"), tau, 2, 0)


def test_fresh_initial_state_avoids_collisions():
    chain = co.build_chain([("half", "t", 1, Fraction(1))], "half", "t")
    folded = threshold_to_half(chain, co.parse("x<=1"), Fraction(1, 4), 2, 1)
    assert folded.initial == "#half"
    assert "half" in folded.states


def test_chain_queries_agree_across_the_fold():
    rng = Random(23)
    for _ in range(20):
        chain = random_chain(rng)
        bound = rng.randint(0, 6)
        formula = co.parse(f"x<={bound}")
        value = co.solve_chain(chain, formula)
        for tau in TAUS:
            folded = threshold_to_half(chain, formula, tau, bound + 1, 0)
            assert co.is_chain(folded)
            folded_value = co.solve_chain(folded, formula)
            assert (folded_value >= HALF) == (value >= tau)


def test_decision_queries_agree_across_the_fold():
    process = choice_example()
    formula = co.parse("x<=5")
    for tau in TAUS:
        folded = threshold_to_half(process, formula, tau, 7, 0)
        for quant in ("exists", "forall"):
            direct = co.decide(process, formula, tau, quant)[0]
            assert co.decide(folded, formula, HALF, quant)[0] is direct


def test_two_span_formulas_fold_at_every_threshold():
    # Hit 12 lies in the unbounded span, miss 5 in the gap between spans.
    formula = co.parse("x<=2 | x>=9")
    with pytest.raises(PreconditionError, match="satisfies"):
        threshold_to_half(two_flip_chain(), formula, Fraction(1, 4), 9, 12)
    with pytest.raises(PreconditionError, match="violates"):
        threshold_to_half(two_flip_chain(), formula, Fraction(1, 4), 5, 8)
    rng = Random(29)
    for _ in range(20):
        chain = random_chain(rng, max_cost=4)
        value = co.solve_chain(chain, formula)
        for tau in TAUS:
            folded = threshold_to_half(chain, formula, tau, 5, 12)
            assert co.is_chain(folded)
            assert (co.solve_chain(folded, formula) >= HALF) == (value >= tau)
    process = choice_example()
    for tau in TAUS:
        folded = threshold_to_half(process, formula, tau, 5, 12)
        for quant in ("exists", "forall"):
            direct = co.decide(process, formula, tau, quant)[0]
            assert co.decide(folded, formula, HALF, quant)[0] is direct


def test_utilities_survive_the_fold():
    process = co.build_process(
        [("q0", "a", "q1", 1, HALF, 3), ("q0", "a", "t", 2, HALF), ("q1", "b", "t", 0, ONE, 1)],
        "q0",
        "t",
    )
    folded = threshold_to_half(process, co.parse("x<=1"), Fraction(1, 4), 2, 0)
    for key, entries in process.transitions.items():
        assert folded.transitions[key] == entries
    doc = co.model_to_json(folded)
    assert [row["utility"] for row in doc["transitions"]] == ["0", "0", "0", "3", "0", "1"]
    assert co.model_to_json(co.model_from_json(doc)) == doc
