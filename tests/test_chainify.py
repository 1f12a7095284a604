"""Circuit-to-chain pipeline: hit probabilities encode gate values exactly."""

import sys
from fractions import Fraction
from itertools import product

import pytest

import costodds as co
from costodds import PreconditionError
from costodds.gadgets import (
    TypedCostChain,
    circuit_to_chain,
    circuit_to_dfa,
    dfa_to_typed_chain,
    eval_circuit,
    lift_gate,
    make_circuit,
    padding_degree,
    posslp_instance,
    scale_factor,
    typed_to_chain,
)
from helpers import level_four_tower, posslp_corpus

ONE_LEAF = make_circuit([("l", "one", ())])
ONE_PLUS_ONE = make_circuit(
    [("l1", "one", ()), ("l2", "one", ()), ("g", "plus", ("l1", "l2"))]
)
ONE_PLUS_ZERO = make_circuit(
    [("l", "one", ()), ("z", "zero", ()), ("g", "plus", ("l", "z"))]
)
ZERO_PLUS_ZERO = make_circuit(
    [("z1", "zero", ()), ("z2", "zero", ()), ("g", "plus", ("z1", "z2"))]
)
TWO_SQUARED = make_circuit(
    [
        ("l1", "one", ()),
        ("l2", "one", ()),
        ("s1", "plus", ("l1", "l2")),
        ("s2", "plus", ("l1", "l2")),
        ("p", "times", ("s1", "s2")),
    ]
)


def hit_probability(cert) -> Fraction:
    dist = co.cost_distribution(cert.model, cert.target_value)
    return dist.mass.get(cert.target_value, Fraction(0))


def test_padding_degree_counts_gates_and_busy_ports():
    dfa, _, _, _ = circuit_to_dfa(ONE_PLUS_ONE, "g")
    assert padding_degree(dfa) == 4
    dfa, _, _, _ = circuit_to_dfa(TWO_SQUARED, "p")
    assert padding_degree(dfa) == 6


@pytest.mark.parametrize("degree", [2, 4, 7])
def test_scale_factor_per_level(degree):
    d = degree
    assert scale_factor(0, d) == (1, 0, 0)
    assert scale_factor(1, d) == (2 * d, 1, 1)
    assert scale_factor(2, d) == (4 * d**4, 2, 4)
    assert scale_factor(3, d) == (8 * d**5, 3, 5)
    for level in range(7):
        scale, exp2, expd = scale_factor(level, d)
        assert scale == 2**exp2 * d**expd


def test_scale_factor_rejects_negative_levels():
    with pytest.raises(PreconditionError):
        scale_factor(-1, 4)


def two_letter_typed() -> TypedCostChain:
    return TypedCostChain(
        states=("s0", "s1", "t"),
        initial="s0",
        target="t",
        alphabet=("a", "b"),
        transitions={
            "s0": (("s1", {"a": 1}, Fraction(1, 2)), ("t", {}, Fraction(1, 2))),
            "s1": (("t", {"b": 1}, Fraction(1)),),
            "t": (("t", {}, Fraction(1)),),
        },
    )


def test_digit_map_is_pinned_for_a_two_letter_target():
    # base 3 digits plus a letter-total check digit: (1,1) -> 1 + 3 + 2*9
    chain, target = typed_to_chain(two_letter_typed(), {"a": 1, "b": 1})
    assert target == 22
    costs = {
        (state, entry.successor): entry.cost
        for (state, _), rows in chain.transitions.items()
        for entry in rows
    }
    assert costs[("s0", "s1")] == 10
    assert costs[("s1", "t")] == 12
    assert costs[("s0", "t")] == 0
    assert co.cost_distribution(chain, 22).mass[22] == Fraction(1, 2)


def test_digit_map_sends_the_zero_vector_to_zero():
    _, target = typed_to_chain(two_letter_typed(), {"a": 0, "b": 0})
    assert target == 0


def test_only_the_target_vector_reaches_the_target_cost():
    goal = {"a": 1, "b": 1}
    _, target = typed_to_chain(two_letter_typed(), goal)
    for a, b in product(range(4), repeat=2):
        typed = TypedCostChain(
            states=("s0", "t"),
            initial="s0",
            target="t",
            alphabet=("a", "b"),
            transitions={
                "s0": (("t", {"a": a, "b": b}, Fraction(1)),),
                "t": (("t", {}, Fraction(1)),),
            },
        )
        chain, same_target = typed_to_chain(typed, goal)
        assert same_target == target
        cost = chain.transitions[("s0", chain.enabled["s0"][0])][0].cost
        assert (cost == target) == ({"a": a, "b": b} == goal)


def test_randomized_dfa_structure():
    circuit = ONE_PLUS_ZERO
    dfa, budget, _, _ = circuit_to_dfa(circuit, "g")
    typed, target_vector = dfa_to_typed_chain(dfa, budget, circuit)
    degree = padding_degree(dfa)
    assert typed.alphabet == dfa.alphabet + tuple(
        f"e{j}" for j in range(1, degree + 1)
    )
    # zero leaves exit on the first error letter
    rows = typed.transitions["in.z"]
    assert rows == ((dfa.sink, {"e1": 1}, Fraction(1)),)
    for state in typed.states:
        rows = typed.transitions[state]
        assert sum(prob for _, _, prob in rows) == 1
        assert len({prob for _, _, prob in rows}) == 1
        if state != dfa.sink:
            assert all(sum(vector.values()) == 1 for _, vector, _ in rows)
    for gate_id, (_, leave) in dfa.gate_ports.items():
        if leave != dfa.sink:
            assert len(typed.transitions[leave]) == degree
    for letter in typed.alphabet:
        expected = budget.get(letter, 0) if not letter.startswith("e") else 0
        assert target_vector[letter] == expected


@pytest.mark.parametrize(
    "circuit, gate_id",
    [(ONE_PLUS_ONE, "g"), (ONE_PLUS_ZERO, "g"), (ZERO_PLUS_ZERO, "g")],
)
def test_hit_probability_is_value_over_scale(circuit, gate_id):
    cert = circuit_to_chain(circuit, gate_id)
    assert co.validate(cert.model).ok
    assert cert.scale == 2 * cert.bookkeeping["d"]
    assert hit_probability(cert) * cert.scale == eval_circuit(circuit, gate_id)


def test_one_plus_one_certificate_is_pinned():
    cert = circuit_to_chain(ONE_PLUS_ONE, "g")
    assert cert.scale == 8
    assert cert.bookkeeping["d"] == 4
    assert cert.bookkeeping["level"] == 1
    assert hit_probability(cert) == Fraction(1, 4)


def test_lifted_leaf_keeps_its_value():
    work, lifted = lift_gate(ONE_LEAF, "l")
    cert = circuit_to_chain(work, lifted)
    assert cert.bookkeeping["d"] == 4
    assert hit_probability(cert) == Fraction(1, 8)
    assert hit_probability(cert) * cert.scale == 1


def test_even_levels_are_refused():
    with pytest.raises(PreconditionError, match="lift_gate"):
        circuit_to_chain(TWO_SQUARED, "p")
    with pytest.raises(PreconditionError, match="even level 0"):
        circuit_to_chain(ONE_PLUS_ONE, "l1")


def test_lifting_an_even_gate_unlocks_the_pipeline():
    work, lifted = lift_gate(TWO_SQUARED, "p")
    cert = circuit_to_chain(work, lifted)
    assert cert.bookkeeping["level"] == 3
    assert hit_probability(cert) * cert.scale == 4


def comparison_circuit():
    return make_circuit(
        [
            ("one", "one", ()),
            ("zero", "zero", ()),
            ("g1", "plus", ("one", "one")),
            ("g2", "plus", ("one", "zero")),
            ("g3", "plus", ("one", "one")),
        ]
    )


def test_comparison_values_are_exact_for_flat_circuits():
    # acyclic branch chains leave no tail mass, so the value is closed form
    circuit = comparison_circuit()
    for first, second in [("g1", "g2"), ("g2", "g1"), ("g1", "g3")]:
        chain, formula, cert = posslp_instance(circuit, first, second)
        assert co.validate(chain).ok
        v1 = eval_circuit(circuit, first)
        v2 = eval_circuit(circuit, second)
        value = co.solve_chain(chain, formula)
        assert value == Fraction(cert.scale + v1 - v2, 2 * cert.scale)
        assert (value >= Fraction(1, 2)) == (v1 >= v2)


def test_comparison_tie_sits_on_the_threshold():
    chain, formula, _ = posslp_instance(comparison_circuit(), "g1", "g3")
    assert co.solve_chain(chain, formula) == Fraction(1, 2)


def test_comparisons_lift_operands_to_a_common_odd_level():
    circuit, gates = posslp_corpus()[1]
    low, high = gates[0], gates[2]
    chain, formula, cert = posslp_instance(circuit, low, high)
    assert cert.model is chain
    assert cert.bookkeeping["level"] % 2 == 1
    verdict = co.solve_chain(chain, formula) >= Fraction(1, 2)
    assert verdict == (eval_circuit(circuit, low) >= eval_circuit(circuit, high))


def test_comparison_handles_cyclic_square_chains():
    circuit, gates = posslp_corpus()[1]
    square = gates[2]
    base = gates[0]
    for first, second in [(square, base), (base, square)]:
        chain, formula, _ = posslp_instance(circuit, first, second)
        verdict = co.solve_chain(chain, formula) >= Fraction(1, 2)
        assert verdict == (eval_circuit(circuit, first) >= eval_circuit(circuit, second))


def test_offsets_past_the_digit_cap_build_the_parsed_formula(digit_cap):
    # 14 level-1 gates make an H of about 830 digits, past the smallest cap.
    circuit = make_circuit([("one", "one", ())] + [(f"g{i}", "plus", ("one", "one")) for i in range(14)])
    sys.set_int_max_str_digits(640)
    _, formula, cert = posslp_instance(circuit, "g0", "g1")
    sys.set_int_max_str_digits(0)  # to build the expected text; the fixture restores it
    offset, target = cert.bookkeeping["H"], cert.bookkeeping["T"]
    assert len(str(offset)) > 640
    text = f"x={target} | {offset + 1}<=x<={offset + target} | x>={offset + target + 2}"
    assert formula == co.parse(text)


def test_gates_lifted_above_level_three_are_refused():
    # A level-3 gate of value 4 lifted to level 5 used to certify 24, and
    # w2 (32) against w (64) used to answer ">= 1/2".
    tower = level_four_tower()
    once, mid = lift_gate(tower, "z2")
    twice, top = lift_gate(once, mid)
    with pytest.raises(PreconditionError, match="level 5"):
        circuit_to_chain(twice, top)
    with pytest.raises(PreconditionError, match="level"):
        posslp_instance(tower, "w2", "w")
