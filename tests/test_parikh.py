"""Path-counting DFAs: budget-constrained path counts equal gate values."""

from random import Random

import pytest

from costodds import GuardExceededError, PreconditionError
from costodds.gadgets import (
    ParikhDfa,
    circuit_to_dfa,
    count_parikh_paths,
    eval_circuit,
    make_circuit,
)
from costodds.gadgets import parikh
from helpers import fixed_circuit_corpus, level_four_tower, random_circuit, wide_sums

ONE_LEAF = make_circuit([("l", "one", ())])
ZERO_LEAF = make_circuit([("z", "zero", ())])
ONE_PLUS_ONE = make_circuit(
    [("l1", "one", ()), ("l2", "one", ()), ("g", "plus", ("l1", "l2"))]
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


def count_for(circuit, gate_id):
    dfa, budget, source, sink = circuit_to_dfa(circuit, gate_id)
    return count_parikh_paths(dfa, source, sink, budget)


@pytest.mark.parametrize(
    "circuit, gate_id, expected",
    [
        (ONE_LEAF, "l", 1),
        (ZERO_LEAF, "z", 0),
        (ONE_PLUS_ONE, "g", 2),
        (TWO_SQUARED, "s1", 2),
        (TWO_SQUARED, "p", 4),
    ],
)
def test_pinned_path_counts(circuit, gate_id, expected):
    assert count_for(circuit, gate_id) == expected
    assert expected == eval_circuit(circuit, gate_id)


def test_budget_doubles_below_multiplication_levels():
    # one pass per factor, so letters under a level-2 gate are used twice
    _, budget, _, _ = circuit_to_dfa(TWO_SQUARED, "p")
    assert budget["a"] == 2
    for gate_id in ("s1", "s2"):
        assert {budget[f"{x}.{gate_id}"] for x in "abc"} == {2}
    assert {budget[f"{x}.p"] for x in "abc"} == {1}


def test_levels_above_the_gate_are_dropped():
    dfa, budget, source, sink = circuit_to_dfa(TWO_SQUARED, "s1")
    assert (source, sink) == ("in.s1", "out.s1")
    assert not any(state.endswith(".p") for state in dfa.states)
    assert budget["a"] == 1
    assert set(dfa.gate_ports) == {"l1", "l2", "s1", "s2"}


def test_sink_needs_the_sibling_letters_too():
    # stopping at out.s1 leaves s2's letters unspent, so nothing qualifies
    dfa, budget, _, _ = circuit_to_dfa(TWO_SQUARED, "p")
    assert count_parikh_paths(dfa, "in.s1", "out.s1", budget) == 0


def naive_count(dfa, source, sink, budget):
    """Unmemoized reference: enumerate letter sequences one edge at a time."""
    remaining = dict.fromkeys(dfa.alphabet, 0)
    remaining.update(budget)

    def walk(state, left):
        if left == 0:
            return 1 if state == sink else 0
        total = 0
        for letter in dfa.alphabet:
            if remaining[letter]:
                successor = dfa.transitions.get((state, letter))
                if successor is None:
                    continue
                remaining[letter] -= 1
                total += walk(successor, left - 1)
                remaining[letter] += 1
        return total

    return walk(source, sum(remaining.values()))


def test_memoized_counter_matches_naive_enumeration():
    rng = Random(7)
    cases = [(ONE_PLUS_ONE, "g"), (TWO_SQUARED, "p")]
    cases += [random_circuit(rng, max_level=2) for _ in range(10)]
    for circuit, gate_id in cases:
        dfa, budget, source, sink = circuit_to_dfa(circuit, gate_id)
        expected = naive_count(dfa, source, sink, budget)
        assert count_parikh_paths(dfa, source, sink, budget) == expected


def test_counts_equal_gate_values_on_the_fixed_corpus():
    for circuit, gate_id in fixed_circuit_corpus():
        assert count_for(circuit, gate_id) == eval_circuit(circuit, gate_id)


def test_unknown_designated_gate():
    with pytest.raises(PreconditionError, match="unknown gate"):
        circuit_to_dfa(ONE_PLUS_ONE, "nope")


def test_count_rejects_foreign_endpoints():
    dfa, budget, source, _ = circuit_to_dfa(ONE_PLUS_ONE, "g")
    with pytest.raises(PreconditionError, match="source and sink"):
        count_parikh_paths(dfa, source, "elsewhere", budget)


def test_count_rejects_negative_budgets():
    dfa, budget, source, sink = circuit_to_dfa(ONE_PLUS_ONE, "g")
    with pytest.raises(PreconditionError, match="negative budget"):
        count_parikh_paths(dfa, source, sink, dict(budget, a=-1))


def test_unknown_letters_only_matter_when_positive():
    dfa, budget, source, sink = circuit_to_dfa(ONE_PLUS_ONE, "g")
    assert count_parikh_paths(dfa, source, sink, dict(budget, zz=0)) == 2
    assert count_parikh_paths(dfa, source, sink, dict(budget, zz=3)) == 0


def test_path_guard_aborts_runaway_walks(monkeypatch):
    monkeypatch.setattr(parikh, "PATH_GUARD", 64)
    loop = ParikhDfa(
        states=("s",),
        alphabet=("a",),
        transitions={("s", "a"): "s"},
        gate_ports={},
        source="s",
        sink="s",
    )
    assert count_parikh_paths(loop, "s", "s", {"a": 9}) == 1
    with pytest.raises(GuardExceededError, match="partial paths"):
        count_parikh_paths(loop, "s", "s", {"a": 500})


def test_long_letter_budgets_walk_without_recursion():
    # 400 sibling gates give p0 a budget of 1 201 letters, one search
    # level per letter: deeper than CPython's default recursion limit.
    circuit = wide_sums(400)
    assert count_for(circuit, "p0") == eval_circuit(circuit, "p0") == 1


def test_gates_above_level_three_are_refused():
    # Doubled letter budgets let the two passes of w = z*z split the loop
    # of y = x*x as 1 + 3 instead of 2 + 2; the count came out 192, not 64.
    tower = level_four_tower()
    dfa, budget, source, sink = circuit_to_dfa(tower, "z")
    assert count_parikh_paths(dfa, source, sink, budget) == eval_circuit(tower, "z") == 8
    with pytest.raises(PreconditionError, match="level 4"):
        circuit_to_dfa(tower, "w")
