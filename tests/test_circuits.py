"""Alternating normal-form circuits: structure, evaluation, lifting, dual rails."""

from random import Random

import pytest

import costodds as co
from costodds import ModelFormatError, PreconditionError
from costodds.gadgets import (
    check_circuit,
    circuit_from_json,
    circuit_to_json,
    eval_circuit,
    lift_gate,
    make_circuit,
    normalize_circuit,
)

from helpers import LEAF_ROWS, fixed_circuit_corpus, random_circuit, zero_ladder


def square_tower():
    # ((1+1)^2)^... : x = 2, y = 4, z = 8 across levels 1..3.
    return make_circuit(
        [
            *LEAF_ROWS,
            ("x", "plus", ("one", "one")),
            ("y", "times", ("x", "x")),
            ("z", "plus", ("y", "y")),
        ]
    )


def test_levels_are_derived_in_order():
    circuit = square_tower()
    assert [g.level for g in circuit.gates] == [0, 0, 1, 2, 3]
    assert circuit.gate("y").inputs == ("x", "x")


def test_eval_values():
    circuit = square_tower()
    assert eval_circuit(circuit, "zero") == 0
    assert eval_circuit(circuit, "one") == 1
    assert eval_circuit(circuit, "x") == 2
    assert eval_circuit(circuit, "y") == 4
    assert eval_circuit(circuit, "z") == 8


def test_eval_unknown_gate():
    with pytest.raises(PreconditionError):
        eval_circuit(square_tower(), "nope")


@pytest.mark.parametrize(
    "rows",
    [
        [("g", "plus", ("a", "b"))],  # inputs never declared
        [("one", "one", ()), ("g", "plus", ("one",))],  # arity
        [("one", "one", ("one",))],  # leaf with inputs
        [("one", "one", ()), ("g", "times", ("one", "one"))],  # level-1 gate must add
        [("one", "one", ()), ("one", "one", ())],  # duplicate id
        [
            ("one", "one", ()),
            ("g", "plus", ("one", "one")),
            ("h", "plus", ("g", "one")),  # mixes levels 1 and 0
        ],
    ],
)
def test_make_circuit_rejects_malformed_rows(rows):
    with pytest.raises(PreconditionError):
        make_circuit(rows)


def test_outputs_must_exist():
    with pytest.raises(PreconditionError):
        make_circuit(list(LEAF_ROWS), outputs=("ghost",))


def test_check_circuit_accepts_the_corpus():
    for circuit, _ in fixed_circuit_corpus():
        check_circuit(circuit)


def test_lift_preserves_value_and_original_gates():
    circuit = square_tower()
    for gate_id in ("zero", "one", "x", "y", "z"):
        before = eval_circuit(circuit, gate_id)
        lifted, top = lift_gate(circuit, gate_id)
        assert eval_circuit(lifted, top) == before
        assert lifted.gate(top).level == circuit.gate(gate_id).level + 1
        # The original circuit is untouched and fully contained.
        assert lifted.gates[: len(circuit.gates)] == circuit.gates


def test_lift_twice_climbs_two_levels():
    circuit = square_tower()
    once, mid = lift_gate(circuit, "x")
    twice, top = lift_gate(once, mid)
    assert twice.gate(top).level == 3
    assert eval_circuit(twice, top) == 2


def test_lift_builds_deep_constant_ladders():
    # The zero partner of a1498 is a ladder 1 498 levels tall: deeper
    # than CPython's default recursion limit.
    lifted, top = lift_gate(zero_ladder(1499), "a1498")
    assert top == "lift1498"
    assert lifted.gate(top).level == 1499
    assert eval_circuit(lifted, top) == 0


def raw_eval(rows, gate_id):
    """Integer semantics of the raw {zero,one,plus,minus,times} grammar."""
    values = {}
    for rid, kind, inputs in rows:
        ins = tuple(inputs)
        if kind == "zero":
            values[rid] = 0
        elif kind == "one":
            values[rid] = 1
        elif kind == "plus":
            values[rid] = values[ins[0]] + values[ins[1]]
        elif kind == "minus":
            values[rid] = values[ins[0]] - values[ins[1]]
        else:
            values[rid] = values[ins[0]] * values[ins[1]]
    return values[gate_id]


def test_normalize_removes_subtraction():
    rows = [
        ("one", "one", ()),
        ("d", "minus", ("one", "one")),  # 0
        ("sq", "times", ("d", "d")),  # 0
        ("off", "minus", ("sq", "one")),  # -1
    ]
    circuit, rails = normalize_circuit(rows)
    for rid in ("one", "d", "sq", "off"):
        pos, neg = rails[rid]
        assert eval_circuit(circuit, pos) - eval_circuit(circuit, neg) == raw_eval(rows, rid)
    # Rail gates of one raw gate sit on a common level.
    for pos, neg in rails.values():
        assert circuit.gate(pos).level == circuit.gate(neg).level


def test_normalize_random_dags():
    rng = Random(77)
    kinds = ("plus", "minus", "times")
    for _ in range(40):
        rows = [("z", "zero", ()), ("u", "one", ())]
        ids = ["z", "u"]
        for pos in range(rng.randint(1, 5)):
            rid = f"r{pos}"
            rows.append((rid, rng.choice(kinds), (rng.choice(ids), rng.choice(ids))))
            ids.append(rid)
        circuit, rails = normalize_circuit(rows, outputs=[ids[-1]])
        check_circuit(circuit)
        assert circuit.outputs == (rails[ids[-1]][0],)
        for rid in ids:
            pos_rail, neg_rail = rails[rid]
            assert eval_circuit(circuit, pos_rail) - eval_circuit(
                circuit, neg_rail
            ) == raw_eval(rows, rid)


def test_normalize_rejects_unknown_kinds_and_refs():
    with pytest.raises(PreconditionError):
        normalize_circuit([("g", "exp", ())])
    with pytest.raises(PreconditionError):
        normalize_circuit([("g", "plus", ("a", "b"))])
    with pytest.raises(PreconditionError):
        normalize_circuit([("z", "zero", ())], outputs=["missing"])


def test_json_round_trip():
    for circuit, _ in fixed_circuit_corpus()[:10]:
        doc = circuit_to_json(circuit)
        assert circuit_to_json(circuit_from_json(doc)) == doc


def test_json_integer_ids_are_coerced():
    doc = {
        "gates": [
            {"id": 0, "kind": "one"},
            {"id": 1, "kind": "plus", "inputs": [0, 0]},
        ],
        "outputs": [1],
    }
    circuit = circuit_from_json(doc)
    assert eval_circuit(circuit, "1") == 2
    assert circuit.outputs == ("1",)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"gates": {}},
        {"gates": [[]]},
        {"gates": [{"id": "g"}]},
        {"gates": [{"id": None, "kind": "one"}]},
        {"gates": [{"id": "g", "kind": "one", "inputs": "xx"}]},
        {"gates": [{"id": "g", "kind": "one"}], "outputs": "g"},
    ],
)
def test_json_rejects_malformed_documents(doc):
    with pytest.raises(ModelFormatError):
        circuit_from_json(doc)


def test_random_circuit_generator_stays_in_bounds():
    rng = Random(78)
    for _ in range(50):
        circuit, gate = random_circuit(rng)
        check_circuit(circuit)
        assert len(circuit.gates) <= 8
        assert max(g.level for g in circuit.gates) <= 3
        assert circuit.gate(gate).level >= 1
