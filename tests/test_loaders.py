"""Seeded fuzzing of the JSON loaders and of the engines behind them.

Every loader turns any JSON document into its value or a
``ModelFormatError``; a model that loads and validates goes through the
solvers, the chain walk, the sampler and the threshold-1 quantile query
raising nothing but ``CostOddsError``. Documents are random JSON or
well-formed documents with up to two fields replaced or dropped. The
examples are derandomized, so every run checks the same documents.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import costodds as co
from costodds import CostOddsError, ModelFormatError
from costodds.gadgets import circuit_from_json, countdown_from_json
from costodds.mc import estimate

FUZZ = settings(derandomize=True, max_examples=300, deadline=None)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["q0", "t", "a", "top", "one", "plus", "1/2", "3/0", "-1", " 7 ", "²"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)

NAMES = ["q0", "q1", "q2", "t"]
WIDE = 2**301
# Each action's probabilities; a junk field or a dropped row may still
# break the sum.
SPLITS = (
    ("1",),
    ("1/2", "1/2"),
    ("1/3", "2/3"),
    ("1/2", "1/3", "1/6"),
    (f"{WIDE // 2 + 1}/{WIDE}", f"{WIDE // 2 - 1}/{WIDE}"),
)
COSTS = st.sampled_from([0, 0, 1, 2, "3"])


def mutate(draw, doc):
    """Replace or drop up to two fields anywhere in the document."""
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        holders = [doc]
        for holder in holders:
            items = holder.values() if isinstance(holder, dict) else holder
            holders.extend(v for v in items if isinstance(v, (dict, list)))
        holder = draw(st.sampled_from(holders))
        if not holder:
            continue
        keys = sorted(holder) if isinstance(holder, dict) else range(len(holder))
        key = draw(st.sampled_from(keys))
        if draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(json_values)
    return doc


@st.composite
def model_documents(draw):
    """Model documents on states q0, q1, q2 and t, mostly well formed.

    Chains omit the action field. One document in four has a cost past
    2^63.
    """
    successors = st.sampled_from(NAMES + ["t"])
    chain = draw(st.booleans())
    rows = []
    for state in NAMES[:-1]:
        for action in ("a", "b")[: 1 if chain else draw(st.integers(1, 2))]:
            for prob in draw(st.sampled_from(SPLITS)):
                row = {"from": state, "action": action, "to": draw(successors)}
                row.update(cost=draw(COSTS), prob=prob)
                if not chain and draw(st.integers(0, 3)) == 0:
                    row["utility"] = draw(st.integers(0, 2))
                rows.append(row)
    if draw(st.integers(0, 3)) == 0:
        draw(st.sampled_from(rows))["cost"] = "12345678901234567890"
    rows.append({"from": "t", "action": "a", "to": "t", "cost": 0, "prob": "1"})
    if chain:
        for row in rows:
            del row["action"]
    doc = {"states": list(NAMES), "initial": "q0", "target": "t", "transitions": rows}
    return mutate(draw, doc)


@st.composite
def scheduler_documents(draw):
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        row = {"state": draw(st.sampled_from(NAMES)), "cost": draw(COSTS | st.just("top"))}
        row["action"] = draw(st.sampled_from("ab"))
        rows.append(row)
    return mutate(draw, rows)


@st.composite
def circuit_documents(draw):
    """Gates g0, g1, ... whose inputs mostly name earlier gates."""
    gates = []
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("one", "zero", "plus", "times", "minus")))
        gate = {"id": draw(st.sampled_from((f"g{i}", i))), "kind": kind}
        if kind in ("plus", "times"):
            arity = draw(st.integers(1, 3))
            gate["inputs"] = [f"g{draw(st.integers(0, i))}" for _ in range(arity)]
        gates.append(gate)
    outputs = [f"g{draw(st.integers(0, len(gates)))}" for _ in range(draw(st.integers(0, 2)))]
    return mutate(draw, {"gates": gates, "outputs": outputs})


@st.composite
def countdown_documents(draw):
    names = st.sampled_from(NAMES)
    moves = [
        {"from": draw(names), "k": draw(st.integers(-1, 4)), "to": draw(names)}
        for _ in range(draw(st.integers(0, 5)))
    ]
    doc = {"states": list(NAMES), "initial": "q0", "final": draw(st.integers(-1, 6))}
    doc["moves"] = moves
    return mutate(draw, doc)


@FUZZ
@given(
    json_values
    | model_documents()
    | scheduler_documents()
    | circuit_documents()
    | countdown_documents()
)
def test_loaders_raise_only_format_errors(doc):
    loaders = (co.model_from_json, co.scheduler_from_json, circuit_from_json, countdown_from_json)
    for loader in loaders:
        try:
            loader(doc)
        except ModelFormatError:
            pass


@FUZZ
@given(model_documents(), st.integers(0, 4))
def test_loaded_models_raise_only_costodds_errors(doc, budget):
    try:
        process = co.model_from_json(doc)
    except ModelFormatError:
        return
    if not co.validate(process).ok:
        return
    formula = co.parse(f"x<={budget}")
    try:
        co.solve_max(process, formula)
        if co.is_chain(process):
            co.cost_distribution(process, budget)
            estimate(process, None, formula, 20, budget)
        # Threshold-1 quantiles still take rounds in proportion to the
        # largest cost, not to its digits: at 10^19 they never finish.
        if process.int_table.max_cost <= 1000:
            for quantifier in ("exists", "forall"):
                co.quantile_query(process, Fraction(1), quantifier)
    except CostOddsError:
        pass
