"""Formula parsing, evaluation, and interval normalization."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

import costodds as co
from costodds import And, Atom, FormulaSyntaxError, IntervalSet, Not, Or


formulas = st.recursive(
    st.integers(min_value=0, max_value=12).map(Atom),
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda pair: And(*pair)),
        st.tuples(inner, inner).map(lambda pair: Or(*pair)),
    ),
    max_leaves=8,
)


@pytest.mark.parametrize(
    "text,spans",
    [
        ("x<=5", ((0, 5),)),
        ("x>=3", ((3, None),)),
        ("x=4", ((4, 4),)),
        ("x=0", ((0, 0),)),
        ("2<=x<=4", ((2, 4),)),
        ("!(x<=2)", ((3, None),)),
        ("x<=1 | x=3", ((0, 1), (3, 3),)),
        ("!x<=1 & x<=3 | x=5", ((2, 3), (5, 5),)),
        ("x<=2 & x>=2", ((2, 2),)),
        ("x>=0", ((0, None),)),
        ("x<=3 & x>=5", ()),
        ("x<=1000000000000 & x>=5", ((5, 10**12),)),
    ],
)
def test_parse_and_normalize(text, spans):
    assert co.normalize(co.parse(text)).spans == spans


@pytest.mark.parametrize(
    "text",
    [
        "", "x<5", "x>5", "y<=1", "x<=", "x<=1 &", "((x<=1)", "x<=1)", "x<=-1", "5<=x<=", "x",
        "!" * 5000 + "x<=1",
        "(" * 3000 + "x<=1" + ")" * 3000,
        " & ".join(["x<=5"] * 3000),
        "x<=²",
        "x<=" + "1" * 5000,
    ],
)
def test_syntax_errors(text, digit_cap):
    with pytest.raises(FormulaSyntaxError):
        co.parse(text)


def test_atom_rejects_bad_bounds():
    with pytest.raises(FormulaSyntaxError):
        Atom(-1)
    with pytest.raises(FormulaSyntaxError):
        Atom(True)


def test_whitespace_is_insignificant():
    assert co.parse(" x <= 5 ") == co.parse("x<=5")


def test_precedence_not_binds_tightest():
    # !a & b parses as (!a) & b, and & binds before |.
    assert co.parse("!x<=1 & x<=3") == And(Not(Atom(1)), Atom(3))
    assert co.parse("x<=1 | x<=2 & x<=3") == Or(Atom(1), And(Atom(2), Atom(3)))


@given(formulas, st.integers(min_value=0, max_value=30))
def test_satisfies_matches_normalized_set(formula, value):
    assert co.satisfies(value, formula) == (value in co.normalize(formula))


@given(formulas, st.integers(min_value=0, max_value=20))
def test_verdict_constant_beyond_max_constant(formula, extra):
    edge = co.max_constant(formula) + 1
    assert co.satisfies(edge + extra, formula) == co.satisfies(edge, formula)


@given(formulas)
def test_complement_matches_negation(formula):
    assert co.normalize(Not(formula)) == co.normalize(formula).complement()


@given(formulas)
def test_to_text_round_trips_semantics(formula):
    assert co.normalize(co.parse(co.to_text(formula))) == co.normalize(formula)


@given(formulas)
def test_double_complement_is_identity(formula):
    spans = co.normalize(formula)
    assert spans.complement().complement() == spans


def test_is_constant_formula():
    assert co.is_constant_formula(co.parse("x>=0"))
    assert co.is_constant_formula(co.parse("x<=3 & x>=5"))
    assert co.is_constant_formula(co.parse("x<=3 | x>=2"))
    assert not co.is_constant_formula(co.parse("x<=3"))


def test_interval_set_membership_and_subset():
    spans = IntervalSet(((0, 2), (5, None)))
    assert 0 in spans and 2 in spans and 5 in spans and 100 in spans
    assert 3 not in spans and 4 not in spans
    assert IntervalSet(((6, 9),)).issubset(spans)
    assert not IntervalSet(((4, 6),)).issubset(spans)
    assert spans.issubset(IntervalSet(((0, None),)))


def test_max_constant_picks_largest_atom():
    assert co.max_constant(co.parse("x<=3 | x<=7 & !(x<=5)")) == 7


def test_a_bare_atom_answers_as_the_general_walk():
    # normalize and max_constant return at once for a bare atom; a double
    # negation of the same atom takes the walk over the tree.
    for bound in (0, 1, 7, 10**4300):
        atom, wrapped = Atom(bound), Not(Not(Atom(bound)))
        assert co.normalize(atom) == co.normalize(wrapped) == IntervalSet(((0, bound),))
        assert co.max_constant(atom) == co.max_constant(wrapped) == bound


def test_to_text_past_the_digit_cap(digit_cap):
    huge = 10**5000
    text = co.to_text(Not(Atom(huge)))
    sys.set_int_max_str_digits(0)  # to build the expected text; the fixture restores it
    assert text == f"!x<={huge}"


def test_deep_hand_built_trees_need_no_recursion():
    deep = Atom(3)
    for _ in range(5000):
        deep = Not(deep)
    assert co.satisfies(3, deep) and not co.satisfies(4, deep)
    assert co.to_text(deep) == "!" * 5000 + "x<=3"
    assert co.normalize(deep) == IntervalSet(((0, 3),))

    # Alternating connectives: every level of to_text needs parentheses.
    mixed = Atom(0)
    for bound in range(1, 3000):
        mixed = And(Or(mixed, Not(Atom(bound))), Atom(bound + 1))
    text = co.to_text(mixed)
    assert text.count("(") == text.count(")") == 2999
    accept = co.normalize(mixed)
    for value in (0, 1, 2, 1500, 2999, 3000, 3001):
        assert co.satisfies(value, mixed) == (value in accept)


def _not_tower(bound, depth=5000):
    node = Atom(bound)
    for _ in range(depth):
        node = Not(node)
    return node


def _and_or_ladder(top, depth=3000):
    node = Atom(0)
    for bound in range(1, depth):
        node = And(Or(node, Not(Atom(bound))), Atom(top))
    return node


def test_deep_trees_hash_compare_and_repr_without_recursion():
    deep, twin = _not_tower(3), _not_tower(3)
    assert deep == twin and hash(deep) == hash(twin)
    assert deep != _not_tower(4) and deep != _not_tower(3, 4999)
    assert repr(deep) == "Not(inner=" * 5000 + "Atom(bound=3)" + ")" * 5000

    ladder, rung = _and_or_ladder(7), _and_or_ladder(7)
    assert ladder == rung and hash(ladder) == hash(rung)
    assert ladder != _and_or_ladder(8) and ladder != deep
    assert {ladder: 1}[rung] == 1
    text = repr(ladder)
    assert text.startswith("And(left=Or(left=And(left=Or(left=")
    assert text.endswith(", right=Atom(bound=7))")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x<=5", "Atom(bound=5)"),
        ("!(x<=2)", "Not(inner=Atom(bound=2))"),
        ("x=4", "And(left=Atom(bound=4), right=Not(inner=Atom(bound=3)))"),
        (
            "x<=3 & !(x<=1) | x>=7",
            "Or(left=And(left=Atom(bound=3), right=Not(inner=Atom(bound=1))), "
            "right=Not(inner=Atom(bound=6)))",
        ),
    ],
)
def test_parsed_formulas_keep_equality_hash_and_repr(text, expected):
    formula = co.parse(text)
    assert repr(formula) == expected
    assert formula == co.parse(text) and hash(formula) == hash(co.parse(text))
    assert formula != co.parse(f"!({text})") and formula != co.parse("x<=9")
    assert formula != text and not formula == expected


@given(formulas, formulas)
def test_equality_agrees_with_repr_and_hash(a, b):
    assert (a == b) == (repr(a) == repr(b))
    if a == b:
        assert hash(a) == hash(b)


def test_connectives_and_operand_order_tell_trees_apart():
    left, right = Atom(1), Not(Atom(2))
    assert And(left, right) != Or(left, right)
    assert And(left, right) != And(right, left)
    assert Atom(1) != 1 and Atom(1) == Atom(1)
    assert len({And(left, right), And(Atom(1), Not(Atom(2))), Or(left, right)}) == 2


# The grammar's characters and tokens, a few that it refuses (a letter
# other than x, a sign, a non-ASCII digit), and runs of parentheses and
# negations long enough to pass the connective limit.
formula_text = st.lists(
    st.sampled_from(
        ["x", "<=", ">=", "=", "<", ">", "!", "&", "|", "(", ")", " ", "\t", "0", "7", "12",
         "99999999999999999999", "y", "-", "\u0663", "\u00b2", "(" * 120, "!" * 120]
    ),
    max_size=30,
).map("".join) | st.text(alphabet="x0123456789<>=!&|() \t", max_size=60)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(formula_text)
def test_parse_raises_only_formula_syntax_errors(text):
    try:
        formula = co.parse(text)
    except FormulaSyntaxError:
        return
    co.normalize(formula)
