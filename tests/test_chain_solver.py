"""Exact truncated distributions and formula probabilities on chains.

Expected values come from the state-elimination oracle in helpers, or
were computed by hand where noted.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

import costodds as co
from costodds import NotAChainError, NotValidatedError
from costodds.gadgets import chainify, posslp_instance
from costodds.chain_solver import _walk
from costodds.linalg import solve_linear_system

from helpers import (
    HALF,
    ONE,
    UNREACHABLE_WIDE_ROWS,
    chain_distribution_oracle,
    chain_value_oracle,
    choice_example,
    geometric_chain,
    mixed_denominator_chain,
    posslp_corpus,
    random_chain,
    random_formula,
    reference_cost_distribution,
    two_cycle_chain,
    two_flip_chain,
    zero_loop_chain,
)


def test_two_flip_distribution():
    dist = co.cost_distribution(two_flip_chain(), 2)
    assert dict(dist.mass) == {1: HALF}
    assert dist.overflow == HALF
    full = co.cost_distribution(two_flip_chain(), 3)
    assert dict(full.mass) == {1: HALF, 3: HALF}
    assert full.overflow == 0


def test_geometric_distribution():
    # One unit per failed flip: P(K = k) = 2^-(k+1).
    dist = co.cost_distribution(geometric_chain(), 3)
    assert dict(dist.mass) == {
        0: HALF,
        1: Fraction(1, 4),
        2: Fraction(1, 8),
        3: Fraction(1, 16),
    }
    assert dist.overflow == Fraction(1, 16)


def test_zero_cost_cycle_needs_a_linear_solve():
    # Absorption at cost 0 solves u0 = (1/2)u1, u1 = 1/2 + (1/2)u0.
    dist = co.cost_distribution(zero_loop_chain(), 1)
    assert dict(dist.mass) == {0: Fraction(1, 3), 1: Fraction(2, 3)}
    assert dist.overflow == 0
    assert dist.stats["linear_solves"] >= 1


def test_cyclic_components_share_one_linear_solve():
    # Level 0 holds two zero-cost cycles and a zero-cost self-loop.
    chain = two_cycle_chain()
    for budget in (0, 2, 6):
        dist = co.cost_distribution(chain, budget)
        assert dist.stats["linear_solves"] == 1
        mass, overflow = chain_distribution_oracle(chain, budget)
        assert dict(dist.mass) == mass
        assert dist.overflow == overflow


def test_acyclic_levels_avoid_linear_solves():
    dist = co.cost_distribution(two_flip_chain(), 3)
    assert dist.stats["linear_solves"] == 0


def test_solve_chain_values():
    assert co.solve_chain(two_flip_chain(), co.parse("x<=1")) == HALF
    assert co.solve_chain(two_flip_chain(), co.parse("x<=3")) == 1
    assert co.solve_chain(geometric_chain(), co.parse("x<=1")) == Fraction(3, 4)
    assert co.solve_chain(geometric_chain(), co.parse("x=2")) == Fraction(1, 8)


def test_initial_equals_target():
    chain = co.build_chain([], "t", "t")
    dist = co.cost_distribution(chain, 5)
    assert dict(dist.mass) == {0: ONE}
    assert dist.overflow == 0
    assert dist.stats["max_numerator_bits"] == 1
    assert co.solve_chain(chain, co.parse("x<=0")) == 1
    assert co.solve_chain(chain, co.parse("x>=1")) == 0


def test_solve_chain_rejects_processes_with_choices():
    # The second also fails validation; the chain check comes first.
    invalid = co.build_process([("q0", "a", "t", 1, HALF), ("q0", "b", "t", 2, ONE)], "q0", "t")
    assert not co.validate(invalid).ok
    for process in (choice_example(), invalid):
        with pytest.raises(NotAChainError, match="more than one enabled action"):
            co.solve_chain(process, co.parse("x<=5"))


def test_solve_chain_rejects_invalid_models():
    broken = co.build_chain([("q0", "t", 1, HALF)], "q0", "t")
    with pytest.raises(NotValidatedError) as info:
        co.solve_chain(broken, co.parse("x<=1"))
    assert any(f.code == "bad-distribution" for f in info.value.report.violations)


def test_distribution_rejects_negative_budget():
    with pytest.raises(ValueError):
        co.cost_distribution(two_flip_chain(), -1)


def test_budget_zero():
    dist = co.cost_distribution(geometric_chain(), 0)
    assert dict(dist.mass) == {0: HALF}
    assert dist.overflow == HALF


def test_distribution_matches_oracle_on_random_chains():
    rng = Random(31)
    for _ in range(60):
        chain = random_chain(rng)
        budget = rng.randint(0, 9)
        mass, overflow = chain_distribution_oracle(chain, budget)
        dist = co.cost_distribution(chain, budget)
        assert dict(dist.mass) == mass
        assert dist.overflow == overflow
        assert sum(dist.mass.values(), dist.overflow) == 1


def test_solve_matches_oracle_on_random_chains():
    rng = Random(32)
    for _ in range(60):
        chain = random_chain(rng)
        formula = random_formula(rng)
        assert co.solve_chain(chain, formula) == chain_value_oracle(chain, formula)


def test_complement_probabilities_sum_to_one():
    rng = Random(33)
    for _ in range(40):
        chain = random_chain(rng)
        formula = random_formula(rng)
        total = co.solve_chain(chain, formula) + co.solve_chain(chain, co.Not(formula))
        assert total == 1


def test_solve_chain_agrees_with_the_walk_on_multi_span_formulas():
    # solve_chain runs the MDP sweep and cost_distribution the level walk:
    # the value is the accepted mass, plus the overflow when every cost
    # past the largest constant is accepted.
    rng = Random(35)
    for index in range(60):
        chain = mixed_denominator_chain(rng) if index % 2 else random_chain(rng)
        a = rng.randint(0, 30)
        b = rng.randint(a, 40)
        for text in (f"x<={a} | x>={b}", f"{a}<=x<={b}", f"!(x={a})"):
            formula = co.parse(text)
            budget = co.max_constant(formula)
            dist = co.cost_distribution(chain, budget)
            value = sum((p for cost, p in dist.mass.items() if co.satisfies(cost, formula)), Fraction(0))
            if co.satisfies(budget + 1, formula):
                value += dist.overflow
            assert co.solve_chain(chain, formula) == value, text


def test_stats_are_plain_counters():
    stats = co.cost_distribution(geometric_chain(), 4).stats
    assert set(stats) == {"levels", "linear_solves", "max_numerator_bits"}
    assert all(isinstance(v, int) and v >= 0 for v in stats.values())


def test_peak_bits_are_read_off_the_reduced_answer():
    # The counter is the largest reduced numerator's bit length over the
    # masses and the overflow, on the trivial chain too.
    rng = Random(36)
    chains = [random_chain(rng) for _ in range(40)]
    chains += [mixed_denominator_chain(rng) for _ in range(40)]
    for chain in [*chains, co.build_chain([], "t", "t")]:
        for budget in (0, rng.randint(1, 12), 30):
            dist = co.cost_distribution(chain, budget)
            peak = max(p.numerator.bit_length() for p in [*dist.mass.values(), dist.overflow])
            assert dist.stats["max_numerator_bits"] == peak


def assert_same_walk(dist, reference):
    assert dict(dist.mass) == dict(reference.mass)
    assert dist.overflow == reference.overflow
    assert dict(dist.stats) == dict(reference.stats)


def test_integer_walk_matches_the_fraction_walk():
    # Mixed denominators, zero-cost cycles met at many levels and
    # zero-cost self-loops; mass, overflow and every counter agree.
    rng = Random(34)
    solves = 0
    for _ in range(120):
        chain = mixed_denominator_chain(rng)
        for budget in (0, rng.randint(1, 39), 40):
            dist = co.cost_distribution(chain, budget)
            assert_same_walk(dist, reference_cost_distribution(chain, budget))
            assert co.solve_chain(chain, co.Not(co.Atom(budget))) == dist.overflow
            solves += dist.stats["linear_solves"]
    assert solves > 400
    # Each state keeps its own denominator, u's 2^301 included.
    chain = co.build_chain(UNREACHABLE_WIDE_ROWS, "q0", "t")
    assert [chain.int_table.rows[q][0][0] for q in ("q0", "q1", "u")] == [2, 3, 2**301]
    for budget in (0, 1, 7, 40):
        dist = co.cost_distribution(chain, budget)
        assert_same_walk(dist, reference_cost_distribution(chain, budget))
        assert co.solve_chain(chain, co.Not(co.Atom(budget))) == dist.overflow


def test_an_unreachable_wide_state_leaves_the_walk_alone():
    # u's 2^301 denominator reaches neither the reachable states' rows
    # nor the walk's unreduced pairs.
    wide = co.build_chain(UNREACHABLE_WIDE_ROWS, "q0", "t")
    narrow = co.build_chain([row for row in UNREACHABLE_WIDE_ROWS if row[0] != "u"], "q0", "t")
    assert wide.reachable == narrow.reachable == {"q0", "q1", "t"}
    for q in wide.reachable:
        assert wide.int_table.rows[q] == narrow.int_table.rows[q]
    for budget in (0, 1, 7, 40):
        assert _walk(wide, budget)[:2] == _walk(narrow, budget)[:2]


def test_fixed_chains_match_the_fraction_walk():
    for chain in (two_cycle_chain(), zero_loop_chain(), geometric_chain(), two_flip_chain()):
        for budget in range(0, 41, 4):
            assert_same_walk(
                co.cost_distribution(chain, budget), reference_cost_distribution(chain, budget)
            )


def test_criterion_four_chains_match_the_fraction_walk(monkeypatch):
    def reference_solve(chain, formula):
        budget = co.max_constant(formula)
        dist = reference_cost_distribution(chain, budget)
        accepted = (p for cost, p in dist.mass.items() if co.satisfies(cost, formula))
        value = sum(accepted, Fraction(0))
        return value + dist.overflow if co.satisfies(budget + 1, formula) else value

    for circuit, gates in posslp_corpus():
        for first, second in product(gates, repeat=2):
            chain, formula, certificate = posslp_instance(circuit, first, second)
            budget = co.max_constant(formula)
            assert_same_walk(
                co.cost_distribution(chain, budget), reference_cost_distribution(chain, budget)
            )
            with monkeypatch.context() as patch:
                patch.setattr(chainify, "solve_chain", reference_solve)
                _, _, reference = posslp_instance(circuit, first, second)
            assert certificate.bookkeeping["H"] == reference.bookkeeping["H"]


def determinant(matrix):
    """Laplace expansion along the first row: slow, but shares nothing with Bareiss."""
    if not matrix:
        return 1
    return sum(
        (-1) ** j * a * determinant([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j, a in enumerate(matrix[0])
        if a
    )


def test_exact_solves_satisfy_their_systems():
    rng = Random(35)
    outcomes = set()
    for n in range(7):
        for _ in range(40):
            matrix = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            rhs = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(n)]
            if n:
                # Column 0 must pivot on a later row.
                matrix[0][0] = 0
            singular = determinant(matrix) == 0
            outcomes.add(singular)
            if singular:
                with pytest.raises(co.SingularMatrixError):
                    solve_linear_system(matrix, rhs)
                continue
            d, ys = solve_linear_system(matrix, rhs)
            assert d == abs(determinant(matrix))
            assert [
                [sum(a * y[c] for a, y in zip(row, ys)) for c in range(3)] for row in matrix
            ] == [[d * b for b in row] for row in rhs]
    assert outcomes == {False, True}
    with pytest.raises(co.SingularMatrixError, match="no pivot in column 1"):
        solve_linear_system([[1, 2], [2, 4]], [[1], [1]])
    for matrix, rhs in [([[1, 2]], [[1]]), ([[1]], [[1], [2]]), ([[1], [2]], [[1], [2]])]:
        with pytest.raises(ValueError, match="must be square"):
            solve_linear_system(matrix, rhs)
