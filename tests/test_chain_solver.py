"""Exact truncated distributions and formula probabilities on chains.

Expected values come from the state-elimination oracle in helpers, or
were computed by hand where noted.
"""

from fractions import Fraction
from random import Random

import pytest

import costodds as co
from costodds import NotAChainError, NotValidatedError

from helpers import (
    HALF,
    ONE,
    chain_distribution_oracle,
    chain_value_oracle,
    choice_example,
    geometric_chain,
    random_chain,
    random_formula,
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
    assert co.solve_chain(chain, co.parse("x<=0")) == 1
    assert co.solve_chain(chain, co.parse("x>=1")) == 0


def test_solve_chain_rejects_processes_with_choices():
    with pytest.raises(NotAChainError):
        co.solve_chain(choice_example(), co.parse("x<=5"))


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


def test_stats_are_plain_counters():
    stats = co.cost_distribution(geometric_chain(), 4).stats
    assert set(stats) == {"levels", "linear_solves", "max_numerator_bits"}
    assert all(isinstance(v, int) and v >= 0 for v in stats.values())
