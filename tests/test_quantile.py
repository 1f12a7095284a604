"""Budget quantiles: a-priori bounds, galloping search, degenerate thresholds."""

import math
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest

import costodds as co
from costodds import NotValidatedError, ThresholdRangeError, ln_upper, quantile

from helpers import (
    HALF,
    ONE,
    choice_example,
    fresh,
    geometric_chain,
    mixed_denominator_process,
    random_chain,
    random_process,
    two_flip_chain,
)


def test_ln_upper_is_an_upper_bound():
    # ln 2 = 0.693147..., ln 10 = 2.302585...; upper bounds must clear
    # these but stay within one part in 2^60.
    two = ln_upper(Fraction(2))
    assert Fraction(693147, 10**6) < two < Fraction(693148, 10**6)
    ten = ln_upper(Fraction(10))
    assert Fraction(2302585, 10**6) < ten < Fraction(2302586, 10**6)
    assert ln_upper(ONE) == 0
    assert ln_upper(Fraction(2), frac_bits=16) >= two


def test_ln_upper_rejects_small_values():
    with pytest.raises(ValueError):
        ln_upper(HALF)


def test_ln_upper_reads_ints_and_floats_exactly():
    # An int or float is the rational it equals, so it gets the same
    # bound as the Fraction, memoized or not; ln is checked to 50 digits.
    def decimal(x: Fraction) -> Decimal:
        return Decimal(x.numerator) / Decimal(x.denominator)

    with localcontext() as context:
        context.prec = 50
        for value in (5, 7.0, 1000, Fraction(5)):
            for bits in (64, 128):
                bound = ln_upper(value, bits)
                assert bound == ln_upper.__wrapped__(Fraction(value), bits)
                assert decimal(bound) > decimal(Fraction(value)).ln()
    for _ in range(2):
        with pytest.raises(ValueError):
            ln_upper(HALF)


def test_tail_budget_matches_the_fraction_formula():
    # tail_budget takes its ceiling in integers; the Fraction formula it
    # replaces is the reference. It reads only the state count and the
    # table's p_min and max_cost.
    rng = Random(61)
    for _ in range(3000):
        n = rng.randint(1, 12)
        k_max = rng.randint(0, 40)
        den = rng.randint(1, 2 ** rng.randint(1, 80))
        p_min = Fraction(rng.randint(1, den), den)
        log_bound = Fraction(rng.randint(0, 2**72), 2 ** rng.choice((0, 64, 128, 256)))
        table = SimpleNamespace(p_min=p_min, max_cost=k_max)
        process = SimpleNamespace(states=range(n), int_table=table)
        expected = k_max * math.ceil(n * (log_bound / p_min**n + 1))
        assert quantile.tail_budget(process, log_bound) == expected


def test_budget_bound_ingredients():
    # Two states, flip probability 1/2, top cost 3: the bound lands on
    # 3 * ceil(2 * (4L + 1)) = 24 for any sensible L >= ln 2.
    chain = co.build_chain([("q0", "q0", 3, HALF), ("q0", "t", 3, HALF)], "q0", "t")
    bounds = co.budget_upper_bound(chain, HALF)
    assert bounds.p_min == HALF
    assert bounds.k_max == 3
    assert bounds.B_bound == 24
    assert bounds.log_bound >= ln_upper(Fraction(2))
    assert co.solve_min(chain, co.parse("x<=24")).value >= HALF


def test_budget_bound_geometric():
    bounds = co.budget_upper_bound(geometric_chain(), HALF)
    assert bounds.B_bound == 8
    assert co.solve_chain(geometric_chain(), co.parse("x<=8")) >= HALF


def test_budget_bound_at_zero_threshold_is_states_times_cost():
    bounds = co.budget_upper_bound(geometric_chain(), Fraction(0))
    assert bounds.log_bound == 0
    assert bounds.B_bound == 1 * 2


def test_budget_bound_really_bounds_every_scheduler():
    rng = Random(41)
    for _ in range(15):
        process = random_process(rng)
        for tau in (Fraction(1, 4), HALF, Fraction(9, 10)):
            bound = co.budget_upper_bound(process, tau).B_bound
            assert co.solve_min(process, co.parse(f"x<={bound}")).value >= tau


def test_quantile_on_chains():
    assert co.quantile_query(two_flip_chain(), HALF, "exists") == 1
    assert co.quantile_query(two_flip_chain(), Fraction(3, 4), "exists") == 3
    assert co.quantile_query(geometric_chain(), Fraction(3, 4), "exists") == 1
    assert co.quantile_query(geometric_chain(), HALF, "forall") == 0


def test_quantile_on_the_choice_example():
    # P_max(x <= 4) is already 3/4: pay the sure 3 after a cheap first
    # step, hedge with the split arm after an expensive one.
    process = choice_example()
    assert co.quantile_query(process, Fraction(3, 4), "exists") == 4
    result = co.solve_max(process, co.parse("x<=4"))
    assert result.value == Fraction(3, 4)
    assert dict(result.scheduler.entries)[("q1", 1)] == "a1"
    assert dict(result.scheduler.entries)[("q1", 3)] == "a2"
    # No scheduler clears 1/4 below budget 4, every one does at 4.
    assert co.quantile_query(process, Fraction(1, 4), "forall") == 4


def test_quantile_threshold_zero_is_free():
    assert co.quantile_query(two_flip_chain(), Fraction(0), "exists") == 0
    assert co.quantile_query(choice_example(), Fraction(0), "forall") == 0


def test_quantile_threshold_one_is_worst_case_cost():
    # Best guaranteed total is 6 (always a1); worst is 9 (forced a2 arm).
    assert co.quantile_query(two_flip_chain(), ONE, "exists") == 3
    assert co.quantile_query(choice_example(), ONE, "exists") == 6
    assert co.quantile_query(choice_example(), ONE, "forall") == 9


def test_quantile_threshold_one_unbounded_chain():
    assert co.quantile_query(geometric_chain(), ONE, "exists") is None
    assert co.quantile_query(geometric_chain(), ONE, "forall") is None


def test_quantile_answers_past_the_digit_cap(digit_cap):
    # CPython's smallest cap keeps the search to about 2 100 galloping and
    # 2 100 bisecting probes; the fixture restores the cap afterwards.
    sys.set_int_max_str_digits(640)
    answer = 10**640
    chain = co.build_chain([("q0", "t", answer, ONE)], "q0", "t")
    assert co.quantile_query(chain, HALF, "exists") == answer


def test_quantile_argument_checks():
    with pytest.raises(ThresholdRangeError):
        co.quantile_query(two_flip_chain(), Fraction(3, 2), "exists")
    with pytest.raises(ValueError):
        co.quantile_query(two_flip_chain(), HALF, "whenever")
    broken = co.build_chain([("q0", "t", 1, HALF)], "q0", "t")
    with pytest.raises(NotValidatedError):
        co.quantile_query(broken, HALF, "exists")


def assert_smallest_budget(model, tau, quant, result):
    solver = co.solve_max if quant == "exists" else co.solve_min
    assert result is not None
    assert solver(fresh(model), co.parse(f"x<={result}")).value >= tau
    if result > 0:
        assert solver(fresh(model), co.parse(f"x<={result - 1}")).value < tau


def test_quantile_boundary_property_random_models():
    rng = Random(42)
    for trial in range(25):
        model = (
            random_chain(rng, max_states=3, max_cost=2)
            if trial % 2
            else random_process(rng, max_states=3, max_cost=2)
        )
        for tau in (Fraction(1, 4), HALF, Fraction(9, 10)):
            for quant in ("exists", "forall"):
                assert_smallest_budget(model, tau, quant, co.quantile_query(model, tau, quant))


def test_quantile_equals_linear_scan():
    rng = Random(43)
    models = [
        random_chain(rng, max_states=3, max_cost=1)
        if trial % 2
        else random_process(rng, max_states=3, max_cost=1)
        for trial in range(15)
    ]
    models += [mixed_denominator_process(rng) for _ in range(15)]
    for model in models:
        for tau in (Fraction(0), Fraction(1, 4), HALF, Fraction(9, 10)):
            for quant, solver in (("exists", co.solve_max), ("forall", co.solve_min)):
                result = co.quantile_query(model, tau, quant)
                scan = next(
                    b
                    for b in range(co.budget_upper_bound(model, tau).B_bound + 1)
                    if solver(fresh(model), co.parse(f"x<={b}")).value >= tau
                )
                assert result == scan


def test_quantiles_on_wide_denominators_stop_near_the_answer():
    # Bounds in the thousands to tens of thousands over answers below 8:
    # bisecting from the middle of the bound took seconds to minutes per
    # query here, where galloping from 0 takes milliseconds.
    rng = Random(1)
    for _ in range(5):
        model = mixed_denominator_process(rng)
    answers = {}
    for tau in (Fraction(1, 4), HALF, Fraction(9, 10)):
        assert co.budget_upper_bound(model, tau).B_bound > 5000
        for quant in ("exists", "forall"):
            start = time.perf_counter()
            answers[(tau, quant)] = co.quantile_query(fresh(model), tau, quant)
            assert time.perf_counter() - start < 2
            assert_smallest_budget(model, tau, quant, answers[(tau, quant)])
    assert list(answers.values()) == [0, 1, 1, 1, 2, 7]
