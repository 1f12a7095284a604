"""Seeded sampling: reproducibility and agreement with exact values."""

from fractions import Fraction
from random import Random

import pytest

import costodds as co
from costodds import GuardExceededError, NotValidatedError, SchedulerGapError
from costodds import mc
from costodds.mc import estimate, sample_run
from helpers import (
    HALF,
    ONE,
    UNREACHABLE_WIDE_ROWS,
    choice_example,
    geometric_chain,
    random_formula,
    random_process,
    reference_run,
    two_flip_chain,
)

WIDE = 2**300 + 1


def _oracle_report(process, scheduler, formula, n, seed, max_steps):
    """(n, hits, guard_trips) of the reference stream, as ``estimate`` counts them."""
    costs = [reference_run(process, scheduler, seed, i, max_steps) for i in range(n)]
    done = [cost for cost in costs if cost is not None]
    hits = sum(1 for cost in done if co.satisfies(cost, formula))
    return len(done), hits, n - len(done)


def _assert_streams_match(process, scheduler, formula, n, seed, max_steps=mc.STEP_GUARD):
    for index in range(0, n, 7):
        expected = reference_run(process, scheduler, seed, index, max_steps)
        if expected is None:
            with pytest.raises(GuardExceededError):
                sample_run(process, scheduler, seed, index, max_steps)
        else:
            assert sample_run(process, scheduler, seed, index, max_steps) == expected
    report = estimate(process, scheduler, formula, n, seed)
    expected = _oracle_report(process, scheduler, formula, n, seed, max_steps)
    assert (report.n, report.hits, report.guard_trips) == expected


def test_runs_are_reproducible_bit_for_bit():
    chain = geometric_chain()
    first = [sample_run(chain, None, 42, i) for i in range(30)]
    again = [sample_run(chain, None, 42, i) for i in range(30)]
    assert first == again
    report = estimate(chain, None, co.parse("x<=2"), 500, 42)
    assert report == estimate(chain, None, co.parse("x<=2"), 500, 42)


def test_pinned_sample_costs():
    # SHA-256 streams make these stable across platforms
    chain = two_flip_chain()
    assert [sample_run(chain, None, 7, i) for i in range(6)] == [3, 3, 3, 1, 1, 1]


@pytest.mark.parametrize("word", [-1, 2**64])
def test_seeds_and_indexes_outside_64_bits_are_refused(word):
    chain = two_flip_chain()
    formula = co.parse("x<=1")
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
        estimate(chain, None, formula, 4, word)
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
        sample_run(chain, None, word)
    with pytest.raises(ValueError, match=r"index must lie in \[0, 2\^64\)"):
        sample_run(chain, None, 7, word)
    # The largest seed and index still draw.
    assert sample_run(chain, None, 2**64 - 1, 2**64 - 1) in (1, 3)
    assert estimate(chain, None, formula, 4, 2**64 - 1).n == 4


def test_seeds_and_indexes_vary_the_draws():
    chain = geometric_chain()
    one = [sample_run(chain, None, 1, i) for i in range(50)]
    two = [sample_run(chain, None, 2, i) for i in range(50)]
    assert one != two
    assert len(set(one)) > 1


def test_deterministic_chains_estimate_exactly():
    chain = co.build_chain([("q0", "t", 4, ONE)], "q0", "t")
    report = estimate(chain, None, co.parse("x<=5"), 1000, 3)
    assert report.estimate == 1
    assert (report.n, report.hits, report.guard_trips) == (1000, 1000, 0)
    assert report.ci_halfwidth == 0.0
    assert report.seed == 3


def test_estimate_tracks_the_exact_value():
    report = estimate(geometric_chain(), None, co.parse("x<=1"), 20000, 2026)
    assert report.estimate == Fraction(14909, 20000)
    assert abs(float(report.estimate - Fraction(3, 4))) <= report.ci_halfwidth


def test_scheduler_choices_drive_the_sampled_mass():
    process = choice_example()
    formula = co.parse("x<=5")
    for solver, exact in ((co.solve_max, Fraction(3, 4)), (co.solve_min, Fraction(1, 4))):
        result = solver(process, formula)
        report = estimate(process, result.scheduler, formula, 20000, 99)
        assert result.value == exact
        assert abs(float(report.estimate - exact)) <= report.ci_halfwidth


def test_huge_bounds_cost_nothing_extra():
    report = estimate(two_flip_chain(), None, co.parse("x<=1000000000000"), 50, 4)
    assert (report.n, report.hits) == (50, 50)


def test_choice_states_need_a_scheduler():
    with pytest.raises(SchedulerGapError):
        sample_run(choice_example(), None, 1)
    with pytest.raises(SchedulerGapError):
        estimate(choice_example(), None, co.parse("x<=5"), 10, 1)


def test_schedulers_naming_a_disabled_action_are_refused():
    scheduler = co.Scheduler(5, {("q1", 1): "zzz", ("q1", 3): "a1"})
    with pytest.raises(SchedulerGapError, match="zzz"):
        estimate(choice_example(), scheduler, co.parse("x<=5"), 20, 1)


def test_step_guard_aborts_single_runs():
    with pytest.raises(GuardExceededError, match="steps"):
        sample_run(geometric_chain(), None, 1, 0, max_steps=0)


def test_estimate_counts_guard_trips_separately(monkeypatch):
    monkeypatch.setattr(mc, "STEP_GUARD", 3)
    report = estimate(geometric_chain(), None, co.parse("x<=1"), 200, 5)
    assert report.guard_trips > 0
    assert report.n == 200 - report.guard_trips
    assert report.estimate.denominator <= report.n


def test_rejects_invalid_models_and_empty_sampling_plans():
    broken = co.build_process([("q0", "a", "t", 1, HALF)], "q0", "t")
    with pytest.raises(NotValidatedError):
        sample_run(broken, None, 1)
    with pytest.raises(NotValidatedError):
        estimate(broken, None, co.parse("x<=1"), 10, 1)
    with pytest.raises(ValueError):
        estimate(two_flip_chain(), None, co.parse("x<=1"), 0, 1)


def test_streams_match_the_reference_under_solved_schedulers():
    rng = Random(13)
    for case in range(12):
        process = random_process(rng, max_states=6, max_cost=3)
        formula = random_formula(rng, max_bound=3)
        for solver in (co.solve_max, co.solve_min):
            scheduler = solver(process, formula).scheduler
            _assert_streams_match(process, scheduler, formula, 120, case)


def test_costs_past_the_budget_follow_the_top_entry():
    # q1 is reached at cost 1 or 3; cost 3 lies past the budget, where
    # only the TOP entry applies, and it picks the other action.
    process = choice_example()
    scheduler = co.Scheduler(1, {("q1", 1): "a1", ("q1", co.TOP): "a2"})
    _assert_streams_match(process, scheduler, co.parse("x<=5"), 300, 8)
    # a1 at cost 3 would end at 6; a2 ends at 4 or 9.
    assert {sample_run(process, scheduler, 8, i) for i in range(40)} == {4, 9}


@pytest.mark.parametrize(
    "rows",
    [
        # den == 1 between two coins: the first step draws nothing.
        [("q0", "q1", 1, ONE), ("q1", "t", 0, HALF), ("q1", "q0", 2, HALF)],
        # den == 3 rejects the two-bit draw 3.
        [("q0", "t", 1, Fraction(1, 3)), ("q0", "q0", 2, Fraction(2, 3))],
        # A 301-bit denominator: every draw spans two digests.
        [
            ("q0", "q0", 1, Fraction(2**299, WIDE)),
            ("q0", "t", 2, Fraction(WIDE - 2**299, WIDE)),
        ],
        [("q0", "q0", 1, Fraction(1, WIDE)), ("q0", "t", 2, Fraction(WIDE - 1, WIDE))],
        # D = 3·2^301 from an unreachable state; reachable draws stay at 2 and 3.
        UNREACHABLE_WIDE_ROWS,
    ],
    ids=["den-1", "den-3", "wide-coin", "wide-complement", "unreachable-wide"],
)
def test_streams_match_the_reference_on_every_draw_width(rows):
    chain = co.build_chain(rows, "q0", "t")
    _assert_streams_match(chain, None, co.parse("x<=4"), 300, 21)


def test_guard_trips_match_the_reference(monkeypatch):
    monkeypatch.setattr(mc, "STEP_GUARD", 3)
    process = choice_example()
    scheduler = co.solve_max(process, co.parse("x<=5")).scheduler
    for chain, sched in ((geometric_chain(), None), (process, scheduler)):
        _assert_streams_match(chain, sched, co.parse("x<=1"), 200, 5, max_steps=3)
    report = estimate(geometric_chain(), None, co.parse("x<=1"), 200, 5)
    assert report.guard_trips > 0
