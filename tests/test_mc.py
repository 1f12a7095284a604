"""Seeded sampling: reproducibility and agreement with exact values."""

from fractions import Fraction

import pytest

import costodds as co
from costodds import GuardExceededError, NotValidatedError, SchedulerGapError
from costodds import mc
from costodds.mc import estimate, sample_run
from helpers import HALF, ONE, choice_example, geometric_chain, two_flip_chain


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
