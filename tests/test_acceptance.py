"""Acceptance gate: thirteen exact-equality criteria with time budgets.

Each test prints one ``PASS criterion-N (x.y s)`` line; a failing
criterion shows up as a regular pytest failure instead. Randomized
corpora are seeded, so every run checks the same instances.
"""

import math
import time
from fractions import Fraction
from itertools import product
from random import Random

import costodds as co
from costodds import PreconditionError
from costodds.gadgets import (
    circuit_to_chain,
    circuit_to_dfa,
    count_parikh_paths,
    countdown_brute,
    countdown_to_process,
    eval_circuit,
    lift_gate,
    posslp_instance,
    qsubsetsum_brute,
    qsubsetsum_to_process,
    threshold_to_half,
    universal_qsubsetsum_to_process,
)
from helpers import (
    check_optimal,
    choice_example,
    fixed_circuit_corpus,
    geometric_chain,
    mc_fixture_corpus,
    optimal_value_oracle,
    posslp_corpus,
    random_branching_process,
    random_chain,
    random_circuit,
    random_countdown,
    random_formula,
    random_process,
    subset_sum_corpus,
    two_flip_chain,
    zero_loop_chain,
)

SEED = 20260814
HALF = Fraction(1, 2)


def finish(capsys, label: str, start: float, limit: float | None) -> None:
    elapsed = time.perf_counter() - start
    if limit is not None:
        assert elapsed < limit, f"{label} took {elapsed:.1f} s, limit {limit:.0f} s"
    with capsys.disabled():
        print(f"PASS {label} ({elapsed:.1f} s)")


def circuit_pool() -> list:
    rng = Random(SEED)
    pairs = list(fixed_circuit_corpus())
    pairs.extend(random_circuit(rng) for _ in range(100))
    return pairs


def test_criterion_01_worked_example(capsys):
    start = time.perf_counter()
    result = co.solve_max(choice_example(), co.parse("x<=5"))
    assert result.value == Fraction(3, 4)
    assert result.scheduler.entries[("q1", 1)] == "a1"
    assert result.scheduler.entries[("q1", 3)] == "a2"
    finish(capsys, "criterion-1", start, 1.0)


def test_criterion_02_circuit_chain_certificates(capsys):
    start = time.perf_counter()
    for circuit, gate_id in circuit_pool():
        expected = eval_circuit(circuit, gate_id)
        work, gate = circuit, gate_id
        if circuit.gate(gate_id).level % 2 == 0:
            work, gate = lift_gate(circuit, gate_id)
        cert = circuit_to_chain(work, gate)
        hit = co.solve_chain(cert.model, co.parse(f"x={cert.target_value}"))
        assert hit * cert.scale == expected
    finish(capsys, "criterion-2", start, 60.0)


def test_criterion_03_path_counts_match_gate_values(capsys):
    start = time.perf_counter()
    for circuit, gate_id in circuit_pool():
        dfa, budget, source, sink = circuit_to_dfa(circuit, gate_id)
        count = count_parikh_paths(dfa, source, sink, budget)
        assert count == eval_circuit(circuit, gate_id)
    finish(capsys, "criterion-3", start, 60.0)


def test_criterion_04_value_comparisons_at_half(capsys):
    start = time.perf_counter()
    for circuit, gates in posslp_corpus():
        for first, second in product(gates, repeat=2):
            chain, formula, _ = posslp_instance(circuit, first, second)
            verdict = co.solve_chain(chain, formula) >= HALF
            expected = eval_circuit(circuit, first) >= eval_circuit(circuit, second)
            assert verdict == expected, (first, second)
    finish(capsys, "criterion-4", start, 120.0)


def test_criterion_05_existential_subset_sum(capsys):
    start = time.perf_counter()
    for weights, total in subset_sum_corpus():
        expected = qsubsetsum_brute(weights, total)
        try:
            process, budget, tau = qsubsetsum_to_process(weights, total)
        except PreconditionError:
            # T beyond the largest reachable sum: a loss by definition
            assert total > len(weights) * max(weights)
            assert expected is False
            continue
        formula = co.parse(f"x<={budget}")
        result = co.solve_max(process, formula)
        check_optimal(process, formula, result)
        assert (result.value >= tau) is expected, (weights, total)
    finish(capsys, "criterion-5", start, 120.0)


def test_criterion_06_universal_subset_sum(capsys):
    start = time.perf_counter()
    for weights, total in subset_sum_corpus():
        expected = qsubsetsum_brute(weights, total)
        try:
            process, budget, tau = universal_qsubsetsum_to_process(weights, total)
        except PreconditionError:
            # T beyond the largest reachable sum: a loss by definition
            assert total > len(weights) * max(weights)
            assert expected is False
            continue
        formula = co.parse(f"x<={budget - 1}")
        result = co.solve_min(process, formula)
        check_optimal(process, formula, result)
        assert (result.value < tau) is expected, (weights, total)
    finish(capsys, "criterion-6", start, 120.0)


def test_criterion_07_countdown_games(capsys):
    start = time.perf_counter()
    rng = Random(SEED)
    for _ in range(500):
        game = random_countdown(rng, max_states=3, max_total=12)
        process, total = countdown_to_process(game)
        formula = co.parse(f"x={total}")
        result = co.solve_max(process, formula)
        check_optimal(process, formula, result)
        assert (result.value == 1) is countdown_brute(game), game
    finish(capsys, "criterion-7", start, 120.0)


def test_criterion_08_budget_bound_soundness(capsys):
    start = time.perf_counter()
    rng = Random(SEED)
    taus = (Fraction(1, 4), HALF, Fraction(9, 10))
    for _ in range(200):
        process = random_process(rng, max_states=5)
        for tau in taus:
            bound = co.budget_upper_bound(process, tau).B_bound
            formula = co.parse(f"x<={bound}")
            result = co.solve_min(process, formula)
            check_optimal(process, formula, result)
            assert result.value >= tau
    finish(capsys, "criterion-8", start, 60.0)


def test_criterion_09_quantile_boundary(capsys):
    start = time.perf_counter()
    rng = Random(SEED)
    taus = (Fraction(1, 4), HALF, Fraction(9, 10))
    checked = 0
    for _ in range(40):
        model = (
            random_chain(rng, max_states=3, max_cost=2)
            if rng.random() < 0.5
            else random_process(rng, max_states=3, max_cost=2)
        )
        for tau, quant in product(taus, ("exists", "forall")):
            bound = co.budget_upper_bound(model, tau).B_bound
            if bound > 200:
                continue
            solver = co.solve_max if quant == "exists" else co.solve_min
            scan = next(
                (
                    b
                    for b in range(bound + 1)
                    if solver(model, co.parse(f"x<={b}")).value >= tau
                ),
                None,
            )
            result = co.quantile_query(model, tau, quant)
            assert result == scan, (tau, quant)
            assert result is not None
            assert solver(model, co.parse(f"x<={result}")).value >= tau
            if result > 0:
                assert solver(model, co.parse(f"x<={result - 1}")).value < tau
            checked += 1
    assert checked >= 60
    finish(capsys, "criterion-9", start, 60.0)


def test_criterion_10_scheduler_enumeration(capsys):
    start = time.perf_counter()
    rng = Random(SEED)
    for _ in range(200):
        process = random_branching_process(rng)
        formula = random_formula(rng)
        for solver, mode in ((co.solve_max, "max"), (co.solve_min, "min")):
            result = solver(process, formula)
            assert result.value == optimal_value_oracle(process, formula, mode)
            check_optimal(process, formula, result)
    finish(capsys, "criterion-10", start, 120.0)


def test_criterion_11_threshold_fold(capsys):
    start = time.perf_counter()
    rng = Random(SEED)
    taus = (Fraction(1, 4), Fraction(1, 3), Fraction(2, 3), Fraction(9, 10))
    for _ in range(25):
        model = (
            random_chain(rng) if rng.random() < 0.5 else random_process(rng)
        )
        bound = rng.randint(0, 6)
        formula = co.parse(f"x<={bound}")
        for tau, quant in product(taus, ("exists", "forall")):
            folded = threshold_to_half(model, formula, tau, bound + 1, 0)
            direct = co.decide(model, formula, tau, quant)[0]
            assert co.decide(folded, formula, HALF, quant)[0] is direct
    finish(capsys, "criterion-11", start, 60.0)


def test_criterion_12_complement_identities(capsys):
    start = time.perf_counter()
    rng = Random(SEED)
    chains = [two_flip_chain(), geometric_chain(), zero_loop_chain()]
    chains += [random_chain(rng) for _ in range(40)]
    processes = [choice_example()]
    processes += [random_process(rng) for _ in range(40)]
    processes += [random_branching_process(rng) for _ in range(20)]
    for chain in chains:
        formula = random_formula(rng)
        assert co.solve_chain(chain, formula) + co.solve_chain(chain, co.Not(formula)) == 1
    for process in processes:
        formula = random_formula(rng)
        assert (
            co.solve_max(process, formula).value
            == 1 - co.solve_min(process, co.Not(formula)).value
        )
    finish(capsys, "criterion-12", start, None)


def test_criterion_13_sampling_consistency(capsys):
    start = time.perf_counter()
    draws = 10**5
    for process, scheduler, formula, exact in mc_fixture_corpus():
        sigma = math.sqrt(float(exact * (1 - exact)) / draws)
        within = 0
        for rep in range(100):
            report = co.estimate(process, scheduler, formula, draws, SEED + rep)
            if abs(float(report.estimate - exact)) <= 3 * sigma:
                within += 1
        assert within >= 99
    finish(capsys, "criterion-13", start, 120.0)
