"""Alternating subset-sum games encoded as acyclic cost processes.

Player Odd fixes the odd-indexed picks (the scheduler), Player Even the
even-indexed ones (the coin); Odd wants the picks to sum to exactly T.
Both encodings price every round with a base amount l so the budget
pins the number of rounds, and siphon probability mass to the target in
proportion to the accumulated amount, which lets a threshold on the
reach probability read off the sum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..errors import GuardExceededError, PreconditionError
from ..model import CostProcess, build_process

__all__ = [
    "qsubsetsum_to_process",
    "universal_qsubsetsum_to_process",
    "qsubsetsum_brute",
]

BRUTE_LIMIT = 20


def qsubsetsum_to_process(
    weights: Sequence[int], total: int
) -> tuple[CostProcess, int, Fraction]:
    """Existential encoding: some scheduler reaches P(K <= B) >= tau iff Odd wins.

    Returns (process, B, tau). Escape edges to the target carry the
    round's own cost, and the final state overshoots the budget, so only
    escape mass counts toward K <= B. Targets beyond the largest
    reachable sum are refused; such games are losses outright.
    """
    count, _, base, budget, mass = _shape(weights, total)
    entries = []
    for start in range(0, count, 2):
        state, successor = f"q{start}", f"q{start + 2}"
        for pick in (0, 1):
            action = f"a{pick}"
            low = base + pick * weights[start]
            for cost in (low, low + weights[start + 1]):
                entries.append(
                    (state, action, successor, cost, Fraction(mass - cost, 2 * mass))
                )
                entries.append(
                    (state, action, "t", cost, Fraction(cost, 2 * mass))
                )
    entries.append((f"q{count}", "a", "t", budget + 1, Fraction(1)))
    process = build_process(entries, "q0", "t")
    threshold = (budget - Fraction(1, 2 ** (count // 2 + 1))) / mass
    return process, budget, threshold


def universal_qsubsetsum_to_process(
    weights: Sequence[int], total: int
) -> tuple[CostProcess, int, Fraction]:
    """Universal encoding: Odd wins iff some scheduler gets P(K <= B-1) below tau.

    Returns (process, B, tau); check the instance with solve_min on
    x <= B-1 against tau. Escapes are free here, so runs that bail out
    early always land under the budget.
    """
    count, _, base, budget, mass = _shape(weights, total)
    entries = []
    for start in range(0, count, 2):
        state, successor = f"q{start}", f"q{start + 2}"
        for pick in (0, 1):
            action = f"a{pick}"
            low = base + pick * weights[start]
            high = low + weights[start + 1]
            entries.append(
                (state, action, successor, low, Fraction(mass - low, 2 * mass))
            )
            entries.append(
                (state, action, successor, high, Fraction(mass - high, 2 * mass))
            )
            entries.append(
                (state, action, "t", 0, Fraction(low + high, 2 * mass))
            )
    entries.append((f"q{count}", "a", "t", 0, Fraction(1)))
    process = build_process(entries, "q0", "t")
    threshold = (budget + Fraction(1, 2 ** (count // 2 + 1))) / mass
    return process, budget, threshold


def qsubsetsum_brute(weights: Sequence[int], total: int) -> bool:
    """Game-tree oracle: alternate any/all over the picks, compare the sum to T."""
    count = _checked(weights, total)
    if count > BRUTE_LIMIT:
        raise GuardExceededError(f"brute force capped at {BRUTE_LIMIT} weights")

    def play(position: int, acc: int) -> bool:
        if position == count:
            return acc == total
        branches = (play(position + 1, acc + pick) for pick in (0, weights[position]))
        return any(branches) if position % 2 == 0 else all(branches)

    return play(0, 0)


def _checked(weights: Sequence[int], total: int) -> int:
    count = len(weights)
    if count < 2 or count % 2:
        raise PreconditionError(f"need an even number of weights >= 2, got {count}")
    for weight in weights:
        if not isinstance(weight, int) or isinstance(weight, bool) or weight < 0:
            raise PreconditionError(f"weights must be non-negative ints, got {weight!r}")
    if not isinstance(total, int) or isinstance(total, bool) or total < 0:
        raise PreconditionError(f"target must be a non-negative int, got {total!r}")
    return count


def _shape(weights: Sequence[int], total: int) -> tuple[int, int, int, int, int]:
    count = _checked(weights, total)
    top = max(weights)
    # Out-of-range targets would push the existential threshold past 1.
    if total > count * top:
        raise PreconditionError(
            f"target {total} exceeds the largest reachable sum {count * top}"
        )
    base = 1 + count * top
    budget = (count // 2) * base + total
    mass = 2 ** (count // 2) * count * count * base * base
    return count, top, base, budget, mass
