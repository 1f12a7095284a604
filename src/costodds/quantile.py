"""Quantile queries: smallest budget that makes staying on budget likely enough.

For a threshold below 1 the answer is found by galloping through the
budgets 0, 1, 3, 7, ... to the first that meets the threshold, then by
bisection below it. Each probe is one ``x<=B`` solve on the same
process object, which resolves only the epochs that earlier probes did
not. The search never passes an a-priori bound: with p_min the smallest
transition probability, k_max the largest cost and n the number of
states, every scheduler satisfies P(K <= B) >= tau once

    B >= k_max * ceil(n * (L / p_min**n + 1)),   L >= -ln(1 - tau).

Any rational upper bound L works, so ln is evaluated in exact dyadic
arithmetic with directed upward rounding instead of floating point: the
bound stays a bound, bit for bit. At tau = 1 probabilities stop
mattering and the question degenerates to worst-case path cost, solved
by the integer fixpoint that ``decide_cost_utility`` also runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ThresholdRangeError
from .formula import Atom
from .mdp_solver import _min_max_cost, solve_max, solve_min
from .model import CostProcess, require_valid

__all__ = ["QuantileBounds", "budget_upper_bound", "quantile_query", "ln_upper"]


@dataclass(frozen=True)
class QuantileBounds:
    """Ingredients and result of the a-priori budget bound.

    ``log_bound`` is the rational L >= -ln(1 - tau) actually used; it is
    dyadic (a power-of-two denominator) by construction.
    """

    p_min: Fraction
    k_max: int
    B_bound: int
    log_bound: Fraction


@lru_cache(maxsize=256)
def ln_upper(value: Fraction, frac_bits: int = 64) -> Fraction:
    """A dyadic rational upper bound on ln(value), for value >= 1.

    Range-reduces to [1, 2) against an upper bound on ln 2, sums the
    atanh series with an explicit tail estimate, and rounds the total
    upward to ``frac_bits`` fractional bits. Tightening ``frac_bits``
    only ever lowers the result toward the true logarithm. An int or
    float argument is read as the exact rational it equals. Results are
    memoized: quantile bounds and chain certificates ask for the same
    few logarithms again and again.
    """
    if value < 1:
        raise ValueError(f"ln_upper needs value >= 1, got {value}")
    exponent = 0
    reduced = Fraction(value)
    while reduced >= 2:
        reduced /= 2
        exponent += 1
    total = _atanh_ln(reduced, frac_bits)
    if exponent:
        total += exponent * _atanh_ln(Fraction(2), frac_bits)
    return _round_up_dyadic(total, frac_bits)


def _atanh_ln(value: Fraction, frac_bits: int) -> Fraction:
    """Exact-series upper bound on ln(value) for value in [1, 2]."""
    if value == 1:
        return Fraction(0)
    z = (value - 1) / (value + 1)
    z2 = z * z
    term = z
    total = Fraction(0)
    n = 0
    threshold = Fraction(1, 2 ** (frac_bits + 2))
    while True:
        total += term / (2 * n + 1)
        # Tail after the z^(2n+1) term is below z^(2n+3)/((2n+3)(1-z^2)).
        tail = term * z2 / ((2 * n + 3) * (1 - z2))
        if tail <= threshold:
            return 2 * (total + tail)
        term *= z2
        n += 1


def _round_up_dyadic(value: Fraction, frac_bits: int) -> Fraction:
    scale = 1 << frac_bits
    return Fraction(math.ceil(value * scale), scale)


def tail_budget(process: CostProcess, log_bound: Fraction) -> int:
    """The bound formula k_max * ceil(n * (L / p_min**n + 1)) for L = log_bound.

    Every scheduler keeps P(K > B) <= e**-L at the returned budget B.
    With L = a/b and p_min = p/q the ceiling is taken in integers:
    ceil(n * (a·q^n + b·p^n) / (b·p^n)).
    """
    table = process.int_table
    n = len(process.states)
    a, b = log_bound.numerator, log_bound.denominator
    p, q = table.p_min.numerator, table.p_min.denominator
    below = b * p**n
    return table.max_cost * -(-n * (a * q**n + below) // below)


def budget_upper_bound(process: CostProcess, threshold: Fraction) -> QuantileBounds:
    """Budget guaranteed to satisfy P(K <= B) >= threshold for every scheduler.

    Args:
        process: validated cost process.
        threshold: rational in [0, 1).

    Returns:
        The bound record. The precision of the logarithm starts at 64
        fractional bits and doubles until the rounded budget stops
        changing; every intermediate bound is already valid, so this only
        trims slack.
    """
    if not 0 <= threshold < 1:
        raise ThresholdRangeError(
            f"threshold must be in [0, 1) for the budget bound, got {threshold}"
        )
    require_valid(process)
    odds = 1 / (1 - threshold)
    bits = 64
    log_bound = ln_upper(odds, bits)
    bound = tail_budget(process, log_bound)
    while True:
        bits *= 2
        tighter_log = ln_upper(odds, bits)
        tighter = tail_budget(process, tighter_log)
        if tighter == bound:
            table = process.int_table
            return QuantileBounds(table.p_min, table.max_cost, bound, log_bound)
        bound, log_bound = tighter, tighter_log


def quantile_query(
    process: CostProcess, threshold: Fraction, quantifier: str
) -> "int | None":
    """Smallest budget B whose threshold query succeeds, or None for infinity.

    For threshold < 1: galloping from 0, then binary search, on
    [0, B_bound], one optimal solve per probe; soundness of the upper end
    comes from the a-priori bound, where the search needs no probe.
    At threshold 1 the answer is the optimal worst-case path cost:
    minimized over schedulers for "exists", maximized for "forall";
    None signals that a positive-cost cycle makes it unbounded.
    """
    if not 0 <= threshold <= 1:
        raise ThresholdRangeError(f"threshold must be in [0, 1], got {threshold}")
    if quantifier not in ("exists", "forall"):
        raise ValueError(f"quantifier must be 'exists' or 'forall', got {quantifier!r}")
    require_valid(process)

    if threshold == 1:
        return _worst_case_cost(process, "min" if quantifier == "exists" else "max")

    solver = solve_max if quantifier == "exists" else solve_min

    def meets(budget: int) -> bool:
        return solver(process, Atom(budget)).value >= threshold

    # Gallop through 0, 1, 3, 7, ... up to the bound, which needs no probe,
    # then bisect between the last miss and the first hit.
    upper = budget_upper_bound(process, threshold).B_bound
    lo = probe = 0
    while probe < upper and not meets(probe):
        lo, probe = probe + 1, 2 * probe + 1
    hi = min(probe, upper)
    while lo < hi:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _worst_case_cost(process: CostProcess, mode: str) -> "int | None":
    """Optimal supremum of accumulated cost over the run support.

    ``mdp_solver._min_max_cost`` on the states, where the target's free
    self-loop keeps it at 0, capped just above |Q| * k_max: finite values
    never exceed that product (zero-cost cycles add nothing, and a
    finite-valued strategy avoids positive-cost cycles).
    """
    graph = {
        state: [[(succ, cost) for succ, cost, _ in edges] for _, edges in per_action]
        for state, per_action in process.int_table.rows.items()
    }
    ceiling = len(process.states) * process.int_table.max_cost + 1
    return _min_max_cost(graph, process.initial, mode, ceiling)
