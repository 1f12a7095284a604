"""Reducing arbitrary probability thresholds to one half."""

from __future__ import annotations

from fractions import Fraction

from ..errors import PreconditionError, ThresholdRangeError
from ..formula import Formula, normalize
from ..model import CostProcess, _fresh_name, _rows, build_process
from ..rational import _digits

__all__ = ["threshold_to_half"]


def threshold_to_half(
    process: CostProcess,
    formula: Formula,
    threshold: Fraction,
    miss_cost: int,
    hit_cost: int,
) -> CostProcess:
    """Prepend a biased coin so that threshold 1/2 answers the original query.

    ``hit_cost`` must satisfy the formula and ``miss_cost`` must not;
    the new initial state jumps straight to the target with one of those
    costs, or hands over to the old initial state at cost 0. The bias is
    chosen so that P'(K |= phi) >= 1/2 iff P(K |= phi) >= threshold, for
    the same scheduler; thresholds of exactly 1/2 return the process
    unchanged. Chains stay chains.
    """
    if not 0 <= threshold <= 1:
        raise ThresholdRangeError(f"threshold must be in [0, 1], got {threshold}")
    for name, cost in (("miss", miss_cost), ("hit", hit_cost)):
        if not isinstance(cost, int) or isinstance(cost, bool) or cost < 0:
            shown = _digits(cost) if isinstance(cost, int) else repr(cost)
            raise PreconditionError(f"{name} cost must be a non-negative int, got {shown}")
    accept = normalize(formula)
    if miss_cost in accept:
        raise PreconditionError(f"miss cost {_digits(miss_cost)} satisfies the formula")
    if hit_cost not in accept:
        raise PreconditionError(f"hit cost {_digits(hit_cost)} violates the formula")
    if threshold == Fraction(1, 2):
        return process

    fresh = _fresh_name("half", process.states)
    if threshold < Fraction(1, 2):
        bias = (Fraction(1, 2) - threshold) / (1 - threshold)
        head = [
            (fresh, "a", process.target, hit_cost, bias),
            (fresh, "a", process.initial, 0, 1 - bias),
        ]
    else:
        bias = Fraction(1, 2) / threshold
        head = [
            (fresh, "a", process.target, miss_cost, 1 - bias),
            (fresh, "a", process.initial, 0, bias),
        ]
    entries = head + [row for row in _rows(process) if row[0] != process.target]
    return build_process(entries, fresh, process.target)
