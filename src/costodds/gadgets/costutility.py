"""Lifting qualitative cost questions into the two-counter setting."""

from __future__ import annotations

from ..model import CostProcess, _rows, build_process, require_valid

__all__ = ["qualitative_to_cost_utility"]


def qualitative_to_cost_utility(process: CostProcess, total: int) -> CostProcess:
    """Duplicate every cost onto the utility track.

    A scheduler hits accumulated cost exactly ``total`` almost surely
    in the input iff the result satisfies the cost-utility query with
    cost cap ``total`` and utility goal ``total``: staying under the cap
    while earning the goal forces both counters to land on it.
    """
    if not isinstance(total, int) or isinstance(total, bool) or total < 0:
        raise ValueError(f"total must be a non-negative int, got {total!r}")
    require_valid(process)
    entries = [
        (state, action, successor, cost, prob, cost)
        for state, action, successor, cost, prob, _ in _rows(process)
        if state != process.target
    ]
    return build_process(entries, process.initial, process.target, states=process.states)
