"""Monte Carlo spot checks of exact results under a fixed scheduler.

Randomness comes from a counter-based construction: sample i of seed s
reads bits from SHA-256(s, i, 0), SHA-256(s, i, 1), ... so samples are
reproducible bit for bit and independent of evaluation order. Rational
transition probabilities are resolved by drawing a uniform integer
below the distribution's own denominator, the D_a its ``int_table`` row
carries, by rejection on draws of its bit width; no floats touch the
draw.

``sample_run`` and ``estimate`` share one kernel, ``_runs``. It walks
each run with the bit buffer of the current sample in local variables
and a per-state table read off the process's cached ``int_table``, so a
step costs a table lookup, a scheduler lookup at choice states, and a
digest only when the buffer runs dry. The streams are part of the
interface: the kernel may change how it reads bits, never which bits a
draw takes (``tests/helpers.reference_run`` is the plain reading it must
match).
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .errors import GuardExceededError, SchedulerGapError
from .formula import Formula, normalize
from .mdp_solver import TOP, Scheduler
from .model import CostProcess, require_valid

__all__ = ["SampleReport", "sample_run", "estimate", "STEP_GUARD"]

# Per-run step ceiling; validated models leave the loop long before this.
STEP_GUARD = 10**7

# One distribution: common denominator, its bit width, the mask of that
# width, and cumulative integer thresholds with the successor and cost
# each one selects.
_Dist = tuple[int, int, int, tuple[tuple[int, str, int], ...]]
# One state: its only action's distribution, or None and a map from each
# enabled action to its distribution.
_Row = tuple["_Dist | None", "dict[str, _Dist] | None"]


@dataclass(frozen=True)
class SampleReport:
    """Aggregated simulation outcome.

    ``n`` counts completed runs and ``guard_trips`` the aborted ones;
    ``estimate`` is the exact hit ratio and ``ci_halfwidth`` its
    three-sigma normal-approximation half-width.
    """

    n: int
    hits: int
    estimate: Fraction
    ci_halfwidth: float
    seed: int
    guard_trips: int = 0


def sample_run(
    process: CostProcess,
    scheduler: Scheduler | None,
    seed: int,
    index: int = 0,
    max_steps: int = STEP_GUARD,
) -> int:
    """Simulate one run and return its accumulated cost at the target.

    Deterministic in (seed, index), which must lie in [0, 2^64)
    (``ValueError`` otherwise). The scheduler may be None when every
    state has a single action.
    """
    _check_word("seed", seed)
    _check_word("index", index)
    require_valid(process)
    table = _compile(process)
    tally, trips = _runs(process, table, scheduler, seed, (index,), max_steps)
    if trips:
        raise GuardExceededError(f"run exceeded {max_steps} steps")
    (cost,) = tally
    return cost


def estimate(
    process: CostProcess,
    scheduler: Scheduler | None,
    formula: Formula,
    n: int,
    seed: int,
) -> SampleReport:
    """Estimate P(K satisfies the formula) from n seeded samples.

    Bit-exact reproducible for fixed inputs; the seed and the run
    indices 0..n-1 must lie in [0, 2^64) (``ValueError`` otherwise).
    Runs that trip the step guard are counted in ``guard_trips`` and
    excluded from the ratio.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    _check_word("seed", seed)
    _check_word("index", n - 1)
    require_valid(process)
    table = _compile(process)
    accept = normalize(formula)
    tally, trips = _runs(process, table, scheduler, seed, range(n), STEP_GUARD)
    hits = sum(count for cost, count in tally.items() if cost in accept)
    done = n - trips
    ratio = Fraction(hits, done) if done else Fraction(0)
    spread = (
        3 * math.sqrt(float(ratio * (1 - ratio)) / done) if done else float("inf")
    )
    return SampleReport(
        n=done,
        hits=hits,
        estimate=ratio,
        ci_halfwidth=spread,
        seed=seed,
        guard_trips=trips,
    )


def _check_word(name: str, value: int) -> None:
    """Seeds and run indices are hashed as 8-byte words."""
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {value}")


def _compile(process: CostProcess) -> dict[str, _Row]:
    """Per state: its only action's distribution, or a map over its actions;
    each draws over its D_a in steps of its weights."""
    table: dict[str, _Row] = {}
    for state, per_action in process.int_table.rows.items():
        actions = process.enabled[state]
        dists: dict[str, _Dist] = {}
        for action, (den, entries) in zip(actions, per_action):
            acc = 0
            rows = []
            for successor, cost, weight in entries:
                acc += weight
                rows.append((acc, successor, cost))
            width = (den - 1).bit_length()
            dists[action] = (den, width, (1 << width) - 1, tuple(rows))
        table[state] = (dists[actions[0]], None) if len(actions) == 1 else (None, dists)
    return table


def _runs(
    process: CostProcess,
    table: dict[str, _Row],
    scheduler: Scheduler | None,
    seed: int,
    indices: Iterable[int],
    max_steps: int,
) -> tuple[dict[int, int], int]:
    """Final costs of the runs with the given indices, tallied, and the
    number of runs that tripped the step guard.

    Run i reads the bits of SHA-256(seed ‖ i ‖ counter), counter 0, 1,
    ... in order. A draw below a denominator takes the next ``width``
    bits and is redrawn while it is not smaller; a denominator of 1
    draws nothing. ``value`` holds the buffer: its low ``left`` bits are
    unread, the bits above them spent.
    """
    sha256 = hashlib.sha256
    target = process.target
    initial = process.initial
    if scheduler is not None:
        choose = scheduler.entries.get
        budget = scheduler.budget
    from_bytes = int.from_bytes
    seed_bytes = seed.to_bytes(8, "little")
    tally: dict[int, int] = {}
    trips = 0
    for index in indices:
        prefix = seed_bytes + index.to_bytes(8, "little")
        counter = value = left = 0
        state = initial
        cost = steps = 0
        while state != target:
            steps += 1
            if steps > max_steps:
                trips += 1
                break
            dist, choices = table[state]
            if dist is None:
                if scheduler is None:
                    raise SchedulerGapError(f"state {state!r} needs a scheduler")
                dist = choices.get(choose((state, cost if cost <= budget else TOP)))
                if dist is None:
                    # Raises the gap error that names the missing or disabled entry.
                    dist = choices[scheduler.action_at(process, state, cost)]
            den, width, mask, rows = dist
            if den == 1:
                draw = 0
            else:
                while True:
                    while left < width:
                        block = sha256(prefix + counter.to_bytes(8, "little")).digest()
                        counter += 1
                        value &= (1 << left) - 1
                        value = value << 256 | from_bytes(block, "big")
                        left += 256
                    left -= width
                    draw = (value >> left) & mask
                    if draw < den:
                        break
            for threshold, successor, step_cost in rows:
                if draw < threshold:
                    state = successor
                    cost += step_cost
                    break
        else:
            tally[cost] = tally.get(cost, 0) + 1
    return tally, trips
