"""Monte Carlo spot checks of exact results under a fixed scheduler.

Randomness comes from a counter-based construction: sample i of seed s
reads bits from SHA-256(s, i, 0), SHA-256(s, i, 1), ... so samples are
reproducible bit for bit and independent of evaluation order. Rational
transition probabilities are resolved by drawing a uniform integer
below the distribution's common denominator; no floats touch the draw.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import GuardExceededError, SchedulerGapError
from .formula import Formula, normalize
from .mdp_solver import Scheduler
from .model import CostProcess, require_valid

__all__ = ["SampleReport", "sample_run", "estimate", "STEP_GUARD"]

# Per-run step ceiling; validated models leave the loop long before this.
STEP_GUARD = 10**7


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


class _BitStream:
    """Bits of SHA-256(seed, index, counter), counter increasing on demand."""

    __slots__ = ("_prefix", "_counter", "_value", "_left")

    def __init__(self, seed: int, index: int) -> None:
        self._prefix = seed.to_bytes(8, "little", signed=False) + index.to_bytes(
            8, "little", signed=False
        )
        self._counter = 0
        self._value = 0
        self._left = 0

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection on fixed-width draws."""
        if bound == 1:
            return 0
        width = (bound - 1).bit_length()
        value, left = self._value, self._left
        while True:
            while left < width:
                digest = hashlib.sha256(
                    self._prefix + self._counter.to_bytes(8, "little")
                ).digest()
                self._counter += 1
                value = (value << 256) | int.from_bytes(digest, "big")
                left += 256
            left -= width
            draw = value >> left
            value &= (1 << left) - 1
            if draw < bound:
                self._value, self._left = value, left
                return draw


def sample_run(
    process: CostProcess,
    scheduler: Scheduler | None,
    seed: int,
    index: int = 0,
    max_steps: int = STEP_GUARD,
) -> int:
    """Simulate one run and return its accumulated cost at the target.

    Deterministic in (seed, index). The scheduler may be None when every
    state has a single action.
    """
    require_valid(process)
    table = _compile(process)
    return _run(process, table, scheduler, _BitStream(seed, index), max_steps)


def estimate(
    process: CostProcess,
    scheduler: Scheduler | None,
    formula: Formula,
    n: int,
    seed: int,
) -> SampleReport:
    """Estimate P(K satisfies the formula) from n seeded samples.

    Bit-exact reproducible for fixed inputs. Runs that trip the step
    guard are counted in ``guard_trips`` and excluded from the ratio.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    require_valid(process)
    table = _compile(process)
    accept = normalize(formula)

    tally: dict[int, int] = {}
    trips = 0
    for index in range(n):
        try:
            cost = _run(process, table, scheduler, _BitStream(seed, index), STEP_GUARD)
        except GuardExceededError:
            trips += 1
            continue
        tally[cost] = tally.get(cost, 0) + 1
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


def _compile(
    process: CostProcess,
) -> dict[tuple[str, str], tuple[int, list[tuple[int, str, int]]]]:
    """Per distribution: common denominator and cumulative integer thresholds."""
    table = {}
    for key, entries in process.transitions.items():
        den = 1
        for entry in entries:
            den = den * entry.prob.denominator // math.gcd(den, entry.prob.denominator)
        acc = 0
        rows = []
        for entry in entries:
            acc += entry.prob.numerator * (den // entry.prob.denominator)
            rows.append((acc, entry.successor, entry.cost))
        table[key] = (den, rows)
    return table


def _run(
    process: CostProcess,
    table: dict[tuple[str, str], tuple[int, list[tuple[int, str, int]]]],
    scheduler: Scheduler | None,
    stream: _BitStream,
    max_steps: int,
) -> int:
    state = process.initial
    target = process.target
    enabled = process.enabled
    below = stream.below
    cost = 0
    steps = 0
    while state != target:
        steps += 1
        if steps > max_steps:
            raise GuardExceededError(f"run exceeded {max_steps} steps")
        actions = enabled[state]
        if len(actions) == 1:
            action = actions[0]
        elif scheduler is None:
            raise SchedulerGapError(f"state {state!r} needs a scheduler")
        else:
            action = scheduler.action_at(process, state, cost)
        den, rows = table[(state, action)]
        draw = below(den)
        for threshold, successor, step_cost in rows:
            if draw < threshold:
                state = successor
                cost += step_cost
                break
    return cost
