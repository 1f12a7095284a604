"""Countdown games and their qualitative cost-process encoding.

Player 1 repeatedly announces a step value k available at the current
game state, Player 2 resolves the nondeterminism among the k-successors,
and Player 1 wins on hitting the running total T exactly. The encoding
makes Player 1 the scheduler and Player 2 the uniform coin; an extra
binary counter lets Player 1 top the total up to exactly T whenever the
coin sends the play to the endgame, and a stop action covers the moment
the total is already complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from ..errors import GuardExceededError, ModelFormatError, PreconditionError
from ..model import CostProcess, _fresh_name, build_process
from ..rational import _digits

__all__ = [
    "CountdownGame",
    "make_countdown",
    "countdown_to_process",
    "countdown_brute",
    "countdown_to_json",
    "countdown_from_json",
]

BRUTE_LIMIT = 10**4


@dataclass(frozen=True, eq=False)
class CountdownGame:
    """A weighted two-player reachability-of-exactly-T game."""

    states: tuple[str, ...]
    initial: str
    final: int
    moves: Mapping[tuple[str, int], tuple[str, ...]]


def make_countdown(
    states: Iterable[str],
    initial: str,
    final: int,
    moves: Iterable[tuple[str, int, str]],
) -> CountdownGame:
    """Assemble and sanity-check a countdown game from (from, k, to) rows."""
    order = tuple(dict.fromkeys(states))
    known = set(order)
    if initial not in known:
        raise PreconditionError(f"initial state {initial!r} is not a state")
    if not isinstance(final, int) or isinstance(final, bool) or final < 1:
        raise PreconditionError(f"final value must be a positive int, got {final!r}")
    grouped: dict[tuple[str, int], dict[str, None]] = {}
    for source, step, destination in moves:
        if source not in known or destination not in known:
            raise PreconditionError(f"move {source!r} -{step}-> {destination!r} leaves the state set")
        if not isinstance(step, int) or isinstance(step, bool) or step < 1:
            raise PreconditionError(f"move values must be positive ints, got {step!r}")
        grouped.setdefault((source, step), {}).setdefault(destination)
    return CountdownGame(
        states=order,
        initial=initial,
        final=final,
        moves={key: tuple(dests) for key, dests in sorted(grouped.items())},
    )


def countdown_to_process(game: CountdownGame) -> tuple[CostProcess, int]:
    """Cost process on which Player 1 wins the game iff some scheduler
    hits accumulated cost ``game.final`` almost surely.

    Each game state offers a stop action (free jump to the target) and
    one action per announceable k, distributed uniformly over the k-
    successors plus the entry to the binary counter. Counter state i
    either skips or adds 2^i, so any remainder up to T is realizable.
    """
    total = game.final
    bits = total.bit_length()
    counter = [_fresh_name(f"bit{i}", game.states) for i in range(bits)]
    target = _fresh_name("t", game.states)

    steps: dict[str, list[int]] = {}
    for source, step in game.moves:
        steps.setdefault(source, []).append(step)
    entries: list[tuple[str, str, str, int, Fraction]] = []
    for state in game.states:
        entries.append((state, "stop", target, 0, Fraction(1)))
        for step in sorted(steps.get(state, ())):
            options = list(game.moves[(state, step)]) + [counter[0]]
            share = Fraction(1, len(options))
            for destination in options:
                entries.append((state, _digits(step), destination, step, share))
    for i, state in enumerate(counter):
        following = counter[i + 1] if i + 1 < bits else target
        entries.append((state, "a0", following, 0, Fraction(1)))
        entries.append((state, "a1", following, 2**i, Fraction(1)))
    process = build_process(entries, game.initial, target)
    return process, total


def countdown_brute(game: CountdownGame) -> bool:
    """Does Player 1 win? Bottom-up win-set computation over (state, total)."""
    total = game.final
    if total > BRUTE_LIMIT * len(game.states):
        raise GuardExceededError(
            f"brute force capped at final value {BRUTE_LIMIT}*|states|"
        )
    store = {state: [False] * (total + 1) for state in game.states}
    for state in game.states:
        store[state][total] = True
    for acc in range(total - 1, -1, -1):
        for state in game.states:
            store[state][acc] = any(
                all(store[dest][acc + step] for dest in dests)
                for (source, step), dests in game.moves.items()
                if source == state and step <= total - acc
            )
    return store[game.initial][0]


def countdown_to_json(game: CountdownGame) -> dict:
    return {
        "states": list(game.states),
        "initial": game.initial,
        "final": game.final,
        "moves": [
            {"from": source, "k": step, "to": destination}
            for (source, step), dests in game.moves.items()
            for destination in dests
        ],
    }


def countdown_from_json(data: object) -> CountdownGame:
    if not isinstance(data, dict):
        raise ModelFormatError("countdown document must be a JSON object")
    states = data.get("states")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ModelFormatError("'states' must be an array of strings")
    initial = data.get("initial")
    if not isinstance(initial, str):
        raise ModelFormatError("'initial' must be a string")
    final = data.get("final")
    if not isinstance(final, int) or isinstance(final, bool):
        raise ModelFormatError("'final' must be an integer")
    raw_moves = data.get("moves", [])
    if not isinstance(raw_moves, list):
        raise ModelFormatError("'moves' must be an array")
    moves = []
    for pos, item in enumerate(raw_moves):
        if not isinstance(item, dict):
            raise ModelFormatError(f"move #{pos} must be an object")
        source, step, destination = item.get("from"), item.get("k"), item.get("to")
        if not isinstance(source, str) or not isinstance(destination, str):
            raise ModelFormatError(f"move #{pos}: 'from' and 'to' must be strings")
        if not isinstance(step, int) or isinstance(step, bool):
            raise ModelFormatError(f"move #{pos}: 'k' must be an integer")
        moves.append((source, step, destination))
    try:
        return make_countdown(states, initial, final, moves)
    except PreconditionError as exc:
        raise ModelFormatError(str(exc)) from exc
