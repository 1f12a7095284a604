"""Letter-budgeted path counting: DFAs whose qualifying paths count gate values.

For a designated gate g, ``circuit_to_dfa`` builds a deterministic
letter-labelled graph and a letter-count vector f such that the number
of source-to-sink paths using each letter exactly f times equals
val(g) for every gate up to level 3. ``count_parikh_paths`` is the
exhaustive oracle for that count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import GuardExceededError, PreconditionError
from .circuits import ArithmeticCircuit

__all__ = ["ParikhDfa", "circuit_to_dfa", "count_parikh_paths", "PATH_GUARD"]

# Ceiling on explored partial paths in the brute-force counter.
PATH_GUARD = 10**6

# Highest gate level the construction counts exactly. Above it the
# doubled letter budgets let the two passes of a product gate split a
# lower gate's loop unevenly (1 + 3 passes through y = x*x instead of
# 2 + 2), so the count exceeds the gate value.
_MAX_LEVEL = 3

BASE_LETTER = "a"


@dataclass(frozen=True, eq=False)
class ParikhDfa:
    """Deterministic transition graph with an in/out port pair per gate."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: Mapping[tuple[str, str], str]
    gate_ports: Mapping[str, tuple[str, str]]
    source: str
    sink: str


def circuit_to_dfa(
    circuit: ArithmeticCircuit, gate_id: str
) -> tuple[ParikhDfa, dict[str, int], str, str]:
    """Build the path-counting DFA for a gate, with its letter budget f.

    The circuit is restricted to the designated gate's level and below;
    every gate v there contributes ports in.v/out.v, and every level>=1
    gate the letters a.v, b.v, c.v. Sibling letters are consumed by a
    deterministic chain (lexicographic order) in front of each gadget,
    which keeps qualifying paths of different gates from mixing.

    Raises:
        PreconditionError: for a gate above level 3, where the count is
            not exact.
    """
    top = circuit.gate(gate_id).level
    if top > _MAX_LEVEL:
        raise PreconditionError(
            f"gate {gate_id!r} sits on level {top}; path counts are exact only "
            f"up to level {_MAX_LEVEL}"
        )
    kept = [gate for gate in circuit.gates if gate.level <= top]
    by_level: dict[int, list] = {}
    for gate in kept:
        by_level.setdefault(gate.level, []).append(gate)

    alphabet: list[str] = [BASE_LETTER]
    budget: dict[str, int] = {BASE_LETTER: 1}
    for level in range(1, top + 1):
        if level % 2 == 0:
            for letter in budget:
                budget[letter] *= 2
        for gate in by_level.get(level, ()):
            for letter in _letters(gate.id):
                alphabet.append(letter)
                budget[letter] = 1

    states: dict[str, None] = {}
    transitions: dict[tuple[str, str], str] = {}
    ports: dict[str, tuple[str, str]] = {}

    def touch(state: str) -> str:
        states.setdefault(state)
        return state

    def link(state: str, letter: str, successor: str) -> None:
        key = (touch(state), letter)
        touch(successor)
        assert transitions.setdefault(key, successor) == successor
        assert letter in budget

    for gate in kept:
        ports[gate.id] = (touch(f"in.{gate.id}"), touch(f"out.{gate.id}"))
    for level in sorted(by_level):
        for gate in by_level[level]:
            enter, leave = ports[gate.id]
            if gate.kind == "zero":
                continue
            if gate.kind == "one":
                link(enter, BASE_LETTER, leave)
                continue
            # consume the sibling gates' letters first
            siblings = sorted(
                letter
                for other in by_level[level]
                if other.id != gate.id
                for letter in _letters(other.id)
            )
            hub = enter
            for pos, letter in enumerate(siblings):
                nxt = f"q.{gate.id}" if pos == len(siblings) - 1 else f"s{pos + 1}.{gate.id}"
                link(hub, letter, nxt)
                hub = nxt
            a, b, c = _letters(gate.id)
            left_in, left_out = ports[gate.inputs[0]]
            right_in, right_out = ports[gate.inputs[1]]
            if gate.kind == "plus":
                first, second = f"q1.{gate.id}", f"q2.{gate.id}"
                link(hub, a, first)
                link(hub, b, second)
                link(first, b, left_in)
                link(second, a, right_in)
                link(left_out, c, leave)
                link(right_out, c, leave)
            else:
                link(hub, a, left_in)
                link(left_out, b, right_in)
                link(right_out, c, leave)

    source, sink = ports[gate_id]
    dfa = ParikhDfa(
        states=tuple(states),
        alphabet=tuple(alphabet),
        transitions=transitions,
        gate_ports=ports,
        source=source,
        sink=sink,
    )
    return dfa, budget, source, sink


def count_parikh_paths(
    dfa: ParikhDfa, source: str, sink: str, budget: Mapping[str, int]
) -> int:
    """Exact number of source-to-sink paths hitting the letter budget.

    Memoized depth-first search over (state, remaining-budget) pairs, on
    an explicit stack; aborts after ``PATH_GUARD`` explored nodes.
    """
    if source not in dfa.states or sink not in dfa.states:
        raise PreconditionError("source and sink must be DFA states")
    index = {letter: pos for pos, letter in enumerate(dfa.alphabet)}
    # Successors in letter order, sorted only for the states the walk reaches.
    by_source: dict[str, list[tuple[str, str]]] = {}
    for (state, letter), successor in dfa.transitions.items():
        by_source.setdefault(state, []).append((letter, successor))
    outgoing: dict[str, list[tuple[int, str]]] = {}
    remaining = [0] * len(dfa.alphabet)
    for letter, count in budget.items():
        if count < 0:
            raise PreconditionError(f"negative budget for letter {letter!r}")
        if letter in index:
            remaining[index[letter]] = count
        elif count:
            return 0
    memo: dict[tuple[str, tuple[int, ...]], int] = {}
    explored = 0
    # Open nodes of the depth-first search, deepest last:
    # [memo key, letters left, successors, count so far, letter spent on the child].
    frames: list[list] = []
    state, left = source, sum(remaining)
    while True:
        explored += 1
        if explored > PATH_GUARD:
            raise GuardExceededError(
                f"path enumeration exceeded {PATH_GUARD} partial paths"
            )
        if left == 0:
            count = 1 if state == sink else 0
        else:
            key = (state, tuple(remaining))
            count = memo.get(key)
            if count is None:
                if state not in outgoing:
                    ordered = sorted(by_source.get(state, ()))
                    outgoing[state] = [(index[letter], succ) for letter, succ in ordered]
                frames.append([key, left, iter(outgoing[state]), 0, None])
        while frames:
            frame = frames[-1]
            if frame[4] is not None:
                remaining[frame[4]] += 1
                frame[3] += count
            step = next(((pos, nxt) for pos, nxt in frame[2] if remaining[pos]), None)
            if step is None:
                memo[frame[0]] = count = frame[3]
                frames.pop()
                continue
            frame[4], state = step
            remaining[frame[4]] -= 1
            left = frame[1] - 1
            break
        else:
            return count


def _letters(gate_id: str) -> tuple[str, str, str]:
    return (f"a.{gate_id}", f"b.{gate_id}", f"c.{gate_id}")
