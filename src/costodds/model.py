"""Cost processes and chains: construction, validation, classification.

A cost process is a finite MDP whose transitions carry non-negative
integer costs and exact rational probabilities. A cost chain is the
special case with exactly one enabled action per state, i.e. a Markov
chain. Two structural assumptions make accumulated cost well defined:

  (i)  the target state is absorbing via a single zero-cost self-loop;
  (ii) under every scheduler the target is reached almost surely, which
       holds exactly when every maximal end component reachable from the
       initial state is the singleton target.

``validate`` checks both (plus distribution sums) and reports findings as
data rather than exceptions; solvers refuse processes whose report is not
clean. A valid process is cleared in one linear pass; only an invalid one
pays for the SCC and end-component passes that name its findings.
Validation, chain-ness, acyclicity and the integer table
(``CostProcess.int_table``) are cached per instance since models are
immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Container, Iterable, Iterator, Mapping, NamedTuple

from .errors import ModelFormatError, NotValidatedError
from .linalg import strongly_connected
from .rational import _digits, format_rational, parse_cost, parse_rational

__all__ = [
    "Transition",
    "CostProcess",
    "CostChain",
    "Finding",
    "ValidationReport",
    "build_process",
    "build_chain",
    "validate",
    "is_chain",
    "is_acyclic",
    "model_from_json",
    "model_to_json",
]


class Transition(NamedTuple):
    """One weighted edge of a distribution: successor, cost, probability.

    ``utility`` is a second non-negative counter, read only by the
    cost-utility query ``decide_cost_utility``; every other engine
    ignores it.
    """

    successor: str
    cost: int
    prob: Fraction
    utility: int = 0


class IntTable(NamedTuple):
    """A process's transitions as integers, each distribution over its own denominator.

    ``rows[state]`` holds, per enabled action in canonical order, a pair
    (D_a, entries): D_a is the lcm of that action's probability
    denominators, and entries are its (successor, cost, weight) rows
    with weight = prob·D_a. ``p_min`` and ``max_cost`` are the smallest
    probability and the largest cost over all rows. ``components`` are the
    strongly connected components of the zero-cost edges that do not
    enter the target, as (members, cyclic) in the order
    ``strongly_connected`` emits them, so each follows every component it
    reaches; ``component_of[state]`` is the index of the state's component.

    Validation, ``mdp_solver``, ``chain_solver`` and ``mc`` all read it.
    """

    rows: Mapping[str, tuple[tuple[int, tuple[tuple[str, int, int], ...]], ...]]
    p_min: Fraction
    max_cost: int
    components: tuple[tuple[tuple[str, ...], bool], ...]
    component_of: Mapping[str, int]


@dataclass(frozen=True)
class Finding:
    """A single validation violation.

    Attributes:
        code: one of "bad-distribution", "bad-target-loop",
            "unreachable-target", "bad-mec".
        subject: the offending states (or state/action pair) in canonical
            order.
        message: human-readable explanation.
    """

    code: str
    subject: tuple[str, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of ``validate``; ``ok`` is true iff no violations."""

    ok: bool
    violations: tuple[Finding, ...]

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"{f.code}{list(f.subject)}: {f.message}" for f in self.violations)


@dataclass(frozen=True, eq=False)
class CostProcess:
    """An immutable cost process.

    Attributes:
        states: all control states in canonical (first-appearance) order.
        initial: starting state.
        target: absorbing goal state.
        enabled: per-state tuple of enabled actions, in canonical order.
        transitions: distribution per (state, action) as a tuple of
            ``Transition`` entries, duplicates already merged.
    """

    states: tuple[str, ...]
    initial: str
    target: str
    enabled: Mapping[str, tuple[str, ...]]
    transitions: Mapping[tuple[str, str], tuple[Transition, ...]]

    @cached_property
    def reachable(self) -> frozenset[str]:
        """States reachable from the initial state under any actions."""
        rows = self.int_table.rows
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            for _, edges in rows[frontier.pop()]:
                for succ, _, _ in edges:
                    if succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)
        return frozenset(seen)

    @cached_property
    def int_table(self) -> IntTable:
        """The transitions over their per-action denominators, built once per process."""
        rows = {}
        least, least_den, max_cost = 1, 1, 0
        for q in self.states:
            per_action = []
            for a in self.enabled[q]:
                entries = self.transitions[(q, a)]
                den = lcm(*[e.prob.denominator for e in entries])
                weights = tuple(
                    (e.successor, e.cost, e.prob.numerator * (den // e.prob.denominator))
                    for e in entries
                )
                per_action.append((den, weights))
                for _, cost, weight in weights:
                    if weight * least_den < least * den:
                        least, least_den = weight, den
                    max_cost = max(max_cost, cost)
            rows[q] = tuple(per_action)
        free = {
            q: [s for _, edges in rows[q] for s, cost, _ in edges if not cost and s != self.target]
            for q in self.states
        }
        components = tuple(
            (tuple(members), cyclic)
            for members, cyclic in strongly_connected(self.states, free.__getitem__)
        )
        return IntTable(
            rows,
            Fraction(least, least_den),
            max_cost,
            components,
            {q: index for index, (members, _) in enumerate(components) for q in members},
        )

    @cached_property
    def _chain(self) -> bool:
        return all(len(self.enabled[q]) == 1 for q in self.states)

    @cached_property
    def _acyclic(self) -> bool:
        # No cycle through any state; the target's own loop does not count.
        rows = self.int_table.rows

        def successors(state: str) -> set[str]:
            per_action = () if state == self.target else rows[state]
            return {s for _, edges in per_action for s, _, _ in edges}

        return not any(cyclic for _, cyclic in strongly_connected(self.states, successors))

    @cached_property
    def _report(self) -> ValidationReport:
        findings: list[Finding] = []
        rows = self.int_table.rows
        for state, per_action in rows.items():
            for action, (den, action_rows) in zip(self.enabled[state], per_action):
                total = sum(weight for _, _, weight in action_rows)
                if total != den:
                    total_prob = Fraction(total, den)
                    findings.append(
                        Finding(
                            "bad-distribution",
                            (state, action),
                            f"probabilities sum to {format_rational(total_prob)}, not 1",
                        )
                    )

        acts = self.enabled[self.target]
        if len(acts) != 1 or self.transitions[(self.target, acts[0])] != (
            Transition(self.target, 0, Fraction(1)),
        ):
            findings.append(
                Finding(
                    "bad-target-loop",
                    (self.target,),
                    "target needs exactly one action with a single zero-cost "
                    "self-loop of probability 1",
                )
            )

        if not findings and not _trapped(rows, self.reachable, self.target):
            return ValidationReport(True, ())
        edges = {q: _edges(q, rows[q]) for q in self.reachable}
        components = [
            members
            for members, _ in strongly_connected(sorted(self.reachable), edges.__getitem__)
        ]
        # Tarjan emits each component after all it reaches, so a component
        # reaches the target if it holds it or has an edge into one that does.
        reaching: set[str] = set()
        for members in components:
            linked = any(not reaching.isdisjoint(edges[q]) for q in members)
            if linked or self.target in members:
                reaching.update(members)
        stranded = sorted(self.reachable - reaching)
        if stranded:
            findings.append(
                Finding(
                    "unreachable-target",
                    tuple(stranded),
                    "these reachable states have no path to the target",
                )
            )

        for component in _maximal_end_components(components, rows):
            if component != frozenset((self.target,)):
                findings.append(
                    Finding(
                        "bad-mec",
                        tuple(sorted(component)),
                        "end component other than the target singleton is reachable",
                    )
                )

        return ValidationReport(not findings, tuple(findings))


# A cost chain is a cost process with a single enabled action everywhere;
# the alias documents intent at call sites.
CostChain = CostProcess


# ---------------------------------------------------------------------------
# Construction


def _check_prob(prob: Fraction, where: str) -> Fraction:
    if not isinstance(prob, Fraction):
        raise ModelFormatError(f"probability at {where} must be a Fraction, got {prob!r}")
    if prob <= 0 or prob > 1:
        raise ModelFormatError(f"probability at {where} must be in (0, 1], got {prob}")
    return prob


def _check_cost(cost: int, where: str) -> int:
    if not isinstance(cost, int) or isinstance(cost, bool) or cost < 0:
        raise ModelFormatError(f"cost at {where} must be a non-negative int, got {cost!r}")
    return cost


def build_process(
    entries: Iterable[tuple],
    initial: str,
    target: str,
    states: Iterable[str] | None = None,
) -> CostProcess:
    """Assemble a ``CostProcess`` from raw transition tuples.

    Args:
        entries: tuples (state, action, successor, cost, prob[, utility]);
            the utility defaults to 0. Order fixes the canonical action
            ordering per state and, absent an explicit ``states`` list, the
            canonical state ordering. Duplicate (state, action, successor,
            cost, utility) rows merge by summing probs.
        initial: initial state id.
        target: target state id. If it never appears in ``entries``, the
            mandatory absorbing self-loop is added automatically.
        states: optional explicit state ordering (must cover all ids used).

    Returns:
        An immutable process; no validation is performed here beyond local
        type/range checks (use ``validate``).
    """
    order: dict[str, None] = {}
    enabled: dict[str, dict[str, None]] = {}
    merged: dict[tuple[str, str], dict[tuple[str, int, int], Fraction]] = {}

    order.setdefault(initial)
    for state, action, successor, cost, prob, *extra in entries:
        (utility,) = extra or (0,)
        order.setdefault(state)
        order.setdefault(successor)
        enabled.setdefault(state, {}).setdefault(action)
        bucket = merged.setdefault((state, action), {})
        # Plain ints and Fractions in range are checked on ints alone; any
        # other row takes the checks that name it in their messages.
        if not (
            type(cost) is int and type(utility) is int and type(prob) is Fraction
            and cost >= 0 and utility >= 0 and 0 < prob.numerator <= prob.denominator
        ):
            where = f"({state}, {action}) -> {successor}"
            _check_cost(cost, where)
            _check_cost(utility, where)
            prob = Fraction(0) + _check_prob(prob, where)
        key = (successor, cost, utility)
        prior = bucket.get(key)
        bucket[key] = prob if prior is None else prior + prob
    order.setdefault(target)

    if target not in enabled:
        enabled[target] = {"a": None}
        merged[(target, "a")] = {(target, 0, 0): Fraction(1)}

    if states is not None:
        explicit = list(states)
        missing = [s for s in order if s not in explicit]
        if missing:
            raise ModelFormatError(f"states list is missing {missing}")
        state_order = tuple(dict.fromkeys(explicit))
    else:
        state_order = tuple(order)

    for state in state_order:
        if state not in enabled:
            raise ModelFormatError(f"state {state!r} has no enabled action")

    transitions = {
        key: tuple(
            Transition(succ, cost, prob, utility)
            for (succ, cost, utility), prob in bucket.items()
        )
        for key, bucket in merged.items()
    }
    enabled_final = {state: tuple(acts) for state, acts in enabled.items()}
    return CostProcess(state_order, initial, target, enabled_final, transitions)


def _rows(process: CostProcess) -> Iterator[tuple[str, str, str, int, Fraction, int]]:
    """The process's rows (state, action, successor, cost, prob, utility).

    The inverse of ``build_process``: rows come in canonical order
    (``states``, then ``enabled``, then ``transitions``), so
    ``build_process(_rows(p), p.initial, p.target, p.states)`` rebuilds ``p``.
    """
    for state in process.states:
        for action in process.enabled[state]:
            for successor, cost, prob, utility in process.transitions[(state, action)]:
                yield state, action, successor, cost, prob, utility


def _fresh_name(name: str, taken: Container[str]) -> str:
    """``name`` with "#" prepended until it is not among ``taken``."""
    while name in taken:
        name = "#" + name
    return name


def build_chain(
    entries: Iterable[tuple[str, str, int, Fraction]],
    initial: str,
    target: str,
    states: Iterable[str] | None = None,
) -> CostChain:
    """Assemble a cost chain; every state gets the single action "a"."""
    return build_process(
        ((state, "a", succ, cost, prob) for state, succ, cost, prob in entries),
        initial,
        target,
        states,
    )


# ---------------------------------------------------------------------------
# Classification and validation


def is_chain(process: CostProcess) -> bool:
    """True iff every state has exactly one enabled action."""
    return process._chain


def is_acyclic(process: CostProcess) -> bool:
    """True iff the control graph (no edges out of target) has no cycle."""
    return process._acyclic


def validate(process: CostProcess) -> ValidationReport:
    """Check distribution sums, target absorption, and a.s. reachability.

    Returns:
        A report whose findings are data, never exceptions. ``ok`` holds
        exactly when (a) every enabled distribution sums to 1, (b) the
        target has precisely the mandated zero-cost self-loop, and (c)
        every maximal end component reachable from the initial state is
        the singleton target (equivalently: the target is reached almost
        surely under every scheduler). A process that passes (a), (b) and
        the linear check ``_trapped`` is clean at once; any other runs the
        reachability and end-component passes that name every finding.
    """
    return process._report


def require_valid(process: CostProcess) -> None:
    """Raise ``NotValidatedError`` unless ``validate`` finds the process clean."""
    report = validate(process)
    if not report.ok:
        raise NotValidatedError(report)


def _trapped(rows: Mapping[str, tuple], reachable: Iterable[str], target: str) -> bool:
    """Whether S*, the greatest set of reachable non-target states each with
    an action whose support stays in it, is non-empty. It holds every end
    component that avoids the target and every state with no path to it,
    and a non-empty S* holds an end component: given sound sums and target
    loop, condition (ii) holds iff S* is empty. Per-action counts of entries
    outside the set drop states left with no action inside, in linear time.
    """
    # Per entry into s: its state, and its action's count of entries outside (a shared list).
    users: dict[str, list[tuple[str, list[int]]]] = {q: [] for q in reachable if q != target}
    staying: dict[str, int] = {}
    for q in users:
        staying[q] = 0
        for _, edges in rows[q]:
            out = [0]
            for s, _, _ in edges:
                if s in users:
                    users[s].append((q, out))
                else:
                    out[0] += 1
            staying[q] += not out[0]
    gone = [q for q, count in staying.items() if not count]
    for s in gone:
        for q, out in users[s]:
            out[0] += 1
            if out[0] == 1:
                staying[q] -= 1
                if not staying[q]:
                    gone.append(q)
    return len(gone) < len(users)


def _maximal_end_components(
    components: list[list[str]], rows: Mapping[str, tuple]
) -> list[frozenset[str]]:
    """Standard iterative SCC-refinement MEC decomposition.

    ``components`` are the strongly connected components of a state set
    closed under every action, as ``_edges`` links it: the first split.
    A split into one component is a MEC, and so is a single state with a
    self-loop action. Every other component of two or more states is a
    candidate: it shrinks by (1) dropping actions whose support leaves
    it, (2) dropping states left with no action, then (3) splits again.
    ``rows`` gives each state's actions as ``IntTable.rows`` does.
    """
    mecs: list[frozenset[str]] = []
    work = [components]
    while work:
        split = work.pop()
        for scc in split:
            if len(scc) == 1:
                (q,) = scc
                if any(all(s == q for s, _, _ in edges) for _, edges in rows[q]):
                    mecs.append(frozenset(scc))
            elif len(split) == 1:
                mecs.append(frozenset(scc))
            else:
                current = set(scc)
                while True:
                    kept = {
                        q: [act for act in rows[q] if all(s in current for s, _, _ in act[1])]
                        for q in current
                    }
                    doomed = [q for q, acts in kept.items() if not acts]
                    if not doomed:
                        break
                    current.difference_update(doomed)
                edges = {q: _edges(q, kept[q]) for q in current}
                children = strongly_connected(sorted(current), edges.__getitem__)
                work.append([members for members, _ in children])
    return mecs


def _edges(state: str, actions: Iterable[tuple]) -> list[str]:
    """The sorted successors of a state under the given action rows, without itself."""
    return sorted({s for _, edges in actions for s, _, _ in edges if s != state})


# ---------------------------------------------------------------------------
# JSON serialization


def model_to_json(process: CostProcess) -> dict:
    """Serialize to the interchange dict.

    Chains omit the "action" field. A process with any nonzero utility
    names the action and the utility on every row.
    """
    entries = list(_rows(process))
    utilities = any(utility for *_, utility in entries)
    with_action = utilities or not is_chain(process)
    rows = []
    for state, action, successor, cost, prob, utility in entries:
        row = {"from": state}
        if with_action:
            row["action"] = action
        row.update(to=successor, cost=_digits(cost))
        if utilities:
            row["utility"] = _digits(utility)
        row["prob"] = format_rational(prob)
        rows.append(row)
    return {
        "states": list(process.states),
        "initial": process.initial,
        "target": process.target,
        "transitions": rows,
    }


def model_from_json(data: object) -> CostProcess:
    """Parse the interchange dict produced by ``model_to_json``.

    A row without "utility" has utility 0.
    """
    rows, states, initial, target = _parse_model_shell(data)
    has_action = [isinstance(row, dict) and "action" in row for row in rows]
    if any(has_action) and not all(has_action):
        raise ModelFormatError("either every transition names an action or none does")
    entries = []
    for row in rows:
        src, dst = _parse_endpoint(row)
        action = row["action"] if "action" in row else "a"
        if not isinstance(action, str):
            raise ModelFormatError(f"action must be a string, got {action!r}")
        entries.append(
            (
                src,
                action,
                dst,
                parse_cost(row.get("cost"), f"cost of {src}->{dst}"),
                parse_rational(row.get("prob"), f"prob of {src}->{dst}"),
                parse_cost(row.get("utility", 0), f"utility of {src}->{dst}"),
            )
        )
    return build_process(entries, initial, target, states)


def _parse_model_shell(data: object) -> tuple[list, list[str], str, str]:
    if not isinstance(data, dict):
        raise ModelFormatError("model file must be a JSON object")
    try:
        states = data["states"]
        initial = data["initial"]
        target = data["target"]
        rows = data["transitions"]
    except KeyError as missing:
        raise ModelFormatError(f"model file is missing key {missing}") from None
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ModelFormatError("states must be a list of strings")
    if not isinstance(initial, str) or not isinstance(target, str):
        raise ModelFormatError("initial and target must be strings")
    if not isinstance(rows, list):
        raise ModelFormatError("transitions must be a list")
    return rows, states, initial, target


def _parse_endpoint(row: object) -> tuple[str, str]:
    if not isinstance(row, dict):
        raise ModelFormatError(f"transition rows must be objects, got {row!r}")
    src = row.get("from")
    dst = row.get("to")
    if not isinstance(src, str) or not isinstance(dst, str):
        raise ModelFormatError(f"transition endpoints must be strings: {row!r}")
    return src, dst
