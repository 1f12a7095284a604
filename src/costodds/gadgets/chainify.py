"""From path-counting DFAs to cost chains with value-encoding hit probabilities.

The pipeline runs circuit -> DFA -> typed chain (vector costs) ->
scalar chain. A gate of value v on odd level l turns into a chain whose
probability of accumulating exactly the target cost T is v/m, where the
scale m depends only on l and the padding degree d. ``posslp_instance``
stacks two such chains to compare two gate values against threshold 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from ..chain_solver import solve_chain
from ..errors import PreconditionError
from ..formula import Atom, Formula, Not, Or, _at_least, _between, _exactly
from ..model import CostChain, _rows, build_chain, is_acyclic
from ..quantile import ln_upper, tail_budget
from .circuits import ArithmeticCircuit, lift_gate
from .parikh import ParikhDfa, circuit_to_dfa

__all__ = [
    "TypedCostChain",
    "GadgetCertificate",
    "padding_degree",
    "scale_factor",
    "dfa_to_typed_chain",
    "typed_to_chain",
    "circuit_to_chain",
    "posslp_instance",
]


@dataclass(frozen=True, eq=False)
class TypedCostChain:
    """A Markov chain whose transition costs are letter-count vectors."""

    states: tuple[str, ...]
    initial: str
    target: str
    alphabet: tuple[str, ...]
    transitions: Mapping[str, tuple[tuple[str, Mapping[str, int], Fraction], ...]]


@dataclass(frozen=True, eq=False)
class GadgetCertificate:
    """A generated model plus the exact accounting behind it."""

    model: CostChain
    target_value: int
    scale: int
    bookkeeping: Mapping[str, object] = field(default_factory=dict)


def padding_degree(dfa: ParikhDfa) -> int:
    """Uniform out-degree for out-states: gate count + 1, raised if one is busier."""
    outdeg: dict[str, int] = {}
    for state, _letter in dfa.transitions:
        outdeg[state] = outdeg.get(state, 0) + 1
    busiest = max(
        (outdeg.get(out, 0) for _, out in dfa.gate_ports.values() if out != dfa.sink),
        default=0,
    )
    return max(len(dfa.gate_ports) + 1, busiest + 1)


def scale_factor(level: int, degree: int) -> tuple[int, int, int]:
    """Scale m for a gate level, as m itself and exponents with m = 2^a * d^b.

    Follows the per-level recurrence m(0) = 1, m(l) = 2*d*m(l-1) for odd
    l and m(l) = d^2 * m(l-1)^2 for even l.
    """
    if level < 0:
        raise PreconditionError("level must be non-negative")
    exp2 = expd = 0
    for step in range(1, level + 1):
        if step % 2:
            exp2 += 1
            expd += 1
        else:
            exp2 *= 2
            expd = 2 * expd + 2
    return 2**exp2 * degree**expd, exp2, expd


def dfa_to_typed_chain(
    dfa: ParikhDfa, budget: Mapping[str, int], circuit: ArithmeticCircuit
) -> tuple[TypedCostChain, dict[str, int]]:
    """Randomize the DFA into a typed chain hitting vector c with prob val/m.

    Zero leaves get an error exit, every non-sink out-state is padded
    with error edges up to the common degree, and each state's edges are
    taken uniformly. Error letters are priced at zero, so only paths
    that avoid them can still accumulate exactly c.
    """
    degree = padding_degree(dfa)
    error_letters = tuple(f"e{j}" for j in range(1, degree + 1))
    alphabet = dfa.alphabet + error_letters
    edges: dict[str, list[tuple[str, str]]] = {state: [] for state in dfa.states}
    for (state, letter), successor in sorted(dfa.transitions.items()):
        edges[state].append((letter, successor))
    for gate_id, (enter, leave) in dfa.gate_ports.items():
        if circuit.gate(gate_id).kind == "zero":
            edges[enter].append((error_letters[0], dfa.sink))
        if leave != dfa.sink:
            missing = degree - len(edges[leave])
            assert missing >= 1
            edges[leave].extend(
                (error_letters[j], dfa.sink) for j in range(missing)
            )
    transitions: dict[str, tuple[tuple[str, Mapping[str, int], Fraction], ...]] = {}
    for state in dfa.states:
        if state == dfa.sink:
            transitions[state] = ((state, {}, Fraction(1)),)
            continue
        assert edges[state], f"state {state!r} has no outgoing edge"
        prob = Fraction(1, len(edges[state]))
        transitions[state] = tuple(
            (successor, {letter: 1}, prob) for letter, successor in edges[state]
        )
    typed = TypedCostChain(
        states=dfa.states,
        initial=dfa.source,
        target=dfa.sink,
        alphabet=alphabet,
        transitions=transitions,
    )
    target_vector = {letter: budget.get(letter, 0) for letter in alphabet}
    return typed, target_vector


def typed_to_chain(
    typed: TypedCostChain, target_vector: Mapping[str, int]
) -> tuple[CostChain, int]:
    """Collapse vector costs to integers via a base-b digit map with check digit.

    With m the total of the target vector and b = m+1, a vector maps to
    its base-b digit string extended by the vector's letter total. Only
    the target vector itself can reach the image T of the target vector,
    so the hit probability is preserved exactly.
    """
    order = typed.alphabet
    total = sum(target_vector.values())
    base = total + 1
    weight = {letter: base**pos for pos, letter in enumerate(order)}
    checkpos = base ** len(order)

    def collapse(vector: Mapping[str, int]) -> int:
        return sum(
            count * weight[letter] for letter, count in vector.items()
        ) + sum(vector.values()) * checkpos

    entries = [
        (state, successor, collapse(vector), prob)
        for state in typed.states
        if state != typed.target
        for successor, vector, prob in typed.transitions[state]
    ]
    chain = build_chain(entries, typed.initial, typed.target, states=typed.states)
    return chain, collapse(target_vector)


def circuit_to_chain(circuit: ArithmeticCircuit, gate_id: str) -> GadgetCertificate:
    """Cost chain whose probability of total cost T is val(gate)/m exactly."""
    level = circuit.gate(gate_id).level
    if level % 2 == 0:
        raise PreconditionError(
            f"gate {gate_id!r} sits on even level {level}; raise it with lift_gate first"
        )
    dfa, budget, _, _ = circuit_to_dfa(circuit, gate_id)
    typed, target_vector = dfa_to_typed_chain(dfa, budget, circuit)
    chain, target_value = typed_to_chain(typed, target_vector)
    degree = padding_degree(dfa)
    scale, exp2, expd = scale_factor(level, degree)
    return GadgetCertificate(
        model=chain,
        target_value=target_value,
        scale=scale,
        bookkeeping={
            "gate": gate_id,
            "level": level,
            "d": degree,
            "exp2": exp2,
            "expd": expd,
            "alphabet": len(typed.alphabet),
        },
    )


def posslp_instance(
    circuit: ArithmeticCircuit, first: str, second: str
) -> tuple[CostChain, Formula, GadgetCertificate]:
    """Chain and formula whose 1/2-threshold query answers val(first) >= val(second).

    Both gates are lifted to a common odd level, so both branch chains
    share the same target value T and scale m. The initial coin tosses
    between the first gate's chain at offset 0 and the second's at
    offset H+1, with H large enough that the first chain strays above H
    with probability below 1/m. The formula accepts cost T, every
    second-branch cost except H+1+T, and nothing else.
    """
    work, lifted_first, lifted_second = _common_odd_level(circuit, first, second)
    cert_first = circuit_to_chain(work, lifted_first)
    cert_second = circuit_to_chain(work, lifted_second)
    target = cert_first.target_value
    scale = cert_first.scale
    assert cert_second.target_value == target and cert_second.scale == scale
    offset = _tail_offset(cert_first, target, scale)

    entries: list[tuple[str, str, int, Fraction]] = [
        ("src", _prefixed("L", cert_first.model.initial, cert_first.model), 0, Fraction(1, 2)),
        ("src", _prefixed("R", cert_second.model.initial, cert_second.model), offset + 1, Fraction(1, 2)),
    ]
    for tag, cert in (("L", cert_first), ("R", cert_second)):
        chain = cert.model
        entries.extend(
            (f"{tag}.{state}", _prefixed(tag, successor, chain), cost, prob)
            for state, _, successor, cost, prob, _ in _rows(chain)
            if state != chain.target
        )
    combined = build_chain(entries, "src", "t")
    formula = Or(
        Or(_exactly(target), _between(offset + 1, offset + target)),
        _at_least(offset + target + 2),
    )
    certificate = GadgetCertificate(
        model=combined,
        target_value=target,
        scale=scale,
        bookkeeping={
            "H": offset,
            "T": target,
            "gates": (lifted_first, lifted_second),
            "level": cert_first.bookkeeping["level"],
            "d": cert_first.bookkeeping["d"],
        },
    )
    return combined, formula, certificate


def _prefixed(tag: str, state: str, chain: CostChain) -> str:
    return "t" if state == chain.target else f"{tag}.{state}"


def _common_odd_level(
    circuit: ArithmeticCircuit, first: str, second: str
) -> tuple[ArithmeticCircuit, str, str]:
    """Lift one or both gates until they share an odd level."""
    circuit.gate(first)
    circuit.gate(second)
    work = circuit
    while work.gate(first).level < work.gate(second).level:
        work, first = lift_gate(work, first)
    while work.gate(second).level < work.gate(first).level:
        work, second = lift_gate(work, second)
    if work.gate(first).level % 2 == 0:
        work, first = lift_gate(work, first)
        work, second = lift_gate(work, second)
    return work, first, second


def _tail_offset(certificate: GadgetCertificate, target: int, scale: int) -> int:
    """Offset H with P(first-branch cost > H) < 1/m, certified by an exact solve.

    For acyclic branch chains the quantile bound seeds H symbolically
    (ln(m+1) <= exp2*ln 2 + expd*ln d + 1, never materializing huge
    logs); otherwise H starts small. Either way H doubles until the
    solver certifies the tail. The loop converges because the branch
    chain reaches its target almost surely.
    """
    chain = certificate.model
    offset = max(target, 1)
    if is_acyclic(chain):
        exp2 = certificate.bookkeeping["exp2"]
        expd = certificate.bookkeeping["expd"]
        degree = certificate.bookkeeping["d"]
        log_bound = exp2 * ln_upper(Fraction(2)) + expd * ln_upper(Fraction(degree)) + 1
        offset = max(offset, tail_budget(chain, log_bound))
    while solve_chain(chain, Not(Atom(offset))) >= Fraction(1, scale):
        offset *= 2
    return offset
