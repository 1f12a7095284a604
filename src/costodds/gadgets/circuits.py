"""Arithmetic circuits in alternating normal form.

Normal form here means: level-0 gates are constant leaves (``zero`` or
``one``), every gate on level l >= 1 has exactly two ordered inputs on
level l-1, odd levels add and even levels multiply. Helpers cover
evaluation, value-preserving level lifts, dual-rail removal of
subtraction, and a JSON file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from ..errors import ModelFormatError, PreconditionError
from ..rational import _digits

__all__ = [
    "Gate",
    "ArithmeticCircuit",
    "make_circuit",
    "check_circuit",
    "eval_circuit",
    "lift_gate",
    "normalize_circuit",
    "circuit_to_json",
    "circuit_from_json",
]

LEAF_KINDS = ("zero", "one")
BINARY_KINDS = ("plus", "times")


@dataclass(frozen=True)
class Gate:
    """One circuit node; ``level`` is its distance from the leaves."""

    id: str
    kind: str
    inputs: tuple[str, ...]
    level: int


@dataclass(frozen=True, eq=False)
class ArithmeticCircuit:
    """A normal-form circuit: gates in topological order plus designated outputs.

    Construction stores both as tuples and runs ``check_circuit``, so
    every circuit object is in normal form; malformed gates, and rows
    that are not ``Gate`` objects of string ids, raise ``PreconditionError``.
    """

    gates: tuple[Gate, ...]
    outputs: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        check_circuit(self)

    @cached_property
    def by_id(self) -> Mapping[str, Gate]:
        return {gate.id: gate for gate in self.gates}

    def gate(self, gate_id: str) -> Gate:
        try:
            return self.by_id[gate_id]
        except KeyError:
            raise PreconditionError(f"unknown gate {gate_id!r}") from None


def make_circuit(
    gates: Iterable[tuple[str, str, Iterable[str]]],
    outputs: Iterable[str] = (),
) -> ArithmeticCircuit:
    """Assemble a circuit from (id, kind, inputs) rows; the circuit checks itself.

    Rows must list a gate's inputs before the gate itself. Levels are
    derived: one above the first input for a binary gate, 0 otherwise,
    also when that input is not yet defined or not a string id, which the
    check then names.
    """
    levels: dict[str, int] = {}
    order: list[Gate] = []
    for gate_id, kind, ins in map(_unpack, gates):
        first = ins[0] if kind in BINARY_KINDS and ins and isinstance(ins[0], str) else None
        level = levels[first] + 1 if first in levels else 0
        if isinstance(gate_id, str):
            levels[gate_id] = level
        order.append(Gate(gate_id, kind, ins, level))
    return ArithmeticCircuit(tuple(order), tuple(outputs))


def _unpack(row: object) -> tuple[object, object, tuple]:
    """An (id, kind, inputs) row with its inputs as a tuple, or ``PreconditionError``."""
    try:
        gate_id, kind, inputs = row
        return gate_id, kind, tuple(inputs)
    except (TypeError, ValueError):
        raise PreconditionError(f"row {row!r} is not an (id, kind, inputs) triple") from None


def check_circuit(circuit: ArithmeticCircuit) -> None:
    """Raise ``PreconditionError`` unless the circuit is in normal form."""
    seen: dict[str, Gate] = {}
    for gate in circuit.gates:
        typed = isinstance(gate, Gate) and isinstance(gate.inputs, tuple) and type(gate.level) is int
        if not typed or not all(isinstance(n, str) for n in (gate.id, gate.kind, *gate.inputs)):
            raise PreconditionError(f"row {gate!r} is not a Gate of string ids and an int level")
        if gate.id in seen:
            raise PreconditionError(f"duplicate gate id {gate.id!r}")
        if gate.kind in LEAF_KINDS:
            if gate.inputs:
                raise PreconditionError(f"leaf {gate.id!r} must not have inputs")
            if gate.level != 0:
                raise PreconditionError(f"leaf {gate.id!r} must sit on level 0")
        elif gate.kind in BINARY_KINDS:
            if len(gate.inputs) != 2:
                raise PreconditionError(f"gate {gate.id!r} needs exactly two inputs")
            for ref in gate.inputs:
                if ref not in seen:
                    raise PreconditionError(
                        f"gate {gate.id!r} uses {ref!r} before it is defined"
                    )
                if seen[ref].level != gate.level - 1:
                    raise PreconditionError(
                        f"gate {gate.id!r} on level {gate.level} uses {ref!r} "
                        f"on level {seen[ref].level}, expected {gate.level - 1}"
                    )
            expected = "plus" if gate.level % 2 else "times"
            if gate.kind != expected:
                raise PreconditionError(
                    f"gate {gate.id!r} on level {gate.level} must be {expected!r}"
                )
        else:
            raise PreconditionError(f"gate {gate.id!r} has unknown kind {gate.kind!r}")
        seen[gate.id] = gate
    for out in circuit.outputs:
        if not isinstance(out, str) or out not in seen:
            raise PreconditionError(f"output {out!r} is not a gate")


def eval_circuit(circuit: ArithmeticCircuit, gate_id: str) -> int:
    """Value of a gate by bottom-up evaluation."""
    circuit.gate(gate_id)
    values: dict[str, int] = {}
    for gate in circuit.gates:
        if gate.kind == "zero":
            values[gate.id] = 0
        elif gate.kind == "one":
            values[gate.id] = 1
        elif gate.kind == "plus":
            values[gate.id] = values[gate.inputs[0]] + values[gate.inputs[1]]
        else:
            values[gate.id] = values[gate.inputs[0]] * values[gate.inputs[1]]
    return values[gate_id]


class _Builder:
    """Grow a normal-form circuit, sharing constant ladders and lifted copies."""

    def __init__(self, base: ArithmeticCircuit | None = None, prefix: str = "n") -> None:
        self._gates: dict[str, Gate] = {}
        self._order: list[Gate] = []
        self._prefix = prefix
        self._counter = 0
        self._constants: dict[tuple[int, int], str] = {}
        self._combined: dict[tuple[str, str], str] = {}
        if base is not None:
            for gate in base.gates:
                self._gates[gate.id] = gate
                self._order.append(gate)
                if gate.kind == "zero" and (0, 0) not in self._constants:
                    self._constants[(0, 0)] = gate.id
                if gate.kind == "one" and (1, 0) not in self._constants:
                    self._constants[(1, 0)] = gate.id

    def level(self, gate_id: str) -> int:
        return self._gates[gate_id].level

    def _fresh(self) -> str:
        while True:
            name = f"{self._prefix}{self._counter}"
            self._counter += 1
            if name not in self._gates:
                return name

    def _emit(self, kind: str, inputs: tuple[str, ...], level: int) -> str:
        gate = Gate(self._fresh(), kind, inputs, level)
        self._gates[gate.id] = gate
        self._order.append(gate)
        return gate.id

    def leaf(self, value: int) -> str:
        key = (value, 0)
        if key not in self._constants:
            self._constants[key] = self._emit("one" if value else "zero", (), 0)
        return self._constants[key]

    def constant(self, value: int, level: int) -> str:
        """A gate of the given 0/1 value on the given level.

        Missing rungs are built on an explicit stack, not one Python frame
        per level, in depth-first order: the gate below, then its partner,
        then their combination. Gate ids follow that order.
        """
        pending = [(value, level)]
        while pending:
            key = pending[-1]
            if key in self._constants:
                pending.pop()
                continue
            bit, rung = key
            if rung == 0:
                self.leaf(bit)
                continue
            below = (bit, rung - 1)
            partner = (0 if rung % 2 else bit, rung - 1)
            missing = [part for part in (below, partner) if part not in self._constants]
            if missing:
                pending.append(missing[0])
                continue
            self._constants[key] = self.combine(self._constants[below], self._constants[partner])
        return self._constants[(value, level)]

    def combine(self, left: str, right: str) -> str:
        """Join two same-level gates with the gate kind their level dictates."""
        level = self.level(left)
        if self.level(right) != level:
            raise PreconditionError("combine needs gates on a common level")
        key = (left, right)
        if key not in self._combined:
            kind = "plus" if (level + 1) % 2 else "times"
            self._combined[key] = self._emit(kind, (left, right), level + 1)
        return self._combined[key]

    def raise_to(self, gate_id: str, level: int) -> str:
        """Value-preserving lift: pair with 0 below odd levels, with 1 below even."""
        current = self.level(gate_id)
        while current < level:
            if (current + 1) % 2:
                gate_id = self.combine(gate_id, self.constant(0, current))
            else:
                gate_id = self.combine(gate_id, self.constant(1, current))
            current += 1
        return gate_id

    def add(self, left: str, right: str) -> str:
        level = max(self.level(left), self.level(right))
        if level % 2:
            level += 1
        return self.combine(self.raise_to(left, level), self.raise_to(right, level))

    def mul(self, left: str, right: str) -> str:
        level = max(self.level(left), self.level(right))
        if level % 2 == 0:
            level += 1
        return self.combine(self.raise_to(left, level), self.raise_to(right, level))

    def circuit(self, outputs: Iterable[str] = ()) -> ArithmeticCircuit:
        return ArithmeticCircuit(tuple(self._order), tuple(outputs))


def lift_gate(circuit: ArithmeticCircuit, gate_id: str) -> tuple[ArithmeticCircuit, str]:
    """One-level lift of a gate: g+0 above even levels, g*1 above odd ones.

    Returns the extended circuit and the id of the lifted copy; the
    copy's value equals the original gate's value.
    """
    gate = circuit.gate(gate_id)
    builder = _Builder(circuit, prefix="lift")
    lifted = builder.raise_to(gate_id, gate.level + 1)
    return builder.circuit(circuit.outputs), lifted


def normalize_circuit(
    gates: Iterable[tuple[str, str, Iterable[str]]],
    outputs: Iterable[str] = (),
) -> tuple[ArithmeticCircuit, dict[str, tuple[str, str]]]:
    """Turn a {plus,minus,times,zero,one} DAG into a normal-form circuit.

    Every raw gate maps to a dual-rail pair (pos, neg) of normal-form
    gates with raw value = val(pos) - val(neg); subtraction swaps the
    rails of its right argument. Returns the circuit (outputs are the
    pos rails of the raw outputs) and the per-gate rail map.
    """
    builder = _Builder()
    rails: dict[str, tuple[str, str]] = {}
    for row in gates:
        raw_id, kind, ins = _unpack(row)
        if not all(isinstance(n, str) for n in (raw_id, kind, *ins)):
            raise PreconditionError(f"row {row!r} needs a string id, kind and inputs")
        if raw_id in rails:
            raise PreconditionError(f"duplicate gate id {raw_id!r}")
        if kind in ("zero", "one"):
            if ins:
                raise PreconditionError(f"leaf {raw_id!r} must not have inputs")
            rails[raw_id] = (builder.leaf(1 if kind == "one" else 0), builder.leaf(0))
            continue
        if kind not in ("plus", "minus", "times"):
            raise PreconditionError(f"gate {raw_id!r} has unknown kind {kind!r}")
        if len(ins) != 2:
            raise PreconditionError(f"gate {raw_id!r} needs exactly two inputs")
        for ref in ins:
            if ref not in rails:
                raise PreconditionError(
                    f"gate {raw_id!r} uses {ref!r} before it is defined"
                )
        (lp, ln), (rp, rn) = rails[ins[0]], rails[ins[1]]
        if kind == "plus":
            rails[raw_id] = (builder.add(lp, rp), builder.add(ln, rn))
        elif kind == "minus":
            rails[raw_id] = (builder.add(lp, rn), builder.add(ln, rp))
        else:
            # (lp-ln)(rp-rn) = (lp*rp + ln*rn) - (lp*rn + ln*rp)
            pos = builder.add(builder.mul(lp, rp), builder.mul(ln, rn))
            neg = builder.add(builder.mul(lp, rn), builder.mul(ln, rp))
            rails[raw_id] = (pos, neg)
    out_ids = []
    for out in outputs:
        if not isinstance(out, str) or out not in rails:
            raise PreconditionError(f"output {out!r} is not a gate")
        out_ids.append(rails[out][0])
    return builder.circuit(out_ids), rails


def circuit_to_json(circuit: ArithmeticCircuit) -> dict:
    """Plain-dict form: gate list in topological order plus outputs."""
    return {
        "gates": [
            {"id": gate.id, "kind": gate.kind, "inputs": list(gate.inputs)}
            for gate in circuit.gates
        ],
        "outputs": list(circuit.outputs),
    }


def circuit_from_json(data: object) -> ArithmeticCircuit:
    """Parse the circuit file format; numeric ids are coerced to strings."""
    if not isinstance(data, dict):
        raise ModelFormatError("circuit document must be a JSON object")
    raw_gates = data.get("gates")
    if not isinstance(raw_gates, list):
        raise ModelFormatError("circuit needs a 'gates' array")
    rows: list[tuple[str, str, tuple[str, ...]]] = []
    for pos, item in enumerate(raw_gates):
        if not isinstance(item, dict):
            raise ModelFormatError(f"gate #{pos} must be an object")
        rows.append(
            (
                _gate_id(item.get("id"), pos),
                _text_field(item.get("kind"), pos, "kind"),
                tuple(_gate_id(ref, pos) for ref in _input_list(item, pos)),
            )
        )
    raw_outputs = data.get("outputs", [])
    if not isinstance(raw_outputs, list):
        raise ModelFormatError("'outputs' must be an array")
    outputs = tuple(_gate_id(ref, -1) for ref in raw_outputs)
    try:
        return make_circuit(rows, outputs)
    except PreconditionError as exc:
        raise ModelFormatError(str(exc)) from exc


def _gate_id(value: object, pos: int) -> str:
    if isinstance(value, str) and value:
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return _digits(value)
    raise ModelFormatError(f"gate #{pos}: ids must be strings or integers")


def _text_field(value: object, pos: int, name: str) -> str:
    if isinstance(value, str):
        return value
    raise ModelFormatError(f"gate #{pos}: '{name}' must be a string")


def _input_list(item: dict, pos: int) -> list:
    refs = item.get("inputs", [])
    if not isinstance(refs, list):
        raise ModelFormatError(f"gate #{pos}: 'inputs' must be an array")
    return refs
