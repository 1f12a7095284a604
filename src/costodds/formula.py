"""Cost formulas: Boolean combinations of budget atoms over one variable.

A cost formula talks about a single non-negative integer, the accumulated
cost ``x``, through atoms ``x <= B``. Negation, conjunction, and
disjunction build arbitrary Boolean combinations on top. The concrete
grammar also accepts ``x >= B``, ``x = B``, and two-sided ``A <= x <= B``
forms, which are rewritten into the three core connectives while parsing,
so the AST only ever contains ``Atom``, ``Not``, ``And``, ``Or``.

Truth can only change just above an atom bound, so a formula denotes a
finite union of intervals fixed by its constants. ``normalize`` compiles
it once into that canonical ``IntervalSet``, evaluating truth only at 0
and at each bound + 1; the solvers, the sampler and the gadgets test costs
against the set. ``satisfies`` evaluates the tree directly at one value: it
is the reference that the tests check ``normalize`` against, and no solver
or gadget calls it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import zip_longest
from operator import itemgetter
from typing import Final, Iterator

from .errors import FormulaSyntaxError
from .rational import _digits

__all__ = [
    "Atom",
    "Not",
    "And",
    "Or",
    "CostFormula",
    "Formula",
    "IntervalSet",
    "parse",
    "satisfies",
    "normalize",
    "max_constant",
    "is_constant_formula",
    "to_text",
]


class _Node:
    """Equality, hashing and repr of a whole formula tree, without recursion.

    The dataclass-generated methods recurse once per level, so a
    hand-built tree a few thousand levels deep would exhaust the
    interpreter stack. Two trees are equal when their pre-order
    (type, bound) sequences are; each type has a fixed arity, so the
    sequence determines the tree.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        return all(a == b for a, b in zip_longest(_shape(self), _shape(other)))

    def __hash__(self) -> int:
        return hash(tuple(_shape(self)))

    def __repr__(self) -> str:
        parts: list[str] = []
        # Items are nodes still to render or literal text, last one first.
        stack: list[object] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif isinstance(item, Atom):
                parts.append(f"Atom(bound={item.bound!r})")
            elif isinstance(item, Not):
                stack.extend((")", item.inner, "Not(inner="))
            elif isinstance(item, (And, Or)):
                name = type(item).__name__
                stack.extend((")", item.right, ", right=", item.left, f"{name}(left="))
            else:
                parts.append(repr(item))
        return "".join(parts)


@dataclass(frozen=True, eq=False, repr=False)
class Atom(_Node):
    """The atom ``x <= bound``."""

    bound: int

    def __post_init__(self) -> None:
        if not isinstance(self.bound, int) or isinstance(self.bound, bool):
            raise FormulaSyntaxError(f"atom bound must be an int, got {self.bound!r}")
        if self.bound < 0:
            raise FormulaSyntaxError(f"atom bound must be non-negative, got {self.bound}")


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Node):
    inner: "CostFormula"


@dataclass(frozen=True, eq=False, repr=False)
class And(_Node):
    left: "CostFormula"
    right: "CostFormula"


@dataclass(frozen=True, eq=False, repr=False)
class Or(_Node):
    left: "CostFormula"
    right: "CostFormula"


CostFormula = Atom | Not | And | Or

# Short name used in signatures throughout the package.
Formula = CostFormula


@dataclass(frozen=True)
class IntervalSet:
    """Canonical satisfying set: disjoint, non-adjacent, sorted intervals.

    ``spans`` holds pairs ``(lo, hi)`` of inclusive bounds; ``hi`` is None
    on the last span when the set is unbounded above. Two formulas have
    equal satisfying sets exactly when their IntervalSets are equal.
    """

    spans: tuple[tuple[int, int | None], ...]

    def __contains__(self, value: int) -> bool:
        idx = bisect_right(self.spans, value, key=_span_start) - 1
        if idx < 0:
            return False
        hi = self.spans[idx][1]
        return hi is None or value <= hi

    @property
    def is_empty(self) -> bool:
        return not self.spans

    @property
    def is_universal(self) -> bool:
        return self.spans == ((0, None),)

    def complement(self) -> "IntervalSet":
        """The exact complement within the non-negative integers."""
        gaps: list[tuple[int, int | None]] = []
        cursor = 0
        for lo, hi in self.spans:
            if lo > cursor:
                gaps.append((cursor, lo - 1))
            if hi is None:
                return IntervalSet(tuple(gaps))
            cursor = hi + 1
        gaps.append((cursor, None))
        return IntervalSet(tuple(gaps))

    def issubset(self, other: "IntervalSet") -> bool:
        for lo, hi in self.spans:
            if not other._covers(lo, hi):
                return False
        return True

    def _covers(self, lo: int, hi: int | None) -> bool:
        for olo, ohi in self.spans:
            if olo <= lo and (ohi is None or (hi is not None and hi <= ohi)):
                return True
        return False


_span_start = itemgetter(0)


# Tokenizer: the grammar has single-character operators plus <= and >=.

_SIMPLE = {"!": "not", "&": "and", "|": "or", "(": "lparen", ")": "rparen"}

# Cap on connectives and parentheses per formula text. It bounds both the
# parser's recursion and the depth of every AST it builds, so no walk over
# a parsed formula can exhaust the interpreter stack.
_MAX_CONNECTIVES: Final[int] = 200


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    connectives = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SIMPLE:
            connectives += 1
            if connectives > _MAX_CONNECTIVES:
                raise FormulaSyntaxError(
                    f"more than {_MAX_CONNECTIVES} connectives and parentheses", i
                )
            tokens.append((_SIMPLE[ch], ch, i))
            i += 1
        elif ch == "x":
            tokens.append(("var", "x", i))
            i += 1
        elif text.startswith("<=", i):
            tokens.append(("le", "<=", i))
            i += 2
        elif text.startswith(">=", i):
            tokens.append(("ge", ">=", i))
            i += 2
        elif ch == "=":
            tokens.append(("eq", "=", i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:  # a non-ASCII digit, or past the int <-> str digit cap
                raise FormulaSyntaxError(f"cannot read the {j - i}-digit integer", i) from None
            i = j
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent with precedence ! > & > |."""

    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> CostFormula:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> CostFormula:
        node = self.term()
        while self.peek()[0] == "or":
            self.take("or")
            node = Or(node, self.term())
        return node

    def term(self) -> CostFormula:
        node = self.factor()
        while self.peek()[0] == "and":
            self.take("and")
            node = And(node, self.factor())
        return node

    def factor(self) -> CostFormula:
        kind, _, pos = self.peek()
        if kind == "not":
            self.take("not")
            return Not(self.factor())
        if kind == "lparen":
            self.take("lparen")
            node = self.expr()
            self.take("rparen")
            return node
        if kind in ("var", "int"):
            return self.atom()
        raise FormulaSyntaxError("expected an atom, '!', or '('", pos)

    def atom(self) -> CostFormula:
        kind, value, pos = self.peek()
        if kind == "var":
            self.take("var")
            op_kind, _, op_pos = self.peek()
            if op_kind == "le":
                self.take("le")
                bound = self._int()
                return Atom(bound)
            if op_kind == "ge":
                self.take("ge")
                return _at_least(self._int())
            if op_kind == "eq":
                self.take("eq")
                return _exactly(self._int())
            raise FormulaSyntaxError("expected <=, >=, or = after x", op_pos)
        # Two-sided form: INT <= x <= INT.
        self.take("int")
        self.take("le")
        self.take("var")
        self.take("le")
        upper = self._int()
        lower = value
        assert isinstance(lower, int)
        return _between(lower, upper)

    def _int(self) -> int:
        tok = self.take("int")
        value = tok[1]
        assert isinstance(value, int)
        return value


def _at_least(bound: int) -> CostFormula:
    # x >= 0 is vacuously true; there is no literal "true", so encode it.
    if bound == 0:
        return Or(Atom(0), Not(Atom(0)))
    return Not(Atom(bound - 1))


def _exactly(bound: int) -> CostFormula:
    if bound == 0:
        return Atom(0)
    return And(Atom(bound), Not(Atom(bound - 1)))


def _between(lower: int, upper: int) -> CostFormula:
    # An inverted range (lower > upper) yields an unsatisfiable conjunction,
    # which is the natural reading rather than an error.
    if lower == 0:
        return Atom(upper)
    return And(Atom(upper), Not(Atom(lower - 1)))


def parse(text: str) -> CostFormula:
    """Parse formula text into an AST.

    The surface syntax is ``x<=B``, ``x>=B``, ``x=B``, ``A<=x<=B``, the
    connectives ``!``, ``&``, ``|`` (tightest first), and parentheses.
    Whitespace is insignificant. Bounds are arbitrary-precision decimals.
    """
    return _Parser(text).parse()


def satisfies(value: int, formula: CostFormula) -> bool:
    """Evaluate the formula with ``x := value``."""
    nodes = list(_walk(formula))
    truth: dict[int, bool] = {}
    # Reversed pre-order visits every child before its parent.
    for node in reversed(nodes):
        if isinstance(node, Atom):
            holds = value <= node.bound
        elif isinstance(node, Not):
            holds = not truth[id(node.inner)]
        elif isinstance(node, And):
            holds = truth[id(node.left)] and truth[id(node.right)]
        else:
            holds = truth[id(node.left)] or truth[id(node.right)]
        truth[id(node)] = holds
    return truth[id(formula)]


def _walk(formula: CostFormula) -> Iterator[CostFormula]:
    """Every node of the tree in pre-order, without recursion."""
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Not):
            stack.append(node.inner)
        elif isinstance(node, (And, Or)):
            stack.append(node.right)
            stack.append(node.left)
        elif not isinstance(node, Atom):
            raise TypeError(f"not a cost formula: {node!r}")


def _shape(formula: CostFormula) -> Iterator[tuple[type, int | None]]:
    """(type, bound) of every node in pre-order; the bound is None off atoms."""
    for node in _walk(formula):
        yield type(node), node.bound if isinstance(node, Atom) else None


def max_constant(formula: CostFormula) -> int:
    """The largest atom bound; beyond it the formula's verdict is fixed.

    Every AST produced here contains at least one atom, so the edge case
    of an atom-free formula only matters for hand-built trees; it returns
    0, and constancy can be checked with ``is_constant_formula``.
    """
    if type(formula) is Atom:
        return formula.bound
    return max((n.bound for n in _walk(formula) if isinstance(n, Atom)), default=0)


def normalize(formula: CostFormula) -> IntervalSet:
    """The exact satisfying set of the formula as disjoint intervals.

    Truth is constant on [0, b_1] and on each [b_i + 1, b_(i+1)] for the
    sorted atom bounds b_i, and from the last b + 1 on, so it is
    evaluated only at 0 and at each bound + 1: one bit per sample point,
    all points at once, in a single pass over the tree. The result is
    canonical: semantically equal formulas normalize equally. A bare
    ``x<=B``, every quantile probe among them, returns at once.
    """
    if type(formula) is Atom:
        return IntervalSet(((0, formula.bound),))
    nodes = list(_walk(formula))
    points = sorted({0}.union(n.bound + 1 for n in nodes if isinstance(n, Atom)))
    full = (1 << len(points)) - 1
    truth: dict[int, int] = {}
    # Reversed pre-order visits every child before its parent.
    for node in reversed(nodes):
        if isinstance(node, Atom):
            bits = (1 << bisect_right(points, node.bound)) - 1
        elif isinstance(node, Not):
            bits = full ^ truth[id(node.inner)]
        elif isinstance(node, And):
            bits = truth[id(node.left)] & truth[id(node.right)]
        else:
            bits = truth[id(node.left)] | truth[id(node.right)]
        truth[id(node)] = bits
    bits = truth[id(formula)]
    ends: list[int | None] = [point - 1 for point in points[1:]]
    spans: list[tuple[int, int | None]] = []
    for index, (lo, hi) in enumerate(zip(points, ends + [None])):
        if bits >> index & 1:
            if spans and spans[-1][1] == lo - 1:
                lo = spans.pop()[0]
            spans.append((lo, hi))
    return IntervalSet(tuple(spans))


def is_constant_formula(formula: CostFormula) -> bool:
    """True when the formula is vacuously true or unsatisfiable."""
    result = normalize(formula)
    return result.is_empty or result.is_universal


def to_text(formula: CostFormula) -> str:
    """Render the AST back to parseable text (atoms only as ``x<=B``)."""
    parts: list[str] = []
    # Items are nodes still to render or literal text, last one first.
    stack: list["CostFormula | str"] = [formula]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Atom):
            parts.append(f"x<={_digits(item.bound)}")
        elif isinstance(item, Not):
            parts.append("!")
            stack.extend(_grouped(item.inner, (And, Or)))
        elif isinstance(item, And):
            stack.extend(_grouped(item.right, Or))
            stack.append(" & ")
            stack.extend(_grouped(item.left, Or))
        elif isinstance(item, Or):
            stack.extend((item.right, " | ", item.left))
        else:
            raise TypeError(f"not a cost formula: {item!r}")
    return "".join(parts)


def _grouped(node: CostFormula, kinds: type | tuple[type, ...]) -> tuple:
    """Stack items rendering ``node``, in parentheses when it is one of ``kinds``."""
    return (")", node, "(") if isinstance(node, kinds) else (node,)
