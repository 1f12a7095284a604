"""Exact rational and cost parsing helpers.

Probabilities and thresholds travel as ``fractions.Fraction`` everywhere.
Input syntax is deliberately narrow: a rational is a decimal string
``"num"`` or ``"num/den"``; a cost is a decimal string or a non-negative
int. Floats, decimal points, and exponents are rejected so that no
inexact value can enter an exact computation path.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from .errors import ModelFormatError

_RATIONAL_RE = re.compile(r"\A([0-9]+)(?:/([0-9]+))?\Z")
_COST_RE = re.compile(r"\A[0-9]+\Z")


def parse_rational(text: object, what: str = "rational") -> Fraction:
    """Parse a non-negative exact rational from ``"num"`` or ``"num/den"``.

    Args:
        text: the raw JSON/CLI value; only ``str`` is accepted.
        what: label used in error messages.

    Raises:
        ModelFormatError: on floats, negative values, zero denominators, or
            any other syntax.
    """
    if not isinstance(text, str):
        raise ModelFormatError(
            f"{what} must be a string like \"1/2\", got {text!r}"
        )
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise ModelFormatError(
            f"{what} must match num or num/den in decimal digits, got {text!r}"
        )
    num = _decimal(match.group(1), what)
    den = _decimal(match.group(2), what) if match.group(2) is not None else 1
    if den == 0:
        raise ModelFormatError(f"{what} has denominator zero: {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Render a Fraction canonically: ``"3/4"``, integers as ``"1"``."""
    if value.denominator == 1:
        return _digits(value.numerator)
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def _digits(n: int) -> str:
    """``str(n)``, or past CPython's int-to-str digit cap, which a long exact
    answer can exceed, ``str(Decimal(n))``: exact for ints and not capped."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def parse_cost(value: object, what: str = "cost") -> int:
    """Parse a non-negative integer cost from a decimal string or int."""
    if isinstance(value, bool):
        raise ModelFormatError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, int):
        if value < 0:
            raise ModelFormatError(f"{what} must be non-negative, got {value}")
        return value
    if isinstance(value, str) and _COST_RE.match(value.strip()):
        return _decimal(value, what)
    raise ModelFormatError(
        f"{what} must be a non-negative decimal integer, got {value!r}"
    )


def _decimal(digits: str, what: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's cap on int <-> str digits
        raise ModelFormatError(f"{what} has too many digits ({len(digits)})") from None
