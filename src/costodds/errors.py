"""Exception hierarchy shared by all costodds modules."""

from __future__ import annotations


class CostOddsError(Exception):
    """Base class for every error raised by this package."""


class ModelFormatError(CostOddsError):
    """Malformed model, circuit, or game input (structure or number syntax)."""


class FormulaSyntaxError(CostOddsError):
    """Cost formula text that does not match the grammar.

    Carries the character offset of the offending token in ``position``.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NotValidatedError(CostOddsError):
    """A solver was handed a process whose validation report has findings."""

    def __init__(self, report: object) -> None:
        super().__init__(f"process failed validation: {report}")
        self.report = report


class NotAChainError(CostOddsError):
    """A chain-only operation received a process with a choice of actions."""


class ThresholdRangeError(CostOddsError):
    """A probability threshold outside the range the operation supports."""


class PreconditionError(CostOddsError):
    """A gadget constructor's documented precondition does not hold."""


class GuardExceededError(CostOddsError):
    """A brute-force oracle or simulation exceeded its explicit size guard."""


class SchedulerGapError(CostOddsError):
    """A scheduler was consulted at a pair it does not cover."""


class SingularMatrixError(CostOddsError):
    """An exact linear system had no unique solution.

    Unreachable for validated processes; kept as a hard failure so that a
    validation bug can never silently produce wrong probabilities.
    """
