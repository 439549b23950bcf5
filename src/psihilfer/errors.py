"""Exception hierarchy shared by all solver modules."""

from __future__ import annotations


class PsiHilferError(Exception):
    """Base class for all errors raised by this package."""


class DomainViolation(PsiHilferError):
    """An argument lies outside the mathematically admissible domain."""


class NonMonotone(PsiHilferError):
    """A transform function failed the strict-monotonicity check."""


class GridMismatch(PsiHilferError):
    """Sample arrays and grid do not describe the same discretization."""


class GridTooCoarse(PsiHilferError):
    """The grid has too few nodes for the requested operation."""


class OverflowGuard(PsiHilferError):
    """A series term, Gamma value or quadrature weight would exceed the
    representable floating-point range."""


class SeriesNotConverged(PsiHilferError):
    """A series sum reached its term limit before its stop rule ended it."""


class ParamViolation(PsiHilferError):
    """A parameter combination makes a Gamma factor undefined."""


class ExprSyntaxError(PsiHilferError):
    """Malformed expression text.

    ``offset`` is the byte offset of the offending token.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExprSyntaxError):
    """Identifier other than t, y or a known function name."""


class ExprDomainError(PsiHilferError):
    """Evaluation hit a point where the expression is undefined.

    ``offset`` locates the AST node whose operation failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (node at offset {offset})")
        self.offset = offset


class ConfigParseError(PsiHilferError):
    """Problem configuration file is not valid JSON."""


class ValidationError(PsiHilferError):
    """Aggregated list of configuration violations.

    All violations are collected before raising so that a user sees
    every problem at once; ``violations`` is a list of strings.
    """

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def broken(*rules) -> list[str]:
    """``"<message>, got <value>"`` for each ``(value, holds, message)``
    rule whose value is given (not None) and fails ``holds``."""
    return [f"{message}, got {v!r}" for v, holds, message in rules
            if v is not None and not holds(v)]


def raise_on(problems: list[str], error: type[PsiHilferError]) -> None:
    """Raise ``error`` naming every message in ``problems``, if any."""
    if problems:
        raise error("; ".join(problems))
