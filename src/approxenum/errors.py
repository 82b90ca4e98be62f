"""Exception types shared across the package, and the parameter ranges checked
where the library and the CLI are entered."""

from __future__ import annotations

import math
from typing import Optional


class ApproxEnumError(Exception):
    """Base class for all approxenum errors."""


class ParseError(ApproxEnumError):
    """Malformed schema, database or query text."""


class ArityMismatch(ParseError):
    """A tuple's length does not match its relation's arity."""


class ElementOutOfRange(ParseError):
    """A tuple component lies outside the declared domain [1, n]."""


class DomainTooLarge(ParseError):
    """The declared domain [1, n] is too large for the database's arrays."""


class DegreeExceeded(ApproxEnumError):
    """An element participates in more tuples than the degree bound allows."""

    def __init__(self, element: int, degree: int, bound: int):
        self.element = element
        self.degree = degree
        self.bound = bound
        super().__init__(
            f"element {element} has degree {degree}, exceeding bound {bound}"
        )


class IndexOutOfRange(ApproxEnumError):
    """An oracle index or radius is outside its contract bounds."""


class ParameterError(ApproxEnumError):
    """A numeric parameter lies outside the range its guarantee needs."""


# parameter: (admissible test, admissible range as printed)
PARAMETER_RANGES = {
    "gamma": (lambda v: 0 < v < 1, "in (0, 1)"),
    "epsilon": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "lam": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "expansion_cap": (lambda v: v >= 1, "at least 1"),
    "r": (lambda v: v >= 0, "at least 0"),
    "max_outputs": (lambda v: v >= 0, "at least 0"),
    "samples": (lambda v: v >= 1, "at least 1"),
    "scale": (lambda v: 0 < v < math.inf, "finite and greater than 0"),
}


def check_parameter(name: str, value, label: Optional[str] = None) -> None:
    """Raise ParameterError unless ``value`` lies in the range of ``name``."""
    admissible, stated = PARAMETER_RANGES[name]
    if not admissible(value):
        raise ParameterError(f"{label or name} must be {stated}, got {value}")


class RadiusMismatch(ParseError):
    """A declared neighbourhood is not coverable at the required radius."""


class CentreCountMismatch(ParseError):
    """A declared neighbourhood has the wrong number of centres."""


class NotLocal(ApproxEnumError):
    """A sentence-free query was required but the query carries sentences."""


class BudgetExceeded(ApproxEnumError):
    """An exhaustive reference computation would exceed its configured cap."""


class SchemaMismatch(ApproxEnumError):
    """An operation requires a schema shape the database does not have."""


class MissingTester(ApproxEnumError):
    """No tester plugin was supplied for a query clause that needs one."""
