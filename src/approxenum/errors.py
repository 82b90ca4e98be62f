"""Exception types shared across the package."""


class ApproxEnumError(Exception):
    """Base class for all approxenum errors."""


class ParseError(ApproxEnumError):
    """Malformed schema, database or query text."""


class ArityMismatch(ParseError):
    """A tuple's length does not match its relation's arity."""


class ElementOutOfRange(ParseError):
    """A tuple component lies outside the declared domain [1, n]."""


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
