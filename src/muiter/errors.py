"""Exception types shared across the package."""


class MuiterError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(MuiterError):
    """An operand has the wrong arity, size, or type for the operation."""


class NonFunctorialDiagram(MuiterError):
    """A diagram violates typing, composition, or directedness requirements."""


class NoSuchIndex(MuiterError):
    """A referenced diagram index does not exist."""


class IllTypedArrow(MuiterError):
    """An arrow's domain or codomain does not match the declared objects."""


class NoAlgebra(MuiterError):
    """A claimed algebra structure map does not type-check."""


class BudgetExceeded(MuiterError):
    """Iteration ran out of its stage or carrier budget.

    Carries the partial stage profile so callers can report progress: the
    one the stopped run gave, not a copy, or an empty list.
    """

    def __init__(self, message, profile=None):
        super().__init__(message)
        self.profile = [] if profile is None else profile


class IntegrityError(MuiterError):
    """An internal invariant failed; indicates a defect, not bad input."""


class DslError(MuiterError):
    """Base class for script-language errors."""


class DslSyntaxError(DslError):
    """Malformed script text; carries line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class DslNameError(DslError):
    """Reference to a name that was never declared."""
