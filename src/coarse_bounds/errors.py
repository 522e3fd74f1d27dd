"""Exception types shared across the package."""


class CoarseBoundsError(Exception):
    """Base class for all package errors."""


class AlignmentError(CoarseBoundsError):
    """Act, belief, or weight vectors have mismatched lengths or state sets."""


class DegenerateBeliefError(CoarseBoundsError):
    """A belief with no positive-mass state where one is required."""


class InvalidCapacityError(CoarseBoundsError):
    """Capacity N must be a positive integer."""


class OracleTooLargeError(CoarseBoundsError):
    """Exhaustive enumeration would exceed the size guard."""


class PreconditionError(CoarseBoundsError):
    """A documented precondition of an operation does not hold."""


class NonPositiveWealthError(CoarseBoundsError, ValueError):
    """A utility defined on positive wealth was evaluated at non-positive
    wealth."""


class BracketingError(CoarseBoundsError):
    """A root-finding bracket could not be established."""


class ConvergenceError(CoarseBoundsError):
    """An iterative numerical procedure failed to converge."""


class InfeasibleConstructionError(CoarseBoundsError):
    """A constructive transform has no feasible parameter; the message names
    the binding constraint."""
