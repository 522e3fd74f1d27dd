"""Exception types shared across the package, and the input checks the constructors share."""

from math import inf, isfinite
from operator import lt

import numpy as np


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


def check_finite(values: tuple, name: str) -> None:
    """Raise ``ValueError`` naming the first non-finite entry of ``values``."""
    if not all(map(isfinite, values)):
        bad = next(v for v in values if not isfinite(v))
        raise ValueError(f"{name} must be finite, got {bad!r}")


def check_ascending(values: tuple, name: str) -> None:
    """Raise ``ValueError`` unless ``values`` are finite and strictly ascending; NaN fails ``<``."""
    if values and not (all(map(lt, values, values[1:])) and -inf < values[0] <= values[-1] < inf):
        check_finite(values, name)
        raise ValueError(f"{name} must be strictly ascending")


def is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_capacity(n) -> int:
    if not is_integer(n) or n < 1:
        raise InvalidCapacityError(f"capacity must be a positive integer, got {n!r}")
    return int(n)
