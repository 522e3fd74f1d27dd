"""Constant-relative-risk-aversion utility on positive wealth."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import inf, log
from operator import le, truediv

from ..errors import NonPositiveWealthError


@dataclass(frozen=True)
class CRRAUtility:
    """u(x) = x^(1-gamma)/(1-gamma), logarithmic at gamma = 1, linear at 0."""

    gamma: float

    def __post_init__(self):
        if not 0 <= self.gamma < inf:
            raise ValueError(
                f"relative risk aversion must be non-negative and finite, got gamma={self.gamma!r}"
            )

    def __call__(self, x: float) -> float:
        if x <= 0:
            raise NonPositiveWealthError(f"CRRA utility needs positive wealth, got {x!r}")
        if self.gamma == 1.0:
            return log(x)
        try:
            return x ** (1.0 - self.gamma) / (1.0 - self.gamma)
        except OverflowError:
            raise OverflowError(
                f"CRRA utility with gamma={self.gamma!r} overflows at wealth {x!r}"
            ) from None

    def apply(self, xs) -> list:
        """``[self(x) for x in xs]`` for a sequence ``xs``, bit for bit.

        The same ``pow``, ``log`` and division run on each element, in state
        order, as one pass of C-level calls with no Python call per element;
        an error is the first scalar call's, and NaN passes through. Not
        numpy's array power and log: they round differently on some inputs.
        """
        if any(map(le, xs, repeat(0))):
            # the scalar calls raise at the first non-positive element, or at
            # an overflow before it, with the scalar call's type and message
            for x in xs:
                self(x)
        if self.gamma == 1.0:
            return list(map(log, xs))
        e = 1.0 - self.gamma
        try:
            return list(map(truediv, map(pow, xs, repeat(e)), repeat(e)))
        except OverflowError:
            for x in xs:  # the first overflowing scalar call names its wealth
                self(x)
            raise

    def marginal(self, x: float) -> float:
        if x <= 0:
            raise NonPositiveWealthError(
                f"CRRA marginal utility needs positive wealth, got {x!r}"
            )
        return x ** (-self.gamma)
