"""Constant-relative-risk-aversion utility on positive wealth."""

from __future__ import annotations

from dataclasses import dataclass
from math import log


@dataclass(frozen=True)
class CRRAUtility:
    """u(x) = x^(1-gamma)/(1-gamma), logarithmic at gamma = 1, linear at 0."""

    gamma: float

    def __post_init__(self):
        if not self.gamma >= 0:
            raise ValueError("relative risk aversion must be non-negative")

    def __call__(self, x: float) -> float:
        if x <= 0:
            raise ValueError(f"CRRA utility needs positive wealth, got {x!r}")
        if self.gamma == 1.0:
            return log(x)
        return x ** (1.0 - self.gamma) / (1.0 - self.gamma)

    def marginal(self, x: float) -> float:
        if x <= 0:
            raise ValueError(f"CRRA marginal utility needs positive wealth, got {x!r}")
        return x ** (-self.gamma)
