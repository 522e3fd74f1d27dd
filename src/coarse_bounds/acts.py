"""Finite acts in utility space, beliefs, and the value ladder.

An act is identified with its utility image: a finite map from state labels
to real payoffs. A belief assigns probability mass to the same states. The
*value ladder* is the pushforward of an act through its belief: the distinct
payoff values carried by positive-mass states, listed in ascending order with
their aggregated masses. All bound computations run on ladders, so states
that share a value (or carry no mass) are collapsed before any optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, inf

from .errors import AlignmentError, DegenerateBeliefError, check_ascending, check_finite

MASS_TOL = 1e-12


def _check_masses(masses: tuple, sign_error: str, sum_error: str) -> None:
    """Raise ``ValueError(sign_error)`` unless every mass is finite and
    non-negative, and ``ValueError(sum_error)`` unless the masses sum to 1
    within ``MASS_TOL``; ``{total!r}`` in ``sum_error`` names their sum."""
    if not all(0.0 <= m < inf for m in masses):
        raise ValueError(sign_error)
    total = fsum(masses)
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(sum_error.format(total=total))


@dataclass(frozen=True)
class DiscreteAct:
    """A finite-support act: ``values[i]`` is the payoff in state ``state_ids[i]``."""

    state_ids: tuple
    values: tuple

    def __init__(self, state_ids, values):
        state_ids = tuple(state_ids)
        values = tuple(float(v) for v in values)
        if len(state_ids) != len(values):
            raise AlignmentError(
                f"{len(state_ids)} state ids vs {len(values)} values"
            )
        if len(state_ids) == 0:
            raise AlignmentError("an act needs at least one state")
        if len(set(state_ids)) != len(state_ids):
            raise AlignmentError("state ids must be unique")
        check_finite(values, "act values")
        object.__setattr__(self, "state_ids", state_ids)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.state_ids)


@dataclass(frozen=True)
class Belief:
    """Probability masses aligned with an act's states; zero mass marks a null state."""

    masses: tuple

    def __init__(self, masses):
        masses = tuple(float(m) for m in masses)
        if len(masses) == 0:
            raise DegenerateBeliefError("a belief needs at least one state")
        if all(m == 0.0 for m in masses):
            raise DegenerateBeliefError("belief puts no mass on any state")
        _check_masses(
            masses, "belief masses must be finite and non-negative",
            "belief masses sum to {total!r}, not 1",
        )
        object.__setattr__(self, "masses", masses)

    def __len__(self):
        return len(self.masses)


@dataclass(frozen=True)
class ValueLadder:
    """Ascending distinct payoff levels with aggregated positive masses summing to 1."""

    levels: tuple
    level_masses: tuple

    def __init__(self, levels, level_masses):
        levels = tuple(float(v) for v in levels)
        level_masses = tuple(float(m) for m in level_masses)
        if len(levels) != len(level_masses):
            raise AlignmentError("levels and masses must align")
        if len(levels) == 0:
            raise DegenerateBeliefError("a ladder needs at least one level")
        check_ascending(levels, "ladder levels")
        _check_masses(
            level_masses, "ladder masses must be non-negative", "ladder masses must sum to 1"
        )
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "level_masses", level_masses)

    def __len__(self):
        return len(self.levels)

    def expectation(self) -> float:
        return sum(v * m for v, m in zip(self.levels, self.level_masses))


def check_aligned(act: DiscreteAct, belief: Belief) -> None:
    if len(act) != len(belief):
        raise AlignmentError(
            f"act has {len(act)} states but belief has {len(belief)} masses"
        )


def build_ladder(act: DiscreteAct, belief: Belief) -> ValueLadder:
    """Group positive-mass states by payoff value.

    Zero-mass states contribute no level of their own; if their value happens
    to coincide with a positive-mass level they simply add zero mass to it.
    """
    check_aligned(act, belief)
    agg: dict[float, float] = {}
    for v, m in zip(act.values, belief.masses):
        if m > 0.0:
            agg[v] = agg.get(v, 0.0) + m
    levels = sorted(agg)
    return ValueLadder(levels, [agg[v] for v in levels])


def negate_ladder(ladder: ValueLadder) -> ValueLadder:
    """The ladder of the negated act: levels mirrored about zero."""
    return ValueLadder(
        [-v for v in reversed(ladder.levels)], tuple(reversed(ladder.level_masses))
    )
