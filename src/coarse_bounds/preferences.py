"""Comparison rules and completions built on the coarse bounds.

Two acts are ranked when one statewise-dominates the other, or when the best
capacity-``N`` lower bound of one is worth at least the least upper bound of
the other. The relation is incomplete; the Cautious (Reckless) completion
scores every act by its lower (upper) bound value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .acts import Belief, DiscreteAct, build_ladder
from .errors import AlignmentError
# ``bound`` is unused here, but perfbench's tracer test patches this binding
from .engine import attitude_kind, bound, bound_value  # noqa: F401


class Verdict(enum.Enum):
    STRICTLY_PREFERS_F = "strictly_prefers_f"
    STRICTLY_PREFERS_G = "strictly_prefers_g"
    INDIFFERENT = "indifferent"
    INCOMPARABLE = "incomparable"


class Provenance(enum.Enum):
    BY_DOMINANCE = "by_dominance"
    BY_BOUNDS = "by_bounds"
    BY_BOTH = "by_both"


class Attitude(enum.Enum):
    CAUTIOUS = "cautious"
    RECKLESS = "reckless"


@dataclass(frozen=True)
class PreferenceVerdict:
    verdict: Verdict
    provenance: Provenance

    def to_json(self) -> dict:
        return {"verdict": self.verdict.value, "provenance": self.provenance.value}


def _check_same_states(f: DiscreteAct, g: DiscreteAct) -> None:
    if f.state_ids != g.state_ids:
        raise AlignmentError("acts must share the same ordered state set")


def statewise_dominates(f: DiscreteAct, g: DiscreteAct) -> bool:
    """True iff f pays at least as much as g in every state, null or not."""
    _check_same_states(f, g)
    return all(a >= b for a, b in zip(f.values, g.values))


def value(f: DiscreteAct, belief: Belief, n, attitude) -> float:
    """Completion value: lower-bound value if cautious, upper if reckless."""
    ladder = build_ladder(f, belief)
    return bound_value(ladder, n, attitude_kind(attitude))


def is_well_understood(f: DiscreteAct, belief: Belief, n) -> bool:
    """True iff f takes at most n distinct values on positive-mass states,
    the levels of its value ladder."""
    return len(build_ladder(f, belief)) <= n


def simple_bounds_compare(f: DiscreteAct, g: DiscreteAct, belief: Belief, n) -> PreferenceVerdict:
    """Four-way verdict of the bound-based comparison rule (``verdict_of``)."""
    _check_same_states(f, g)
    f_dom = statewise_dominates(f, g)
    g_dom = statewise_dominates(g, f)
    lf = build_ladder(f, belief)
    lg = build_ladder(g, belief)
    inf_f = bound_value(lf, n, "lower")
    sup_f = bound_value(lf, n, "upper")
    inf_g = bound_value(lg, n, "lower")
    sup_g = bound_value(lg, n, "upper")
    return verdict_of(f_dom, g_dom, inf_f >= sup_g, inf_g >= sup_f)


def verdict_of(f_dom: bool, g_dom: bool, f_bounds: bool, g_bounds: bool) -> PreferenceVerdict:
    """Verdict and provenance from the evidence for each weak direction.

    An act is weakly preferred when it dominates (``*_dom``) or its lower
    bound reaches the other's upper bound (``*_bounds``); both directions
    give indifference, neither gives incomparability. The provenance is
    BY_BOTH when some dominance and some bound evidence held, BY_DOMINANCE
    when only dominance evidence held, and BY_BOUNDS otherwise.
    """
    f_weak, g_weak = f_dom or f_bounds, g_dom or g_bounds
    if f_weak == g_weak:
        verdict = Verdict.INDIFFERENT if f_weak else Verdict.INCOMPARABLE
    else:
        verdict = Verdict.STRICTLY_PREFERS_F if f_weak else Verdict.STRICTLY_PREFERS_G
    dom, bounds = f_dom or g_dom, f_bounds or g_bounds
    provenance = (Provenance.BY_BOTH if dom and bounds
                  else Provenance.BY_DOMINANCE if dom else Provenance.BY_BOUNDS)
    return PreferenceVerdict(verdict, provenance)


def mix(f: DiscreteAct, g: DiscreteAct, alpha: float) -> DiscreteAct:
    """Statewise convex combination alpha*f + (1-alpha)*g."""
    _check_same_states(f, g)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    return DiscreteAct(
        f.state_ids,
        [alpha * a + (1.0 - alpha) * b for a, b in zip(f.values, g.values)],
    )


def are_comonotone(f: DiscreteAct, g: DiscreteAct, belief: Belief | None = None) -> bool:
    """No state pair is ranked oppositely by f and g.

    Restricted to positive-mass states when a belief is supplied. Sorted
    by (f, g), the pairs must have nondecreasing g values: ties in f are
    then in g order, and a drop in g between distinct f values is an
    opposite ranking. O(k log k) and exact at every size.
    """
    _check_same_states(f, g)
    if belief is not None:
        if len(belief) != len(f):
            raise AlignmentError("belief does not align with the acts")
        pairs = [
            (a, b)
            for a, b, m in zip(f.values, g.values, belief.masses)
            if m > 0.0
        ]
    else:
        pairs = list(zip(f.values, g.values))
    pairs.sort()
    return all(b1 <= b2 for (_, b1), (_, b2) in zip(pairs, pairs[1:]))
