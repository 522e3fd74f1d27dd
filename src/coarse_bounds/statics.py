"""Stochastic orders and lattice properties of the coarse-bound problem.

The lower-bound cell function (block infimum times mass) is submodular on
intervals, which makes the coarse value supermodular in cutoff vectors and
yields the workhorse comparative statics: diminishing returns to capacity,
optimal cutoffs sandwiched across adjacent capacities, strong-set-order
monotonicity of optimum sets in the underlying interval, higher marginal
returns to capacity on wider intervals, and upward cutoff shifts under
monotone-likelihood-ratio improvements of the belief. Each check here
quantifies over the *full* optimum sets that ``engine.optimum_set`` reads
off the DP, never the canonical selection alone. ``sandwich_check`` reads
the sets at n and n + 1 with ``engine.optimum_sets``, from one DP fill.

Tie rule: every verdict on computed values compares within
``engine.tie_slack``, the rule the set queries use, at one scale per ladder,
its largest |level|, so that no verdict depends on the scale of the payoffs.
``fosd_leq`` compares cdfs, which lie in [0, 1], within ``TIE_TOL``. The
optimum sets behind the set-valued checks keep the queries' absolute floor
of ``TIE_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acts import Belief, ValueLadder
from .engine import (
    LOWER,
    TIE_TOL,
    UPPER,
    Fill,
    capacity_values,
    cell_value,
    coarse_value,
    optimum_set,
    optimum_sets,
    tie_slack,
)
from .errors import AlignmentError, PreconditionError, check_capacity, check_finite


@dataclass(frozen=True)
class CapacityProfile:
    """Optimal bound values W(1..n_max) for a fixed ladder and kind."""

    kind: str
    values: tuple
    monotone: bool
    concave: bool

    def rows(self) -> list:
        """(N, W(N), increment) rows; the first increment is None."""
        out = []
        for i, v in enumerate(self.values):
            inc = None if i == 0 else v - self.values[i - 1]
            out.append((i + 1, v, inc))
        return out


@dataclass(frozen=True)
class DistributionShift:
    """A belief tilted by positive non-decreasing per-level weights."""

    base: tuple
    weights: tuple
    shifted: tuple


def _slack(ladder: ValueLadder) -> float:
    """``tie_slack`` at the ladder's largest |level|. The masses sum to 1, so
    that scale bounds every bound, cell and coarse value of the ladder, and
    the sum of their magnitudes."""
    return tie_slack(max(abs(ladder.levels[0]), abs(ladder.levels[-1])))


def _as_distribution(dist):
    """Extract (support, masses) from a ladder, perceived distribution, or pair."""
    if isinstance(dist, ValueLadder):
        return dist.levels, dist.level_masses
    if hasattr(dist, "support") and hasattr(dist, "masses"):
        return tuple(dist.support), tuple(dist.masses)
    support, masses = dist
    return tuple(support), tuple(masses)


def fosd_leq(p, q) -> bool:
    """True iff ``p`` first-order stochastically dominates ``q``: the cdf of
    ``q`` lies weakly above the cdf of ``p`` on the union of supports, up to
    ``TIE_TOL``, absolute, as cdfs lie in [0, 1]."""
    ps, pm = _as_distribution(p)
    qs, qm = _as_distribution(q)
    grid = sorted(set(ps) | set(qs))
    for x in grid:
        cdf_p = sum(m for v, m in zip(ps, pm) if v <= x)
        cdf_q = sum(m for v, m in zip(qs, qm) if v <= x)
        if cdf_q < cdf_p - TIE_TOL:
            return False
    return True


def integrated_cdf(samples, points) -> np.ndarray:
    """E[(x - S)^+] of the empirical distribution of ``samples`` at ``points``."""
    s = np.sort(np.asarray(samples, dtype=float))
    pts = np.asarray(points, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(s)])
    idx = np.searchsorted(s, pts, side="right")
    return (pts * idx - cum[idx]) / len(s)


# Band of sosd_strict: integrated-cdf gaps and mean differences within it
# count as zero.
SOSD_TOL = 1e-6


def sosd_strict(f_samples, h_samples) -> bool:
    """True iff the first empirical distribution strictly second-order
    stochastically dominates the second.

    Checked through integrated cdfs on the merged support: the gap must never
    exceed ``SOSD_TOL`` in the wrong direction, must exceed it somewhere in
    the right direction, and the means must agree within ``SOSD_TOL``.
    Empty or non-finite samples raise ``ValueError``.
    """
    f = np.asarray(getattr(f_samples, "errors", f_samples), dtype=float)
    h = np.asarray(getattr(h_samples, "errors", h_samples), dtype=float)
    if f.size == 0 or h.size == 0:
        raise ValueError("distributions must be non-empty")
    if not (np.isfinite(f).all() and np.isfinite(h).all()):
        raise ValueError("distributions must be finite")
    if abs(f.mean() - h.mean()) > SOSD_TOL:
        return False
    # the distinct values, as np.unique gives them, whose first call imports numpy.ma
    merged = np.sort(np.concatenate([f, h]))
    grid = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
    gap = integrated_cdf(f, grid) - integrated_cdf(h, grid)
    if np.any(gap > SOSD_TOL):
        return False
    return bool(np.any(gap < -SOSD_TOL))


def mlr_shift(masses, weights) -> DistributionShift:
    """Tilt ``masses`` by ``weights`` (positive, non-decreasing in the value
    order) and renormalize; the shifted belief dominates the base in the
    monotone likelihood ratio order."""
    masses = Belief(masses).masses
    weights = tuple(float(w) for w in weights)
    if len(masses) != len(weights):
        raise AlignmentError("weights must align with masses")
    check_finite(weights, "weights")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be strictly positive")
    if any(b < a for a, b in zip(weights, weights[1:])):
        raise ValueError("weights must be non-decreasing in the value order")
    raw = [m * w for m, w in zip(masses, weights)]
    total = sum(raw)
    return DistributionShift(masses, weights, tuple(r / total for r in raw))


def capacity_profile(ladder: ValueLadder, n_max: int, kind: str) -> CapacityProfile:
    """W(N) for N = 1..n_max, with monotonicity and concavity flags, each
    increment compared within the ladder's ``tie_slack``."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    values = capacity_values(ladder, n_max, kind)
    inc = [b - a for a, b in zip(values, values[1:])]
    tol = _slack(ladder)
    if kind == UPPER:
        monotone = all(d <= tol for d in inc)
        concave = all(b >= a - tol for a, b in zip(inc, inc[1:]))
    else:
        monotone = all(d >= -tol for d in inc)
        concave = all(b <= a + tol for a, b in zip(inc, inc[1:]))
    return CapacityProfile(kind=kind, values=values, monotone=monotone, concave=concave)


def submodularity_gap(ladder: ValueLadder, interval, split: int) -> float:
    """Gain of the lower bound from splitting ``interval`` at ``split``:
    v(lo..split-1) + v(split..hi) - v(lo..hi), which is non-negative."""
    lo, hi = interval
    if not (lo < split <= hi):
        raise ValueError("split must be interior to the interval")
    parts = cell_value((lo, split - 1), ladder, LOWER) + cell_value((split, hi), ladder, LOWER)
    return parts - cell_value((lo, hi), ladder, LOWER)


def submodular_delta_holds(ladder: ValueLadder, outer, inner, split: int) -> bool:
    """Splitting gains weakly more on the wider interval (submodularity)."""
    gain_outer = submodularity_gap(ladder, outer, split)
    gain_inner = submodularity_gap(ladder, inner, split)
    return gain_outer >= gain_inner - _slack(ladder)


def supermodular_coarse_holds(ladder: ValueLadder, cuts_a, cuts_b) -> bool:
    """V(join) + V(meet) >= V(a) + V(b) for same-length cutoff vectors, where
    V is the lower-bound coarse value."""
    cuts_a, cuts_b = tuple(cuts_a), tuple(cuts_b)
    if len(cuts_a) != len(cuts_b):
        raise AlignmentError("cutoff vectors must have equal length")
    join = tuple(max(a, b) for a, b in zip(cuts_a, cuts_b))
    meet = tuple(min(a, b) for a, b in zip(cuts_a, cuts_b))
    val = lambda cuts: coarse_value(cuts, ladder, LOWER)
    return val(join) + val(meet) >= val(cuts_a) + val(cuts_b) - _slack(ladder)


def weakly_sandwiched(coarse: tuple, fine: tuple) -> bool:
    """fine interleaves below coarse: fine_i <= coarse_i <= fine_{i+1}."""
    if len(fine) != len(coarse) + 1:
        raise AlignmentError("sandwich compares capacities N and N+1")
    return all(
        fine[i] <= coarse[i] <= fine[i + 1] for i in range(len(coarse))
    )


def sandwich_check(ladder: ValueLadder, n: int) -> bool:
    """Every lower-bound optimum at capacity ``n`` has a weakly sandwiching
    optimum at ``n + 1``; both optimum sets come from one DP fill at
    ``n + 1``. Vacuously true when the ladder fits within ``n`` levels."""
    n = check_capacity(n)
    if len(ladder) <= n:
        return True
    opt_n, opt_n1 = optimum_sets(ladder, (n, n + 1), LOWER)
    fines = [fine for fine in opt_n1 if len(fine) == n]
    return all(
        any(weakly_sandwiched(coarse, fine) for fine in fines)
        for coarse in opt_n
        if len(coarse) == n - 1  # skip degenerate optima using fewer blocks
    )


def _sso_sets(high: tuple, low: tuple) -> bool:
    """Every join of a high and a low vector lies in ``high``, every meet in
    ``low``: the strong set order ``high >= low``."""
    high_valid, low_valid = set(high), set(low)
    return all(
        len(ch) == len(cl)
        and tuple(map(max, ch, cl)) in high_valid
        and tuple(map(min, ch, cl)) in low_valid
        for ch in high
        for cl in low
    )


def sso_monotone_in_interval(ladder: ValueLadder, n: int, i_low, i_high) -> bool:
    """Optimum sets of interval-restricted lower-bound problems are ordered
    in the strong set order when the intervals are; equal intervals read
    one set, from one DP fill."""
    lo1, hi1 = i_low
    lo2, hi2 = i_high
    if lo2 < lo1 or hi2 < hi1:
        raise PreconditionError("intervals must be ordered in the strong set order")
    high = optimum_set(ladder, n, LOWER, i_high)
    # bounds of one value and type pose one problem; the engine rejects a
    # float bound with a TypeError
    same = (lo1, hi1, type(lo1), type(hi1)) == (lo2, hi2, type(lo2), type(hi2))
    low = high if same else optimum_set(ladder, n, LOWER, i_low)
    return _sso_sets(high, low)


def nested_marginal_returns(ladder: ValueLadder, n: int, s, s_prime) -> bool:
    """Marginal lower-bound value of one more block is larger on the wider interval:
    W(n+1, s') - W(n, s') >= W(n+1, s) - W(n, s).

    Requires a weakly sandwiched pair of selections from the optimum sets of
    (n, s') and (n+1, s); raises PreconditionError when none exists.
    """
    (lo, hi), (lo_p, hi_p) = s, s_prime
    if lo_p > lo or hi_p < hi:
        raise PreconditionError("s must be contained in s_prime")
    n = check_capacity(n)
    # one fill per interval at n + 1 gives its optimum set and W(n), W(n + 1)
    wide = Fill(ladder, (n + 1,), LOWER, s_prime)
    opt_coarse = [c for c in wide.optimum_sets((n,))[0] if len(c) == n - 1]
    narrow = Fill(ladder, (n + 1,), LOWER, s)
    opt_fine = [c for c in narrow.optimum_sets((n + 1,))[0] if len(c) == n]
    if not any(weakly_sandwiched(c, f) for c in opt_coarse for f in opt_fine):
        raise PreconditionError("no sandwiched selections across the two problems")
    lhs, rhs = (fill.value(n + 1) - fill.value(n) for fill in (wide, narrow))
    return lhs >= rhs - _slack(ladder)


def mlr_cutoff_monotonicity(ladder: ValueLadder, shift: DistributionShift, n: int) -> bool:
    """Optimal lower-bound cutoffs shift up (strong set order) under an MLR
    improvement."""
    if len(shift.base) != len(ladder):
        raise AlignmentError("shift does not align with the ladder")
    opt_base = optimum_set(ValueLadder(ladder.levels, shift.base), n, LOWER)
    opt_shift = optimum_set(ValueLadder(ladder.levels, shift.shifted), n, LOWER)
    return _sso_sets(opt_shift, opt_base)


def increasing_differences_holds(ladder: ValueLadder, lo: int, hi_small: int, hi_big: int,
                                 cuts_hi, cuts_lo) -> bool:
    """Lower-bound coarse-value differences in the cutoff vector grow with the interval:
    V([lo, hi_big], C'') - V([lo, hi_big], C') >= same difference on [lo, hi_small],
    for vectors with the last cutoff of C'' at or above that of C'."""
    cuts_hi, cuts_lo = tuple(cuts_hi), tuple(cuts_lo)
    if len(cuts_hi) != len(cuts_lo):
        raise AlignmentError("cutoff vectors must have equal length")
    if cuts_hi and cuts_lo and cuts_hi[-1] < cuts_lo[-1]:
        raise PreconditionError("last cutoff of the high vector must be >=")
    if hi_small > hi_big:
        raise PreconditionError("hi_small must not exceed hi_big")

    def val(h: int, cuts: tuple) -> float:
        edges = [lo, *cuts, h + 1]
        total = 0.0
        for start, end in zip(edges, edges[1:]):
            total += cell_value((start, end - 1), ladder, LOWER)
        return total

    lhs = val(hi_big, cuts_hi) - val(hi_big, cuts_lo)
    rhs = val(hi_small, cuts_hi) - val(hi_small, cuts_lo)
    return lhs >= rhs - _slack(ladder)
