"""Two-period savings and portfolio choice with a capacity-limited agent.

The agent splits wealth between consumption, a safe asset, and a risky asset
whose return distribution lives on a finite grid. Continuation values use
the perceived (coarse-bound) valuation of the second-period utility act at the
problem's capacity; the unconstrained benchmark is the same code path on
``replace(problem, capacity=problem.grid_size)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import preferences
from ..acts import Belief, DiscreteAct, check_ascending
from ..engine import attitude_kind, bound_values, check_capacity
from ..errors import (
    AlignmentError, ConvergenceError, DegenerateBeliefError, NonPositiveWealthError,
    PreconditionError,
)
from .crra import CRRAUtility

NEG_INF = float("-inf")
_TINY = float(np.finfo(float).tiny)

# _pruned_grid_values samples and bounds its share grid in blocks of this
# many consecutive shares, and then the shares of the blocks it keeps in
# sub-blocks of _PRUNE_SUB_BLOCK, a divisor of _PRUNE_BLOCK.
_PRUNE_BLOCK = 16
_PRUNE_SUB_BLOCK = 4
# Ulps by which an envelope's utilities are raised. pow and log err by under
# 1 ulp and the division by 1 - gamma by half of one, so each computed
# utility lies within 1.5 * 2^-52 of its exact value, relative. Exact
# utility increases with wealth, so a share's utility exceeds its
# envelope's by under 3 * 2^-52 of it: at most 6 ulps, and 8 leave room.
_PAD_ULPS = 8
# Relative margin, floored at 1, by which a block's envelope bound must lie
# below the bar for the block to be skipped: it covers a share whose levels
# merge by rounding, which the envelope need not bound bit for bit.
PRUNE_MARGIN = 1e-12
# _golden_max values the points of this many steps ahead, over every
# branch, in one call.
_GOLDEN_DEPTH = 3
# equilibrium_price values its difference quotients this many step sizes at
# a time.
_PRICE_CHUNK = 8
# the share of a golden-section bracket that each interior point keeps
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PortfolioProblem:
    """Endowment, safe gross return, discretized risky return, and tastes."""

    endowment: float
    safe_return: float
    risky_returns: tuple
    risky_masses: tuple
    beta: float
    utility: CRRAUtility
    capacity: int
    attitude: str = "cautious"
    belief: Belief = field(init=False, repr=False, compare=False)
    # the returns as an array, which states have positive mass and their
    # masses, and the bound kind of the attitude
    _returns: np.ndarray = field(init=False, repr=False, compare=False)
    _live: np.ndarray = field(init=False, repr=False, compare=False)
    _masses: tuple = field(init=False, repr=False, compare=False)
    _kind: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        returns = tuple(float(r) for r in self.risky_returns)
        object.__setattr__(self, "risky_returns", returns)
        object.__setattr__(self, "risky_masses", tuple(float(m) for m in self.risky_masses))
        try:
            belief = Belief(self.risky_masses)
        except (ValueError, DegenerateBeliefError) as err:
            raise type(err)(f"risky_masses: {err}") from None
        object.__setattr__(self, "belief", belief)
        if len(self.risky_masses) != len(returns):
            raise AlignmentError(
                f"risky_masses must match risky_returns: "
                f"{len(self.risky_masses)} masses vs {len(returns)} returns"
            )
        check_ascending(returns, "risky_returns")
        if not returns[0] < self.safe_return < returns[-1]:
            raise PreconditionError(
                f"safe_return must lie strictly inside the risky_returns support, "
                f"got {self.safe_return!r}"
            )
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be non-negative and finite, got {self.beta!r}")
        if not 0 < self.endowment < math.inf:
            raise ValueError(f"endowment must be positive and finite, got {self.endowment!r}")
        check_capacity(self.capacity)
        object.__setattr__(self, "_kind", attitude_kind(self.attitude))
        object.__setattr__(self, "_returns", np.array(returns))
        object.__setattr__(self, "_live", np.array(belief.masses) > 0.0)
        object.__setattr__(self, "_masses", tuple(m for m in belief.masses if m > 0.0))

    @property
    def grid_size(self) -> int:
        return len(self.risky_returns)


def perceived_return_value(problem: PortfolioProblem, payoff) -> float:
    """Perceived value of the act r -> payoff(r); -inf when any second-period
    wealth is non-positive."""
    return _wealth_value(problem, [payoff(r) for r in problem.risky_returns])


def _wealth_value(problem: PortfolioProblem, wealth: list) -> float:
    """Perceived value of the act whose payoff in return state i is
    ``wealth[i]``; -inf when any of it is non-positive."""
    try:
        values = problem.utility.apply(wealth)
    except NonPositiveWealthError:
        return NEG_INF
    act = DiscreteAct(problem.risky_returns, values)
    return preferences.value(act, problem.belief, problem.capacity, problem.attitude)


def allocation_objective(problem: PortfolioProblem, x: float, alpha: float) -> float:
    """Perceived second-period utility when fraction alpha of savings x is risky."""
    rb = problem.safe_return
    return perceived_return_value(problem, lambda r: (1.0 - alpha) * x * rb + alpha * x * r)


# Spacing of solve_allocation's grid of risky shares, a search step.
SHARE_STEP = 1e-3
# Bracket width at which solve_allocation's golden-section refinement stops.
SHARE_TOL = 1e-6
# Absolute slack under which solve_allocation counts a share's value as tied
# with the best, so that the smaller share wins: values are utilities of
# order 1, where it is some ulps.
SHARE_TIE_TOL = 1e-15


def solve_allocation(problem: PortfolioProblem, x: float) -> float:
    """Optimal risky share in [0, 1] for fixed savings ``x``.

    Grid search at step ``SHARE_STEP`` followed by golden-section refinement
    to ``SHARE_TOL``; ties within ``SHARE_TIE_TOL`` resolve to the smallest
    share. Savings whose wealth overflows at share 0 or 1 raise
    ``OverflowError``.
    """
    if not 0 < x < math.inf:
        raise ValueError(f"savings must be positive and finite, got {x!r}")
    # every share's wealth lies between the wealth of shares 0 and 1
    if not math.isfinite(x * max(map(abs, (problem.safe_return, *problem.risky_returns)))):
        raise OverflowError(f"savings {x!r} overflow the second-period wealth")
    grid = np.arange(0.0, 1.0 + 0.5 * SHARE_STEP, SHARE_STEP)
    grid[-1] = 1.0
    vals = _pruned_grid_values(problem, x, grid)
    i_best = int(np.argmax(vals))
    lo = float(grid[max(0, i_best - 1)])
    hi = float(grid[min(len(grid) - 1, i_best + 1)])
    refined = _golden_max(lambda shares: _grid_values(problem, x, shares), lo, hi, SHARE_TOL)
    candidates = [(float(grid[i_best]), vals[i_best]), refined]
    best_val = max(v for _, v in candidates)
    return min(a for a, v in candidates if v >= best_val - SHARE_TIE_TOL)


def _pruned_grid_values(problem: PortfolioProblem, x: float, shares) -> list:
    """``_grid_values(problem, x, shares)`` with -inf for the shares of every
    block that :func:`_dominated_blocks` proves worse than a sampled share,
    so the argmax and its value are the same.

    The first share of each block of ``_PRUNE_BLOCK`` and the last share
    are valued first, and their best value is the bar. The blocks are
    bounded against it, and then the shares of the blocks kept, in
    sub-blocks of ``_PRUNE_SUB_BLOCK``; every kept block but the last holds
    ``_PRUNE_BLOCK`` shares, so no sub-block spans two blocks. The shares
    of the sub-blocks kept are then valued in grid order. A share that
    could raise is never skipped and the samples are valued first, so when a
    sample raises the whole grid is valued, in grid order, to raise the
    grid's first error.
    """
    firsts = np.arange(0, len(shares), _PRUNE_BLOCK)
    sampled = np.append(firsts[firsts < len(shares) - 1], len(shares) - 1)
    try:
        sample_vals = _grid_values(problem, x, shares[sampled])
    except (ArithmeticError, ValueError):
        # what a share's own wealth can raise; other errors do not depend on
        # the share, and both passes value share 0 first
        return _grid_values(problem, x, shares)
    best = float(np.max(sample_vals))
    rest = np.ones(len(shares), dtype=bool)
    for size in (_PRUNE_BLOCK, _PRUNE_SUB_BLOCK):
        kept = np.flatnonzero(rest)
        skip = _dominated_blocks(problem, x, shares[kept], best, size)
        rest[kept] = ~np.repeat(skip, size)[: len(kept)]
    vals = np.full(len(shares), NEG_INF)
    vals[sampled] = sample_vals
    rest[sampled] = False
    vals[rest] = _grid_values(problem, x, shares[rest])
    return vals.tolist()


def _dominated_blocks(problem: PortfolioProblem, x: float, shares, best: float, size: int):
    """Which blocks of ``size`` consecutive ``shares`` hold no share whose
    ``allocation_objective`` reaches ``best``.

    A block's envelope act pays, in each state, the largest wealth of its
    shares (the wealth of :func:`_grid_values`, bit for bit) with its
    utility raised by ``_PAD_ULPS``, so it pays at least every share's
    utility. The bound DP is monotone in the levels (non-negative widths
    times levels, sums, and maxima or minima), so the envelope's value is at
    least the value of every share whose row is batched, bit for bit; a
    share whose levels merge by rounding is covered by ``PRUNE_MARGIN``. A
    block may be skipped only when its envelope's levels are finite and
    strictly ascending on the positive-mass returns, its smallest wealth
    less 2^-49 of itself is a positive normal float with finite utilities
    (so none of its shares is valued -inf or raises), and its bound lies
    below ``best`` by the margin. Nothing is skipped unless ``best`` and
    every bound are finite.
    """
    skip = np.zeros(-(-len(shares) // size), dtype=bool)
    if not math.isfinite(best) or not len(shares):
        return skip
    wealth = _wealth(problem, (1.0 - shares) * x, problem.safe_return, shares * x)
    firsts = np.arange(0, len(wealth), size)
    top = np.maximum.reduceat(wealth, firsts)
    floor = np.minimum.reduceat(wealth, firsts) * (1.0 - 2.0**-49)
    del wealth  # every share's row; freed before the envelopes are valued
    blocks = np.flatnonzero(np.isfinite(top).all(axis=1) & (floor >= _TINY).all(axis=1))
    if not len(blocks):
        return skip
    upper = _utilities(problem, top[blocks])
    for _ in range(_PAD_ULPS):
        upper = np.nextafter(upper, np.inf)
    levels, ok = _ladder_rows(problem, upper)
    ok &= np.isfinite(_utilities(problem, floor[blocks])).all(axis=1)
    if not ok.any():
        return skip
    bounds = bound_values(levels[ok], problem._masses, problem.capacity, problem._kind)
    if np.isfinite(bounds).all():
        skip[blocks[ok]] = bounds < best - PRUNE_MARGIN * max(1.0, abs(best))
    return skip


def _grid_values(problem: PortfolioProblem, x: float, shares) -> list:
    """``allocation_objective(problem, x, a)`` for every share ``a``, bit for bit:
    :func:`_perceived_values` of the holdings ``((1 - a) * x, a * x)``."""
    shares = np.asarray(shares, dtype=float)
    return _perceived_values(problem, (1.0 - shares) * x, problem.safe_return, shares * x)


def _wealth(problem: PortfolioProblem, safe, rate, risky) -> np.ndarray:
    """Wealth rows ``safe[i] * rate + risky[i] * r`` over the returns ``r``,
    by the scalar objectives' IEEE operations: allocation holds
    ``((1 - a) * x, rb, a * x)``, savings ``(b, rb, s)`` and the price
    ``(w, 1.0, h)``, where ``w * 1.0`` is ``w``. An overflow is inf, as in
    Python floats, and warns of nothing. The sum is taken in place, so the
    rows take one array's memory at a time."""
    with np.errstate(over="ignore", invalid="ignore"):
        wealth = risky[:, None] * problem._returns
        return np.add(safe[:, None] * rate, wealth, out=wealth)


def _utilities(problem: PortfolioProblem, rows: np.ndarray) -> np.ndarray:
    """The utilities of each row, by one ``CRRAUtility.apply`` pass over its
    Python floats, with NaN for a row whose pass raises (non-positive
    wealth, or a power that overflows)."""
    utils = np.empty(rows.shape)
    for i, row in enumerate(rows):
        try:
            utils[i] = problem.utility.apply(row.tolist())
        except (NonPositiveWealthError, OverflowError):
            utils[i] = np.nan
    return utils


def _ladder_rows(problem: PortfolioProblem, utils):
    """``(levels, ok)``: each row's utilities on the positive-mass returns,
    and whether the row is finite and strictly ascending there, so that its
    levels and the positive masses are a ladder as they are."""
    levels = utils[:, problem._live]
    return levels, np.isfinite(utils).all(axis=1) & (levels[:, :-1] < levels[:, 1:]).all(axis=1)


def _perceived_values(problem: PortfolioProblem, safe, rate, risky) -> list:
    """``[_wealth_value(problem, row) for row in wealth]`` over the rows of
    :func:`_wealth`, bit for bit. The rows whose utilities are a ladder as
    they are (:func:`_ladder_rows`) are valued in one ``bound_values`` call,
    which cannot raise on them: their levels are finite and strictly
    ascending, their masses a ``Belief``'s positive masses, and the capacity
    and attitude were checked when the problem was built. Every other row
    (non-positive or NaN wealth, levels merged by rounding, a power that
    overflows) then takes ``_wealth_value`` itself, in row order, so its
    -inf or the first error is unchanged."""
    wealth = _wealth(problem, safe, rate, risky)
    levels, ok = _ladder_rows(problem, _utilities(problem, wealth))
    vals = np.empty(len(wealth))
    if ok.any():
        vals[ok] = bound_values(levels[ok], problem._masses, problem.capacity, problem._kind)
    for i in np.flatnonzero(~ok):
        vals[i] = _wealth_value(problem, wealth[i].tolist())
    return vals.tolist()


def _look_ahead(values, points: dict):
    """``at(key)``: the objective's value at ``points[key]``, with every
    point valued in one ``values(list of points)`` call.

    The caller may not reach every point, so when that call raises, each
    point is valued alone when the caller asks for it: a point's error is
    raised only if the caller reaches the point, and in the caller's order.
    """
    try:
        return dict(zip(points, values(list(points.values())))).__getitem__
    except Exception:  # whatever it was, the reached point's own call raises it again
        return lambda key: values([points[key]])[0]


def _golden_step(a: float, b: float, c: float, d: float, keep_left: bool, tol: float):
    """One valuation of the golden-section walk on the bracket [a, b] with
    interior points c < d: ``(bracket, point)``. While the bracket is wider
    than ``tol``, the walk keeps [a, d] (``keep_left``, when c's value is
    at least d's) or [c, b] and values one new interior point; then it
    values the midpoint and stops, and the bracket is None.
    """
    if not b - a > tol:
        return None, 0.5 * (a + b)
    if keep_left:
        b, d = d, c
        c = b - _PHI * (b - a)
        return (a, b, c, d), c
    a, c = c, d
    d = a + _PHI * (b - a)
    return (a, b, c, d), d


def _golden_max(values, lo: float, hi: float, tol: float):
    """Golden-section search for the maximum of a unimodal objective on
    [lo, hi], to a bracket of ``tol``: ``(midpoint, value)``.

    ``values(points)`` is the objective at each of a list of points. Each
    step compares the values at the two interior points and values one new
    point on the side it keeps, so the points of the next ``_GOLDEN_DEPTH``
    steps, 2^depth - 1 over all branches, follow from the bracket. They are
    computed with the walk's own float expressions (:func:`_golden_step`)
    and valued in one call (:func:`_look_ahead`), and the walk then takes
    its comparisons against them. So the points it visits, their values,
    its result and its errors are those of a walk that values one point at
    a time.

    Rounding can keep a bracket with large ends wider than ``tol`` for
    ever. The walk's state after a step is its bracket and which part it
    keeps next, and the values at the interior points follow from the
    bracket, so a state that repeats repeats for ever: the search then
    raises :class:`ConvergenceError` naming the bracket, and at no other
    time.
    """
    a, b = lo, hi
    c = b - _PHI * (b - a)
    d = a + _PHI * (b - a)
    at = _look_ahead(values, {0: c, 1: d})
    fc, fd = at(0), at(1)
    bracket, keep_left = (a, b, c, d), fc >= fd
    seen = {(bracket, keep_left)}
    while True:
        # the next valuations as a heap: node k leads to node 2k + 1 when
        # the walk then keeps the left part, else to node 2k + 2
        nodes = {0: _golden_step(*bracket, keep_left, tol)}
        for k in range(2 ** (_GOLDEN_DEPTH - 1) - 1):
            if k in nodes and nodes[k][0]:
                for child, left in ((2 * k + 1, True), (2 * k + 2, False)):
                    nodes[child] = _golden_step(*nodes[k][0], left, tol)
        at = _look_ahead(values, {k: point for k, (_, point) in nodes.items()})
        k = 0
        while k in nodes:
            bracket, point = nodes[k]
            value = at(k)
            if bracket is None:
                return point, value
            fc, fd = (value, fc) if keep_left else (fd, value)
            keep_left = fc >= fd
            if (bracket, keep_left) in seen:
                raise ConvergenceError(
                    f"golden-section search on [{lo!r}, {hi!r}] cycles at the bracket "
                    f"[{bracket[0]!r}, {bracket[1]!r}], wider than {tol!r}"
                )
            seen.add((bracket, keep_left))
            k = 2 * k + (1 if keep_left else 2)


def savings_objective(problem: PortfolioProblem, b: float, s: float) -> float:
    """u(consumption) + beta * perceived utility of the portfolio payoff."""
    w, rb = problem.endowment, problem.safe_return
    cons = w - b - s
    if cons <= 0 or b < 0 or s < 0:
        return NEG_INF
    if problem.beta == 0.0:
        return problem.utility(cons)
    # an infeasible payoff's -inf value carries through the positive beta
    inner = perceived_return_value(problem, lambda r: rb * b + r * s)
    return problem.utility(cons) + problem.beta * inner


def _savings_values(problem: PortfolioProblem, holdings: list) -> list:
    """``savings_objective(problem, b, s)`` for every ``(b, s)`` of
    ``holdings``, bit for bit: the payoffs ``rb * b + r * s`` that it values
    are valued by one :func:`_perceived_values` call of the holdings. A
    holding that values no payoff takes ``savings_objective`` itself.
    """
    w = problem.endowment
    priced = [
        not (w - b - s <= 0 or b < 0 or s < 0) and problem.beta != 0.0 for b, s in holdings
    ]
    inner = iter(())
    if any(priced):
        safe, risky = np.array([bs for bs, p in zip(holdings, priced) if p]).T
        inner = iter(_perceived_values(problem, safe, problem.safe_return, risky))
    return [
        problem.utility(w - b - s) + problem.beta * next(inner) if p
        else savings_objective(problem, b, s)
        for (b, s), p in zip(holdings, priced)
    ]


@dataclass(frozen=True)
class SavingsSolution:
    safe: float
    risky: float
    value: float
    boundary: bool
    kkt_residual: float

    @property
    def total(self) -> float:
        return self.safe + self.risky


# Bracket width at which solve_savings' golden-section searches, of the risky
# share and of total savings, stop.
SAVINGS_TOL = 1e-9
# Step, relative to wealth floored at 1, of the central differences whose
# largest slope is the savings solution's KKT residual.
KKT_STEP = 1e-6
# A holding or consumption within this of zero puts the savings solution on
# the boundary: a hundred times the searches' bracket width.
BOUNDARY_TOL = 1e-7


def solve_savings(problem: PortfolioProblem) -> SavingsSolution:
    """Maximize the two-period objective over (safe, risky) holdings.

    CRRA utility is homogeneous: at total savings t the portfolio payoff's
    utility act is t^(1-gamma) times its value at t = 1 (shifted by log t
    when gamma = 1), and so is its perceived value. The optimal risky share
    therefore does not depend on t. It is found by a golden-section search
    at unit savings, and total savings by a second one at that share, each
    to ``SAVINGS_TOL``.
    """
    w = problem.endowment
    share, _ = _golden_max(lambda shares: _grid_values(problem, 1.0, shares), 0.0, 1.0, SAVINGS_TOL)
    at_share = lambda totals: _savings_values(
        problem, [((1.0 - share) * t, share * t) for t in totals]
    )
    total, _ = _golden_max(at_share, 0.0, w, SAVINGS_TOL)
    b, s = (1.0 - share) * total, share * total
    value = savings_objective(problem, b, s)
    h = KKT_STEP * max(1.0, w)
    slopes = []
    for db, ds in ((h, 0.0), (0.0, h)):
        up = savings_objective(problem, b + db, s + ds)
        dn = savings_objective(problem, b - db, s - ds)
        if up != NEG_INF and dn != NEG_INF:
            slopes.append(abs(up - dn) / (2.0 * h))
    boundary = b < BOUNDARY_TOL or s < BOUNDARY_TOL or (w - b - s) < BOUNDARY_TOL
    residual = max(slopes) if slopes else float("nan")
    return SavingsSolution(safe=b, risky=s, value=value, boundary=boundary,
                           kkt_residual=residual)


# equilibrium_price's difference quotient starts from step PRICE_STEP, a
# search step, and halves it up to PRICE_HALVINGS times; it stops when two
# successive quotients agree within PRICE_TOL.
PRICE_STEP = 1e-2
PRICE_HALVINGS = 40
PRICE_TOL = 1e-7


def equilibrium_price(problem: PortfolioProblem) -> float:
    """Zero-net-supply price of the risky asset.

    The safe-asset first-order condition pins the safe return at 1/beta, and
    the price equals the marginal perceived value of an infinitesimal risky
    position at the per-period endowment, in units of first-period marginal
    utility. Computed as a one-sided difference quotient from step
    ``PRICE_STEP``, halved up to ``PRICE_HALVINGS`` times until successive
    estimates agree within ``PRICE_TOL``.
    """
    w, beta, u = problem.endowment, problem.beta, problem.utility
    if beta <= 0:
        raise PreconditionError(f"equilibrium pricing needs a positive beta, got {beta!r}")
    try:
        marg = u.marginal(w)
    except OverflowError:
        raise FloatingPointError(f"endowment {w!r} overflows the marginal utility") from None
    if marg == 0.0:
        raise FloatingPointError(f"endowment {w!r} underflows the marginal utility")

    def estimate(h: float, v: float) -> float:
        if v == NEG_INF:
            raise PreconditionError("endowment too small for the return grid")
        return beta * (v - u(w)) / (h * marg)

    def act_values(steps):
        return _perceived_values(problem, np.full(len(steps), w), 1.0, np.array(steps))

    # the steps depend on no estimate, so they are valued _PRICE_CHUNK at a time
    steps = [PRICE_STEP]
    for _ in range(PRICE_HALVINGS):
        steps.append(steps[-1] * 0.5)
    prev = None
    for start in range(0, len(steps), _PRICE_CHUNK):
        chunk = dict(enumerate(steps[start : start + _PRICE_CHUNK], start))
        at = _look_ahead(act_values, chunk)
        for k, h in chunk.items():
            cur = estimate(h, at(k))
            if prev is not None and abs(cur - prev) < PRICE_TOL:
                return cur
            prev = cur
    raise ConvergenceError("difference quotient failed to converge")
