"""Portfolio tests: allocation, savings, and equilibrium prices for
capacity-limited versus unconstrained agents."""

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from coarse_bounds.errors import (
    AlignmentError, ConvergenceError, InvalidCapacityError, PreconditionError,
)
from coarse_bounds.applications import portfolio
from coarse_bounds.applications.crra import CRRAUtility
from coarse_bounds.applications.portfolio import (
    PortfolioProblem,
    allocation_objective,
    equilibrium_price,
    perceived_return_value,
    savings_objective,
    solve_allocation,
    solve_savings,
)
from util import count_layout_builds


def make_problem(gamma=2.0, capacity=3, attitude="cautious", seed=3, n_grid=40):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.7, 1.6, n_grid)
    w = rng.uniform(0.5, 1.0, size=n_grid)
    masses = (w / w.sum()).tolist()
    masses[int(np.argmax(masses))] += 1.0 - sum(masses)
    return PortfolioProblem(
        endowment=1.0, safe_return=1.02, risky_returns=grid.tolist(),
        risky_masses=masses, beta=1 / 1.02, utility=CRRAUtility(gamma),
        capacity=capacity, attitude=attitude,
    )


MAKE_PROBLEM_CASES = [
    (gamma, attitude, capacity)
    for gamma in (1.0, 2.0, 3.0)
    for attitude in ("cautious", "reckless")
    for capacity in (3, 40)
]


def sequential_golden_max(obj, lo, hi, tol):
    """Reference: the golden-section search as it was before it valued its
    next steps speculatively, with one ``obj`` call per point."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = obj(c), obj(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = obj(d)
    mid = 0.5 * (a + b)
    return mid, obj(mid)


def per_call_solve_allocation(problem, x):
    """Reference: solve_allocation as it was before its share grid was
    batched, with one allocation_objective call per grid share."""
    obj = lambda a: allocation_objective(problem, x, a)
    step = 1e-3
    grid = np.arange(0.0, 1.0 + 0.5 * step, step)
    grid[-1] = 1.0
    vals = [obj(a) for a in grid]
    i_best = int(np.argmax(vals))
    lo = grid[max(0, i_best - 1)]
    hi = grid[min(len(grid) - 1, i_best + 1)]
    refined = sequential_golden_max(obj, lo, hi, 1e-6)
    candidates = [(float(grid[i_best]), vals[i_best]), refined]
    best_val = max(v for _, v in candidates)
    return min(a for a, v in candidates if v >= best_val - 1e-15)


def nelder_mead_savings(problem):
    """Reference: the four-restart Nelder-Mead over (safe, risky) holdings
    that solve_savings ran before its homogeneity split; (total, value)."""
    from scipy.optimize import minimize

    w = problem.endowment
    neg = lambda z: -savings_objective(problem, z[0], z[1])
    best = min(
        (minimize(neg, np.array([fb * w, fs * w]), method="Nelder-Mead",
                  options={"xatol": 1e-9, "fatol": 1e-9, "maxiter": 4000})
         for fb, fs in ((0.2, 0.2), (0.4, 0.1), (0.1, 0.4), (0.3, 0.3))),
        key=lambda res: res.fun,
    )
    b, s = max(float(best.x[0]), 0.0), max(float(best.x[1]), 0.0)
    return b + s, savings_objective(problem, b, s)


@dataclass(frozen=True)
class ProbeUtility(CRRAUtility):
    """CRRA utility that records the first-state wealth of every act whose
    utilities it takes, and raises at the first-state wealths in ``fail_at``."""

    fail_at: frozenset = frozenset()
    seen: list = field(default_factory=list, compare=False)

    def apply(self, xs):
        self.seen.append(xs[0])
        if xs[0] in self.fail_at:
            raise ZeroDivisionError(f"probe fails at {xs[0]!r}")
        return super().apply(xs)


def outcome(call, *args):
    """``repr`` of what ``call(*args)`` returns, or the type and message of
    what it raises; ``repr`` tells NaN and the sign of zero apart."""
    try:
        return repr(call(*args))
    except Exception as err:  # any error: the caller compares type and message
        return type(err), str(err)


class TestProblemValidation:
    def test_safe_return_must_be_interior(self):
        with pytest.raises(PreconditionError):
            PortfolioProblem(1.0, 1.7, (0.8, 1.2), (0.5, 0.5), 0.9, CRRAUtility(2.0), 2)

    @pytest.mark.parametrize("endowment, beta, message", [
        (float("nan"), 0.9, "endowment must be positive"),
        (float("inf"), 0.9, "endowment must be positive and finite, got inf"),
        (1.0, float("nan"), "^beta must be non-negative and finite, got nan$"),
    ])
    def test_nan_rejected(self, endowment, beta, message):
        with pytest.raises(ValueError, match=message):
            PortfolioProblem(endowment, 1.0, (0.8, 1.2), (0.5, 0.5), beta, CRRAUtility(2.0), 2)

    def test_nan_risk_aversion_rejected(self):
        with pytest.raises(ValueError, match="relative risk aversion must be non-negative"):
            CRRAUtility(float("nan"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_return_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^risky_returns must be finite, got {bad!r}$"):
            PortfolioProblem(1.0, 1.0, (0.8, bad, 1.4), (0.3, 0.4, 0.3), 0.9, CRRAUtility(2.0), 2)

    @pytest.mark.parametrize("masses", [(1.0,), (0.25, 0.25, 0.25, 0.25)])
    def test_masses_must_match_returns(self, masses):
        message = f"^risky_masses must match risky_returns: {len(masses)} masses vs 3 returns$"
        with pytest.raises(AlignmentError, match=message):
            PortfolioProblem(1.0, 1.0, (0.8, 1.1, 1.4), masses, 0.9, CRRAUtility(2.0), 2)

    @pytest.mark.parametrize("gamma", [float("inf"), -1.0])
    def test_risk_aversion_must_be_finite_and_non_negative(self, gamma):
        message = f"^relative risk aversion must be non-negative and finite, got gamma={gamma!r}$"
        with pytest.raises(ValueError, match=message):
            CRRAUtility(gamma)

    def test_masses_validated(self):
        with pytest.raises(ValueError):
            PortfolioProblem(1.0, 1.0, (0.8, 1.2), (0.6, 0.6), 0.9, CRRAUtility(2.0), 2)

    @pytest.mark.parametrize("capacity", [0, -1, 2.5, 3.0, True, None, "3"])
    def test_bad_capacity_rejected_at_construction(self, capacity):
        message = f"^capacity must be a positive integer, got {re.escape(repr(capacity))}$"
        with pytest.raises(InvalidCapacityError, match=message):
            make_problem(capacity=capacity)
        with pytest.raises(InvalidCapacityError, match=message):
            replace(make_problem(), capacity=capacity)

    @pytest.mark.parametrize("attitude", ["bogus", "lower", None, 1])
    def test_bad_attitude_rejected_at_construction(self, attitude):
        message = f"^attitude must be 'cautious' or 'reckless', got {re.escape(repr(attitude))}$"
        with pytest.raises(ValueError, match=message):
            make_problem(attitude=attitude)
        with pytest.raises(ValueError, match=message):
            replace(make_problem(), attitude=attitude)

    def test_numpy_capacity_accepted(self):
        assert make_problem(capacity=np.int64(3)).capacity == 3


class TestAllocation:
    def test_degenerate_risky_ties_to_zero(self):
        prob = PortfolioProblem(
            endowment=1.0, safe_return=1.0, risky_returns=(0.999999, 1.0 + 1e-9),
            risky_masses=(0.5, 0.5), beta=0.95, utility=CRRAUtility(2.0), capacity=2,
        )
        # essentially flat objective: canonical tie-break returns zero
        assert solve_allocation(prob, 0.5) == pytest.approx(0.0, abs=2e-3)

    def test_constrained_allocates_more_safely(self):
        for gamma in (1.0, 2.0, 3.0):
            prob = make_problem(gamma=gamma)
            for x in (0.3, 0.6):
                a_n = solve_allocation(prob, x)
                a_inf = solve_allocation(replace(prob, capacity=prob.grid_size), x)
                assert a_n <= a_inf + 1e-6

    def test_reckless_mirror_documented_observation(self):
        prob = make_problem(gamma=3.0, attitude="reckless")
        a_n = solve_allocation(prob, 0.5)
        a_inf = solve_allocation(replace(prob, capacity=prob.grid_size), 0.5)
        # exploratory: a reckless constrained agent leans at least as risky
        assert a_n >= a_inf - 1e-6

    def test_objective_matches_engine_value(self):
        # cross-module oracle: the allocation objective is exactly the
        # engine's bound value of the induced return act
        from coarse_bounds.acts import Belief, DiscreteAct, build_ladder
        from coarse_bounds.engine import bound

        prob = make_problem(gamma=2.0)
        x, alpha = 0.5, 0.4
        val = allocation_objective(prob, x, alpha)
        act = DiscreteAct(
            prob.risky_returns,
            [prob.utility((1 - alpha) * x * prob.safe_return + alpha * x * r)
             for r in prob.risky_returns],
        )
        ladder = build_ladder(act, Belief(prob.risky_masses))
        assert val == bound(ladder, prob.capacity, "lower").value
        assert allocation_objective(replace(prob, capacity=prob.grid_size), x, alpha) >= val - 1e-12

    def test_overflowing_utility_fails_as_the_objective_does(self):
        # at savings 1e-200 the wealth^-2 of gamma = 3 overflows; such shares
        # go to allocation_objective, whose float wealth makes pow raise, and
        # the error names the wealth of the grid's first share, 0
        with pytest.raises(OverflowError) as raised:
            solve_allocation(make_problem(gamma=3.0), 1e-200)
        with pytest.raises(OverflowError) as direct:
            allocation_objective(make_problem(gamma=3.0), 1e-200, 0.0)
        assert str(raised.value) == str(direct.value)
        assert str(raised.value) == "CRRA utility with gamma=3.0 overflows at wealth 1.02e-200"

    def test_savings_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_allocation(make_problem(), 0.0)

    @pytest.mark.parametrize("x", [float("inf"), float("nan")])
    def test_savings_must_be_finite(self, x):
        with pytest.raises(ValueError, match=f"^savings must be positive and finite, got {x!r}$"):
            solve_allocation(make_problem(), x)


class TestPerceivedReturnValue:
    @pytest.mark.parametrize("payoff", [
        lambda r: r - 1.0,
        lambda r: r - 0.7,
        lambda r: 1.6 - r,
        lambda r: -0.0 * r,
    ], ids=["negative-low-returns", "zero-first-state", "zero-last-state", "zero-everywhere"])
    @pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
    def test_non_positive_wealth_is_minus_infinity(self, payoff, gamma):
        assert perceived_return_value(make_problem(gamma=gamma), payoff) == float("-inf")

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
    def test_nan_wealth_is_rejected_as_before(self, gamma):
        # NaN is not non-positive: its utility is NaN, which the act rejects
        prob = make_problem(gamma=gamma)
        payoff = lambda r: float("nan") if r > 1.0 else r
        with pytest.raises(ValueError, match="act values must be finite"):
            perceived_return_value(prob, payoff)

    def test_overflow_before_a_non_positive_state_propagates(self):
        # the per-state utility overflowed before it met the non-positive state
        prob = make_problem(gamma=3.0)
        with pytest.raises(OverflowError):
            perceived_return_value(prob, lambda r: 1e-200 if r < 1.0 else -1.0)
        assert perceived_return_value(prob, lambda r: -1.0 if r < 1.0 else 1e-200) == float("-inf")


class TestAllocationMatchesPerCallReference:
    """solve_allocation values its grid in batches; the share it returns
    equals the per-call reference's with ``==``. Each (gamma, attitude)
    case covers every capacity, and each capacity meets both savings levels
    across the two attitudes."""

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("attitude", ["cautious", "reckless"])
    def test_capacities(self, gamma, attitude):
        prob = make_problem(gamma=gamma, attitude=attitude)
        for i, capacity in enumerate((1, 2, 3, 8, 40)):
            x = (0.3, 1.0)[(i + (attitude == "reckless")) % 2]
            at_n = replace(prob, capacity=capacity)
            assert solve_allocation(at_n, x) == per_call_solve_allocation(at_n, x), (capacity, x)

    @pytest.mark.parametrize("attitude", ["cautious", "reckless"])
    def test_zero_mass_return_state(self, attitude):
        prob = make_problem(gamma=2.0, attitude=attitude)
        masses = list(prob.risky_masses)
        masses[0] += masses[17]
        masses[17] = 0.0
        prob = replace(prob, risky_masses=masses)
        for capacity, x in ((3, 0.3), (8, 1.0)):
            at_n = replace(prob, capacity=capacity)
            assert solve_allocation(at_n, x) == per_call_solve_allocation(at_n, x)

    def test_degenerate_two_returns(self):
        prob = PortfolioProblem(
            endowment=1.0, safe_return=1.0, risky_returns=(0.999999, 1.0 + 1e-9),
            risky_masses=(0.5, 0.5), beta=0.95, utility=CRRAUtility(2.0), capacity=2,
        )
        for x in (0.3, 1.0):
            assert solve_allocation(prob, x) == per_call_solve_allocation(prob, x)


def full_grid_solve_allocation(problem, x):
    """Reference: solve_allocation as it was before its grid was pruned,
    with every one of the 1001 shares valued by ``_grid_values``."""
    obj = lambda a: allocation_objective(problem, x, a)
    grid = share_grid()
    vals = portfolio._grid_values(problem, x, grid)
    i_best = int(np.argmax(vals))
    lo = float(grid[max(0, i_best - 1)])
    hi = float(grid[min(len(grid) - 1, i_best + 1)])
    refined = sequential_golden_max(obj, lo, hi, 1e-6)
    candidates = [(float(grid[i_best]), vals[i_best]), refined]
    best_val = max(v for _, v in candidates)
    return min(a for a, v in candidates if v >= best_val - 1e-15)


def share_grid():
    grid = np.arange(0.0, 1.0 + 0.5e-3, 1e-3)
    grid[-1] = 1.0
    return grid


def random_problem(rng):
    """A problem with 2-24 returns, some of them null states, a random
    capacity among 1, 2, 3, 8 and the grid size, gamma among 0, 0.5, 1, 2,
    3 and 7, and either attitude. One in eight has a non-positive lowest
    return, so high shares leave no wealth in that state."""
    size = int(rng.integers(2, 25))
    returns = np.sort(rng.uniform(0.5, 1.8, size))
    if rng.random() < 0.125:
        returns[0] = -rng.uniform(0.0, 0.3)
    masses = rng.uniform(0.1, 1.0, size) * (rng.random(size) > 0.2)
    masses[int(rng.integers(size))] += 0.5
    masses = (masses / masses.sum()).tolist()
    masses[int(np.argmax(masses))] += 1.0 - sum(masses)
    return PortfolioProblem(
        endowment=1.0,
        safe_return=float(rng.uniform(returns[0], returns[-1])),
        risky_returns=returns.tolist(), risky_masses=masses, beta=0.95,
        utility=CRRAUtility(float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 7.0]))),
        capacity=int(rng.choice([1, 2, 3, 8, size])),
        attitude=str(rng.choice(["cautious", "reckless"])),
    )


class TestPrunedGrid:
    """solve_allocation values exactly only the shares that a dominating
    envelope act does not prove worse than the best sampled share."""

    def test_random_problems_match_the_full_grid(self):
        rng = np.random.default_rng(20240515)
        for case in range(200):
            prob = random_problem(rng)
            x = float(10.0 ** rng.uniform(-3.0, np.log10(5.0)))
            assert solve_allocation(prob, x) == full_grid_solve_allocation(prob, x), (case, prob, x)

    def test_every_skipped_share_is_below_the_best_sample(self):
        rng = np.random.default_rng(7)
        grid = share_grid()
        sampled = set(range(0, len(grid), portfolio._PRUNE_BLOCK)) | {len(grid) - 1}
        checked = 0
        for _ in range(6):
            prob = random_problem(rng)
            x = float(rng.uniform(0.1, 2.0))
            vals = portfolio._pruned_grid_values(prob, x, grid)
            best = max(vals[i] for i in sampled)
            skipped = [i for i, v in enumerate(vals) if v == float("-inf") and i not in sampled]
            for i in skipped:
                assert allocation_objective(prob, x, float(grid[i])) < best, (prob, x, i)
            checked += len(skipped)
        assert checked > 0

    @pytest.mark.parametrize("gamma, capacity, attitude", [
        (1.0, 5, "cautious"), (2.0, 6, "reckless"), (3.0, 8, "cautious"), (3.0, 8, "reckless"),
    ])
    def test_second_level_skips_sub_blocks_of_kept_blocks(self, gamma, capacity, attitude):
        prob = make_problem(gamma=gamma, capacity=capacity, attitude=attitude)
        grid, x = share_grid(), 0.5
        sampled = set(range(0, len(grid), portfolio._PRUNE_BLOCK)) | {len(grid) - 1}
        vals = portfolio._pruned_grid_values(prob, x, grid)
        best = max(vals[i] for i in sampled)
        blocks = portfolio._dominated_blocks(prob, x, grid, best, portfolio._PRUNE_BLOCK)
        first = np.repeat(blocks, portfolio._PRUNE_BLOCK)[: len(grid)]
        assert not first.all()
        skipped = {i for i, v in enumerate(vals) if v == float("-inf") and i not in sampled}
        second = skipped - set(np.flatnonzero(first).tolist())
        # whole sub-blocks of kept blocks, bar their samples
        size = portfolio._PRUNE_SUB_BLOCK
        subs = {i // size for i in second}
        assert subs
        for sub in subs:
            assert set(range(sub * size, min((sub + 1) * size, len(grid)))) <= second | sampled
        for i in skipped:
            assert allocation_objective(prob, x, float(grid[i])) < best, i

    def test_pruned_values_are_the_full_grid_values_where_kept(self):
        prob = make_problem(gamma=2.0, capacity=3)
        grid = share_grid()
        pruned = portfolio._pruned_grid_values(prob, 0.5, grid)
        full = portfolio._grid_values(prob, 0.5, grid)
        kept = [i for i, v in enumerate(pruned) if v != float("-inf")]
        assert len(kept) < len(grid) / 2
        assert [pruned[i] for i in kept] == [full[i] for i in kept]
        assert int(np.argmax(pruned)) == int(np.argmax(full))

    def test_subnormal_savings_skip_no_block(self):
        # every share's wealth is below the smallest normal float, so no
        # envelope qualifies and every share is valued
        prob = make_problem(gamma=0.5)
        grid = share_grid()
        full = portfolio._grid_values(prob, 1e-310, grid)
        assert portfolio._pruned_grid_values(prob, 1e-310, grid) == full


# Each caller of the one valuation path: its holdings as (safe, rate, risky)
# and the wealth its scalar objective builds from them, in Python floats.
CALLERS = {
    "allocation": lambda p, a, x: (
        ((1.0 - a) * x, p.safe_return, a * x),
        [(1.0 - a) * x * p.safe_return + a * x * r for r in p.risky_returns],
    ),
    "savings": lambda p, b, s: (
        (b, p.safe_return, s), [p.safe_return * b + r * s for r in p.risky_returns],
    ),
    "price": lambda p, w, h: ((w, 1.0, h), [w + h * r for r in p.risky_returns]),
}


def hexed(value):
    return type(value), value.hex()


class TestOneValuationPath:
    """``_perceived_values`` of each caller's holdings equals
    ``[_wealth_value(problem, row) ...]`` on the wealth rows of the caller's
    scalar objective: the values by type and ``float.hex``, and the first
    error by type and message."""

    @staticmethod
    def holdings(rng, caller, count, overflow):
        """``count`` holdings of ``caller``: ordinary ones, ones that leave
        non-positive wealth, and ones whose wealth of about 1e10 is equal
        across the states or a few ulps apart, so that their levels merge by
        rounding (the log of 1e10 has coarser ulps); with ``overflow``, one
        of them overflows the power at gamma = 3."""
        out = []
        for kind in rng.choice(["plain", "plain", "non-positive", "merged"], count):
            if caller == "allocation":
                a, x = {"plain": (rng.uniform(0.0, 1.0), rng.uniform(0.1, 2.0)),
                        "non-positive": (rng.choice([-4.0, 6.0]), 1.0),
                        "merged": (rng.choice([0.0, 1e-17, 1e-13]), 1e10)}[kind]
            elif caller == "savings":
                a, x = {"plain": tuple(rng.uniform(0.0, 1.0, 2)),
                        "non-positive": (0.0, rng.choice([0.0, -1.0])),
                        "merged": (1e10, rng.choice([0.0, 1e-8, 1e-3]))}[kind]
            else:
                a, x = {"plain": (1.0, rng.uniform(1e-6, 1e-2)),
                        "non-positive": (1.0, -10.0),
                        "merged": (1e10, rng.choice([1e-8, 1e-3]))}[kind]
            out.append((float(a), float(x)))
        if overflow:  # wealth of about 1e-200, whose power overflows at gamma = 3
            out[int(rng.integers(count))] = {
                "allocation": (0.5, 1e-200), "savings": (1e-200, 1e-200),
                "price": (1e-200, 1e-201),
            }[caller]
        return out

    @staticmethod
    def outcomes(problem, caller, holdings):
        """(scalar outcome, batched outcome) of ``holdings``."""
        built = [CALLERS[caller](problem, *h) for h in holdings]
        try:
            scalar = [hexed(portfolio._wealth_value(problem, row)) for _, row in built]
        except Exception as err:  # any error: the test compares type and message
            scalar = type(err), str(err)
        safe, rate, risky = zip(*(holding for holding, _ in built))
        try:
            values = portfolio._perceived_values(problem, np.array(safe), rate[0], np.array(risky))
            batched = [hexed(v) for v in values]
        except Exception as err:
            batched = type(err), str(err)
        return scalar, batched

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_matches_the_scalar_valuation(self, caller):
        rng = np.random.default_rng(2026)
        merged = raised = 0
        for case in range(24):
            gamma = 3.0 if case % 4 == 1 else (0.5, 1.0, 2.0)[case % 3]
            prob = replace(random_problem(rng), utility=CRRAUtility(gamma))
            holdings = self.holdings(rng, caller, 150, case % 4 == 1)  # ladder rows among others
            if case % 4 == 3:  # a NaN row among the others
                holdings[int(rng.integers(150))] = (math.nan, 1.0)
            scalar, batched = self.outcomes(prob, caller, holdings)
            assert batched == scalar, (caller, case)
            raised += isinstance(scalar, tuple)
            for holding in holdings:
                row = CALLERS[caller](prob, *holding)[1]
                live = [w for w, m in zip(row, prob.belief.masses) if m > 0]
                if all(1e-100 < v < w for v, w in zip(live, live[1:])):
                    utils = prob.utility.apply(live)
                    merged += any(v >= w for v, w in zip(utils, utils[1:]))
        # the cases reach an error, and rows whose wealth ascends but whose
        # utilities merge by rounding
        assert raised and merged


def sequential_solve_savings(problem):
    """Reference: solve_savings as it was before its searches valued their
    next steps speculatively, with one objective call per point."""
    w = problem.endowment
    unit = lambda a: allocation_objective(problem, 1.0, a)
    share, _ = sequential_golden_max(unit, 0.0, 1.0, 1e-9)
    at_share = lambda t: savings_objective(problem, (1.0 - share) * t, share * t)
    total, _ = sequential_golden_max(at_share, 0.0, w, 1e-9)
    b, s = (1.0 - share) * total, share * total
    value = savings_objective(problem, b, s)
    h = 1e-6 * max(1.0, w)
    slopes = []
    for db, ds in ((h, 0.0), (0.0, h)):
        up = savings_objective(problem, b + db, s + ds)
        dn = savings_objective(problem, b - db, s - ds)
        if up != float("-inf") and dn != float("-inf"):
            slopes.append(abs(up - dn) / (2.0 * h))
    boundary = b < 1e-7 or s < 1e-7 or (w - b - s) < 1e-7
    residual = max(slopes) if slopes else float("nan")
    return portfolio.SavingsSolution(safe=b, risky=s, value=value, boundary=boundary,
                                     kkt_residual=residual)


def sequential_equilibrium_price(problem):
    """Reference: equilibrium_price as it was before it valued its step
    sizes in chunks, with one perceived value per halving."""
    w, beta, u = problem.endowment, problem.beta, problem.utility
    if beta <= 0:
        raise PreconditionError(f"equilibrium pricing needs a positive beta, got {beta!r}")
    marg = u.marginal(w)

    def estimate(h):
        v = perceived_return_value(problem, lambda r: w + h * r)
        if v == float("-inf"):
            raise PreconditionError("endowment too small for the return grid")
        return beta * (v - u(w)) / (h * marg)

    h = 1e-2
    prev = estimate(h)
    for _ in range(40):
        h *= 0.5
        cur = estimate(h)
        if abs(cur - prev) < 1e-7:
            return cur
        prev = cur
    raise ConvergenceError("difference quotient failed to converge")


def walk_objectives(rng):
    """Objectives for the golden-section walk: a smooth peak, plateaus with
    ties, a -inf region, NaN values and many local peaks."""
    m = float(rng.uniform(-0.5, 1.5))
    return [
        lambda p: -((p - m) ** 2),
        lambda p: float(math.floor(p * 23.0) % 4),
        lambda p: float("-inf") if p < m else -abs(p - m - 0.1),
        lambda p: float("nan") if p > m else p,
        lambda p: math.sin(40.0 * p),
    ]


def batched(obj, calls=None):
    """``obj`` as the list-valued objective that _golden_max takes."""
    def values(points):
        if calls is not None:
            calls.append(list(points))
        return [obj(p) for p in points]
    return values


def failing_at(obj, point):
    def fails(p):
        if p == point:
            raise ZeroDivisionError(f"objective fails at {p!r}")
        return obj(p)
    return fails


class TestSpeculativeSearches:
    """_golden_max values the next steps of its walk in one call, and
    equilibrium_price several step sizes in one call; each returns what the
    walk that values one point at a time returns, compared with ``repr``,
    and raises what it raises."""

    def test_walk_matches_the_sequential_walk(self):
        rng = np.random.default_rng(11)
        brackets = [(0.0, 1.0), (-0.5, 1.5), (0.2, 0.2 + 1e-3), (1.0, 0.0), (0.0, 1e-7)]
        for case in range(12):
            for obj in walk_objectives(rng):
                for lo, hi in brackets:
                    for tol in (1e-9, 1e-6, 1e-2):
                        calls = []
                        fast = portfolio._golden_max(batched(obj, calls), lo, hi, tol)
                        reached = []
                        slow = sequential_golden_max(
                            lambda p: reached.append(p) or obj(p), lo, hi, tol
                        )
                        assert repr(fast) == repr(slow), (case, lo, hi, tol)
                        # 2 + 7 + 7 + ... points, one call per 3 steps after the first 2
                        assert len(calls) == 1 + math.ceil((len(reached) - 2) / 3)

    def test_errors_raise_only_at_points_the_walk_reaches(self):
        obj = lambda p: -((p - 0.3) ** 2)
        reached, valued = [], []
        sequential_golden_max(lambda p: reached.append(p) or obj(p), 0.0, 1.0, 1e-6)
        portfolio._golden_max(lambda ps: valued.extend(ps) or [obj(p) for p in ps], 0.0, 1.0, 1e-6)
        ahead = [p for p in valued if p not in reached]
        assert len(ahead) > len(reached)
        for point in ahead[::7] + reached[:3] + reached[-3:]:
            fails = failing_at(obj, point)
            assert outcome(portfolio._golden_max, batched(fails), 0.0, 1.0, 1e-6) == outcome(
                sequential_golden_max, fails, 0.0, 1.0, 1e-6
            ), point
        fails = failing_at(obj, reached[-1])
        with pytest.raises(ZeroDivisionError):
            portfolio._golden_max(batched(fails), 0.0, 1.0, 1e-6)

    def test_allocation_refinement_matches(self):
        rng = np.random.default_rng(5)
        for case in range(30):
            prob = random_problem(rng)
            x = float(10.0 ** rng.uniform(-3.0, np.log10(5.0)))
            lo = float(rng.integers(0, 1000)) * 1e-3
            hi = min(1.0, lo + 2e-3)
            obj = lambda a: allocation_objective(prob, x, a)
            values = lambda shares: portfolio._grid_values(prob, x, shares)
            assert outcome(portfolio._golden_max, values, lo, hi, 1e-6) == outcome(
                sequential_golden_max, obj, lo, hi, 1e-6
            ), (case, prob, x)

    def test_savings_and_price_match(self):
        rng = np.random.default_rng(20261018)
        problems = [make_problem(gamma=g, capacity=40, attitude=a, seed=4)
                    for g in (0.5, 3.0) for a in ("cautious", "reckless")]
        for _ in range(36):
            prob = random_problem(rng)
            problems.append(replace(
                prob, beta=float(rng.choice([0.0, 0.5, 1 / 1.02])),
                endowment=float(10.0 ** rng.uniform(-2.0, 1.0)),
            ))
        for case, prob in enumerate(problems):
            assert outcome(solve_savings, prob) == outcome(
                sequential_solve_savings, prob
            ), (case, prob)
            assert outcome(equilibrium_price, prob) == outcome(
                sequential_equilibrium_price, prob
            ), (case, prob)

    @pytest.mark.parametrize("solve, reference", [
        (solve_savings, sequential_solve_savings),
        (equilibrium_price, sequential_equilibrium_price),
    ], ids=["savings", "price"])
    def test_problem_errors_raise_only_at_reached_points(self, solve, reference):
        prob = make_problem(gamma=2.0, capacity=3)
        probe = ProbeUtility(2.0)
        reference(replace(prob, utility=probe))
        reached = list(probe.seen)
        probe.seen.clear()
        solve(replace(prob, utility=probe))
        ahead = [w for w in probe.seen if w not in reached]
        assert ahead
        for wealth in ahead[:: max(1, len(ahead) // 6)] + reached[:2] + reached[-2:]:
            failing = replace(prob, utility=ProbeUtility(2.0, fail_at=frozenset({wealth})))
            assert outcome(solve, failing) == outcome(reference, failing), wealth


class StepBudgetExceeded(Exception):
    pass


def within_budget(call, budget):
    """``call`` that raises ``StepBudgetExceeded`` from its call past ``budget``."""
    count = [0]

    def counted(*args):
        count[0] += 1
        if count[0] > budget:
            raise StepBudgetExceeded(f"more than {budget} calls")
        return call(*args)

    return counted


class TestSearchesTerminate:
    """A golden-section bracket with large ends can stay wider than its
    tolerance for ever; the search then raises ``ConvergenceError`` naming
    the bracket, and it does so only where the one-point walk cycles. The
    steps are counted by wrapping the objective, not timed."""

    def test_walk_that_cannot_narrow_raises(self):
        obj = lambda p: -((p - 4.95e7) ** 2)
        with pytest.raises(StepBudgetExceeded):
            sequential_golden_max(within_budget(obj, 10_000), 0.0, 1e8, 1e-9)
        with pytest.raises(ConvergenceError, match=r"on \[0\.0, 100000000\.0\] cycles at the bracket \["):
            portfolio._golden_max(batched(within_budget(obj, 1000)), 0.0, 1e8, 1e-9)

    @pytest.mark.parametrize("endowment", [1e8, 1e300])
    def test_savings_at_a_large_endowment_raises(self, monkeypatch, endowment):
        monkeypatch.setattr(portfolio, "bound_values", within_budget(portfolio.bound_values, 500))
        prob = replace(make_problem(gamma=2.0, capacity=3), endowment=endowment)
        with pytest.raises(ConvergenceError, match="cycles at the bracket"):
            solve_savings(prob)

    def test_terminating_walks_are_unchanged(self):
        # brackets up to 1e7 wide, where the walk narrows to the tolerance
        rng = np.random.default_rng(8)
        for case in range(40):
            hi = float(10.0 ** rng.uniform(-3.0, 7.0))
            peak = float(rng.uniform(0.0, hi))
            obj = lambda p: -abs(p - peak)
            fast = portfolio._golden_max(batched(obj), 0.0, hi, 1e-9)
            slow = sequential_golden_max(within_budget(obj, 10_000), 0.0, hi, 1e-9)
            assert repr(fast) == repr(slow), (case, hi, peak)


class TestSavings:
    def test_zero_discount_zero_savings(self):
        prob = make_problem(gamma=2.0)
        prob = PortfolioProblem(
            endowment=1.0, safe_return=1.02, risky_returns=prob.risky_returns,
            risky_masses=prob.risky_masses, beta=0.0, utility=CRRAUtility(2.0),
            capacity=3,
        )
        sol = solve_savings(prob)
        assert sol.total < 1e-4
        assert sol.boundary

    def test_constrained_saves_more(self):
        for gamma in (1.0, 2.0, 3.0):
            prob = make_problem(gamma=gamma)
            s_n = solve_savings(prob)
            s_inf = solve_savings(replace(prob, capacity=prob.grid_size))
            assert s_n.total >= s_inf.total - 1e-6

    @pytest.mark.parametrize("gamma, attitude, capacity", MAKE_PROBLEM_CASES)
    def test_matches_nelder_mead_reference(self, gamma, attitude, capacity):
        prob = make_problem(gamma=gamma, capacity=capacity, attitude=attitude)
        sol = solve_savings(prob)
        total, value = nelder_mead_savings(prob)
        assert sol.total == pytest.approx(total, abs=1e-6)
        assert sol.value >= value - 1e-9

    @pytest.mark.parametrize("gamma, attitude, capacity", MAKE_PROBLEM_CASES)
    def test_share_independent_of_savings(self, gamma, attitude, capacity):
        # CRRA homogeneity: the savings share is the allocation share at any x
        prob = make_problem(gamma=gamma, capacity=capacity, attitude=attitude)
        sol = solve_savings(prob)
        for x in (0.3, 1.0):
            assert sol.risky / sol.total == pytest.approx(
                solve_allocation(prob, x), abs=1e-6
            )

    def test_interior_solution_kkt(self):
        prob = make_problem(gamma=3.0)
        sol = solve_savings(prob)
        if not sol.boundary:
            assert sol.kkt_residual <= 1e-6


class TestEquilibriumPrice:
    def test_full_capacity_matches_closed_form(self):
        prob = make_problem(gamma=2.0)
        expected = prob.beta * float(
            np.dot(prob.risky_returns, prob.risky_masses)
        )
        price = equilibrium_price(replace(prob, capacity=prob.grid_size))
        assert price == pytest.approx(expected, abs=1e-6)

    def test_cautious_price_increasing_in_capacity(self):
        prob = make_problem(gamma=2.0)
        prices = [equilibrium_price(replace(prob, capacity=n)) for n in (1, 2, 3, 5, 10, 40)]
        assert all(b >= a - 1e-9 for a, b in zip(prices, prices[1:]))
        assert prices[0] == pytest.approx(prob.beta * prob.risky_returns[0], abs=1e-6)

    def test_reckless_price_decreasing_in_capacity(self):
        prob = make_problem(gamma=2.0, attitude="reckless")
        prices = [equilibrium_price(replace(prob, capacity=n)) for n in (1, 2, 3, 5, 10, 40)]
        assert all(b <= a + 1e-9 for a, b in zip(prices, prices[1:]))
        assert prices[0] == pytest.approx(prob.beta * prob.risky_returns[-1], abs=1e-6)

    def test_deterministic(self):
        prob = make_problem(gamma=2.0)
        assert equilibrium_price(prob) == equilibrium_price(prob)


class TestOneMassLayout:
    """Every act a solver values has the problem's masses, so the one mass
    layout that ``engine.bound_values`` keeps serves all of its calls."""

    @pytest.mark.parametrize("solve", [
        lambda problem: solve_allocation(problem, 1.0), solve_savings, equilibrium_price,
    ], ids=["allocation", "savings", "price"])
    def test_a_solve_builds_one_layout(self, monkeypatch, solve):
        built = count_layout_builds(monkeypatch)
        problem = make_problem()
        solve(problem)
        assert built == [(problem._masses, len(problem._masses))]
        # another capacity has the same masses
        solve(replace(problem, capacity=5))
        assert len(built) == 1
