"""Portfolio tests: allocation, savings, and equilibrium prices for
capacity-limited versus unconstrained agents."""

from dataclasses import replace

import numpy as np
import pytest

from coarse_bounds.errors import PreconditionError
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
    refined = portfolio._golden_max(obj, lo, hi, 1e-6)
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


class TestProblemValidation:
    def test_safe_return_must_be_interior(self):
        with pytest.raises(PreconditionError):
            PortfolioProblem(1.0, 1.7, (0.8, 1.2), (0.5, 0.5), 0.9, CRRAUtility(2.0), 2)

    @pytest.mark.parametrize("endowment, beta, message", [
        (float("nan"), 0.9, "endowment must be positive"),
        (float("inf"), 0.9, "endowment must be positive and finite, got inf"),
        (1.0, float("nan"), "discount factor must be non-negative"),
    ])
    def test_nan_rejected(self, endowment, beta, message):
        with pytest.raises(ValueError, match=message):
            PortfolioProblem(endowment, 1.0, (0.8, 1.2), (0.5, 0.5), beta, CRRAUtility(2.0), 2)

    def test_nan_risk_aversion_rejected(self):
        with pytest.raises(ValueError, match="relative risk aversion must be non-negative"):
            CRRAUtility(float("nan"))

    def test_masses_validated(self):
        with pytest.raises(ValueError):
            PortfolioProblem(1.0, 1.0, (0.8, 1.2), (0.6, 0.6), 0.9, CRRAUtility(2.0), 2)


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
        # go to allocation_objective, whose float wealth makes pow raise
        with pytest.raises(OverflowError) as raised:
            solve_allocation(make_problem(gamma=3.0), 1e-200)
        with pytest.raises(OverflowError) as direct:
            allocation_objective(make_problem(gamma=3.0), 1e-200, 0.001)
        assert str(raised.value) == str(direct.value)

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
    refined = portfolio._golden_max(obj, lo, hi, 1e-6)
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

    def test_pruned_values_are_the_full_grid_values_where_kept(self):
        prob = make_problem(gamma=2.0, capacity=3)
        grid = share_grid()
        pruned = portfolio._pruned_grid_values(prob, 0.5, grid)
        full = portfolio._grid_values(prob, 0.5, grid)
        kept = [i for i, v in enumerate(pruned) if v != float("-inf")]
        assert len(kept) < len(grid) / 2
        assert [pruned[i] for i in kept] == [full[i] for i in kept]
        assert int(np.argmax(pruned)) == int(np.argmax(full))


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
