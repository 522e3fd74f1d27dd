"""Contracting tests: best responses, contract simplification for cautious
agents, and the bait construction against reckless agents."""

import math

import numpy as np
import pytest

from coarse_bounds import engine, preferences
from coarse_bounds.acts import build_ladder
from coarse_bounds.engine import Fill
from coarse_bounds.errors import InfeasibleConstructionError, PreconditionError
from coarse_bounds.applications.contracts import (
    ContractingProblem,
    agent_value,
    bait_feasibility_bound,
    best_response_effort,
    principal_value,
    reckless_bait,
    simplify_contract,
    utility_act,
)


def make_problem(n_outputs=20, mid_cost=0.18, high_cost=0.42):
    outputs = np.linspace(0.5, 4.0, n_outputs)

    def tilt(lam):
        w = np.exp(lam * np.linspace(0.0, 1.0, n_outputs))
        return tuple((w / w.sum()).tolist())

    costs = {"low": 0.0, "mid": mid_cost, "high": high_cost}
    return ContractingProblem(
        outputs=tuple(outputs.tolist()),
        efforts=("low", "mid", "high"),
        output_masses=(tilt(-1.0), tilt(0.8), tilt(2.0)),
        agent_utility=lambda wage, effort: float(np.sqrt(max(wage, 1e-12))) - costs[effort],
        principal_utility=lambda output, wage: output - wage,
        wage_grid=tuple(np.linspace(0.05, 3.0, 60).tolist()),
    )


PROBLEM = make_problem()


class TestBestResponse:
    def test_single_effort(self):
        prob = ContractingProblem(
            outputs=(1.0, 2.0), efforts=("only",), output_masses=((0.5, 0.5),),
            agent_utility=lambda w, e: w, principal_utility=lambda o, w: o - w,
            wage_grid=(0.1, 0.5),
        )
        assert best_response_effort(prob, (0.1, 0.5), "cautious", 2) == "only"

    def test_constant_wage_picks_cheapest_effort(self):
        schedule = [1.0] * 20
        assert best_response_effort(PROBLEM, schedule, "cautious", 3) == "low"

    def test_three_effort_fixture_hand_solved(self):
        schedule = np.linspace(0.1, 2.8, 20).tolist()
        scores = {
            e: agent_value(PROBLEM, schedule, e, 3, "cautious")
            for e in PROBLEM.efforts
        }
        assert best_response_effort(PROBLEM, schedule, "cautious", 3) == max(
            scores, key=scores.get
        )

    def test_tie_break_prefers_principal(self):
        # flat wages make all efforts equal for the agent up to costs; with
        # zero costs everywhere the principal's preferred effort wins
        prob = make_problem(mid_cost=0.0, high_cost=0.0)
        schedule = [1.0] * 20
        choice = best_response_effort(prob, schedule, "cautious", 3)
        payoffs = {e: principal_value(prob, schedule, e) for e in prob.efforts}
        assert choice == max(payoffs, key=payoffs.get)


class TestSimplify:
    def test_already_simple_schedule_is_fixed_point(self):
        schedule = [0.5] * 10 + [1.5] * 10
        result = simplify_contract(PROBLEM, schedule, 2)
        assert result.schedule == tuple(schedule)
        assert result.effort_unchanged
        assert result.agent_value_gap == 0.0

    def test_three_clause_verification_random(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            schedule = np.sort(rng.choice(PROBLEM.wage_grid, size=20)).tolist()
            n = int(rng.integers(2, 5))
            result = simplify_contract(PROBLEM, schedule, n)
            assert result.effort_unchanged
            assert result.agent_value_gap <= 1e-12
            assert result.principal_pointwise_ok
            assert len(set(result.schedule)) <= n
            assert result.dominance_violations == ()

    def test_strict_principal_gain_exists(self):
        rng = np.random.default_rng(23)
        found = False
        for _ in range(40):
            schedule = np.sort(rng.choice(PROBLEM.wage_grid, size=20)).tolist()
            result = simplify_contract(PROBLEM, schedule, 3)
            effort = result.induced_effort
            if principal_value(PROBLEM, result.schedule, effort) > principal_value(
                PROBLEM, schedule, effort
            ) + 1e-9:
                found = True
                break
        assert found

    def test_non_invertible_utility_rejected(self):
        prob = ContractingProblem(
            outputs=(1.0, 2.0, 3.0), efforts=("e",), output_masses=((0.3, 0.3, 0.4),),
            agent_utility=lambda w, e: min(w, 1.0), principal_utility=lambda o, w: o - w,
            wage_grid=(0.2, 0.8),
        )
        with pytest.raises((PreconditionError, ValueError)):
            simplify_contract(prob, (1.5, 2.0, 2.5), 2)


class TestRecklessBait:
    PROB30 = make_problem(n_outputs=30)

    def strictly_increasing_schedule(self, rng):
        base = np.sort(rng.uniform(0.1, 2.5, size=30))
        return (base + np.linspace(0.0, 0.3, 30)).tolist()

    def test_zero_delta_identity(self):
        rng = np.random.default_rng(29)
        schedule = self.strictly_increasing_schedule(rng)
        res = reckless_bait(self.PROB30, schedule, 3, epsilon=0.05, delta=0.0)
        assert res.schedule == tuple(schedule)
        assert res.effort_unchanged

    def test_half_feasibility_bound_passes_all_clauses(self):
        rng = np.random.default_rng(31)
        done = 0
        for _ in range(25):
            schedule = self.strictly_increasing_schedule(rng)
            n = int(rng.integers(2, 5))
            try:
                bound_ = bait_feasibility_bound(self.PROB30, schedule, n, epsilon=0.05)
            except (InfeasibleConstructionError, PreconditionError):
                continue
            if bound_ <= 0:
                continue
            res = reckless_bait(self.PROB30, schedule, n, epsilon=0.05, delta=bound_ / 2)
            done += 1
            assert res.effort_unchanged
            assert res.perceived_value_gap <= 1e-12
            assert res.principal_gain > 0
            assert res.has_top_jump
            assert max(res.schedule[:-1]) < res.schedule[-1]
        assert done >= 15

    def test_capacity_one_bait(self):
        # at N=1 the one perceived block starts at the lowest output
        rng = np.random.default_rng(41)
        schedule = self.strictly_increasing_schedule(rng)
        bound_ = bait_feasibility_bound(self.PROB30, schedule, 1, epsilon=0.05)
        assert bound_ > 0
        res = reckless_bait(self.PROB30, schedule, 1, epsilon=0.05, delta=bound_)
        assert res.effort_unchanged
        assert res.perceived_value_gap <= 1e-12
        assert res.principal_gain > 0
        assert res.region[0] == 1

    def test_excessive_delta_rejected(self):
        rng = np.random.default_rng(37)
        schedule = self.strictly_increasing_schedule(rng)
        bound_ = bait_feasibility_bound(self.PROB30, schedule, 3, epsilon=0.05)
        with pytest.raises(InfeasibleConstructionError):
            reckless_bait(self.PROB30, schedule, 3, epsilon=0.05, delta=bound_ * 50)

    def test_monotonicity_required(self):
        schedule = [1.0] * 29 + [0.5]
        with pytest.raises(PreconditionError):
            reckless_bait(self.PROB30, schedule, 3, epsilon=0.05, delta=0.01)


def bisection_bait_bound(problem, schedule, n, epsilon):
    """Reference feasibility bound: the same bisection, but every probe is a
    full ``reckless_bait`` call that redoes the whole setup."""
    schedule = tuple(float(x) for x in schedule)
    if any(b < a for a, b in zip(schedule, schedule[1:])):
        raise PreconditionError("schedule must be non-decreasing in output")
    effort = best_response_effort(problem, schedule, "reckless", n)
    act = utility_act(problem, schedule, effort)
    belief = problem.belief(effort)
    ladder = build_ladder(act, belief)
    if len(ladder) <= n:
        raise PreconditionError("schedule is already within the agent's capacity")
    top_level = ladder.levels[Fill(ladder, (n,), "upper", None).top_block_starts(n)[-1]]
    t_start = min(
        o for o, u, m in zip(problem.outputs, act.values, belief.masses)
        if m > 0 and u >= top_level
    )
    top = problem.outputs[-1]
    region = [i for i, o in enumerate(problem.outputs) if t_start < o < top - epsilon]
    if not region:
        raise InfeasibleConstructionError("bait region is empty")
    first = region[0]
    mono = schedule[0] if first == 0 else schedule[first] - schedule[first - 1]
    if mono <= 0:
        raise InfeasibleConstructionError("no wage gap at the region edge")

    def verifies(delta):
        try:
            reckless_bait(problem, schedule, n, epsilon, delta)
        except (InfeasibleConstructionError, PreconditionError):
            return False
        return True

    if verifies(mono):
        return mono
    lo, hi = 0.0, mono
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if mid > 0 and verifies(mid):
            lo = mid
        else:
            hi = mid
    if lo <= 0:
        raise InfeasibleConstructionError("no positive delta")
    return lo


class TestBaitParity:
    """The one-setup bisection returns exactly what per-probe full
    constructions return, or fails with the same error type."""

    def outcome(self, search, problem, schedule, n):
        try:
            return search(problem, schedule, n, 0.05)
        except (InfeasibleConstructionError, PreconditionError) as err:
            return type(err)

    def test_matches_per_probe_bisection(self):
        rng = np.random.default_rng(8)
        outcomes = []
        for i in range(40):
            prob = make_problem(
                n_outputs=30,
                mid_cost=float(rng.uniform(0.1, 0.25)),
                high_cost=float(rng.uniform(0.3, 0.5)),
            )
            base = np.sort(rng.uniform(0.1, 2.5, size=30))
            if i % 5 == 4:  # four distinct wages: the setup checks fail
                schedule = np.sort(rng.choice(prob.wage_grid[::15], size=30)).tolist()
            else:
                schedule = (base + np.linspace(0.0, 0.3, 30)).tolist()
            n = 1 + i % 4
            got = self.outcome(bait_feasibility_bound, prob, schedule, n)
            assert got == self.outcome(bisection_bait_bound, prob, schedule, n)
            outcomes.append(got)
        assert sum(isinstance(o, float) for o in outcomes) >= 30
        assert {InfeasibleConstructionError, PreconditionError} <= set(outcomes)


class TestChosenEffortValuedOnce:
    """simplify_contract and the bait shave reuse the perceived value of the
    chosen effort: their outputs equal the values of the public functions,
    with one valuation per effort and schedule."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        value = preferences.value

        def count(*args):
            calls.append(args)
            return value(*args)

        monkeypatch.setattr(preferences, "value", count)
        return calls

    @staticmethod
    def schedules(rng, count):
        for _ in range(count):
            base = np.sort(rng.uniform(0.1, 2.5, size=20))
            yield (base + np.linspace(0.0, 0.3, 20)).tolist()

    def test_simplify(self, monkeypatch):
        for schedule in self.schedules(np.random.default_rng(3), 6):
            effort = best_response_effort(PROBLEM, schedule, "cautious", 3)
            calls = self.counted(monkeypatch)
            res = simplify_contract(PROBLEM, schedule, 3)
            assert len(calls) == 2 * len(PROBLEM.efforts)
            monkeypatch.undo()
            assert res.induced_effort == best_response_effort(PROBLEM, res.schedule, "cautious", 3)
            assert res.agent_value_gap == abs(
                agent_value(PROBLEM, res.schedule, res.induced_effort, 3, "cautious")
                - agent_value(PROBLEM, schedule, effort, 3, "cautious")
            )

    def test_bait_shave(self, monkeypatch):
        checked = 0
        for schedule in self.schedules(np.random.default_rng(3), 10):
            try:
                delta = 0.5 * bait_feasibility_bound(PROBLEM, schedule, 3, 0.05)
            except InfeasibleConstructionError:
                continue
            calls = self.counted(monkeypatch)
            res = reckless_bait(PROBLEM, schedule, 3, 0.05, delta)
            # the reckless best response, then the shaved schedule's best
            # response with its effort valued once; the unshaved value is
            # read from the fill that gives the top block
            assert len(calls) == 2 * len(PROBLEM.efforts)
            monkeypatch.undo()
            effort = best_response_effort(PROBLEM, schedule, "reckless", 3)
            assert res.induced_effort == effort == best_response_effort(
                PROBLEM, res.schedule, "reckless", 3
            )
            assert res.perceived_value_gap == abs(
                agent_value(PROBLEM, res.schedule, effort, 3, "reckless")
                - agent_value(PROBLEM, schedule, effort, 3, "reckless")
            )
            checked += 1
        assert checked >= 3

    def test_bait_fills_the_chosen_ladder_once(self, monkeypatch):
        fill = engine._fill
        checked = 0
        for schedule in self.schedules(np.random.default_rng(3), 10):
            try:
                delta = 0.5 * bait_feasibility_bound(PROBLEM, schedule, 3, 0.05)
            except InfeasibleConstructionError:
                continue
            effort = best_response_effort(PROBLEM, schedule, "reckless", 3)
            chosen = build_ladder(utility_act(PROBLEM, schedule, effort), PROBLEM.belief(effort))
            fills = []
            monkeypatch.setattr(engine, "_fill", lambda *args: fills.append(args[0]) or fill(*args))
            reckless_bait(PROBLEM, schedule, 3, 0.05, delta)
            monkeypatch.undo()
            # the best response fills each effort's ladder, the bait one more
            # of the chosen effort's for its top block and unshaved value, and
            # the shave its own ladder and those of the other efforts
            assert len(fills) == 2 * len(PROBLEM.efforts) + 1
            assert fills.count(chosen.levels) == 2
            checked += 1
        assert checked >= 3


class TestValidation:
    def test_decreasing_wage_utility_rejected(self):
        with pytest.raises(ValueError):
            ContractingProblem(
                outputs=(1.0, 2.0), efforts=("e",), output_masses=((0.5, 0.5),),
                agent_utility=lambda w, e: -w, principal_utility=lambda o, w: o - w,
                wage_grid=(0.1, 0.9),
            )

    @pytest.mark.parametrize("efforts, masses, message", [
        ((), (), "efforts must be non-empty and distinct, got ()"),
        (("a", "a"), ((0.5, 0.5), (0.2, 0.8)),
         "efforts must be non-empty and distinct, got ('a', 'a')"),
    ], ids=["empty", "repeated"])
    def test_efforts_checked(self, efforts, masses, message):
        # an empty list used to fail later in simplify_contract, and a
        # repeated effort was valued with its first distribution
        with pytest.raises(ValueError) as err:
            ContractingProblem(
                outputs=(1.0, 2.0), efforts=efforts, output_masses=masses,
                agent_utility=lambda w, e: w, principal_utility=lambda o, w: o - w,
                wage_grid=(0.1, 0.9),
            )
        assert str(err.value) == message

    @pytest.mark.parametrize("grid", [(), (0.5,)], ids=["empty", "one-wage"])
    def test_wage_grid_needs_two_wages(self, grid):
        # the utilities are checked between adjacent wages, so a shorter
        # grid used to let an agent utility that falls in the wage through
        with pytest.raises(ValueError) as err:
            ContractingProblem(
                outputs=(1.0, 2.0), efforts=("e",), output_masses=((0.5, 0.5),),
                agent_utility=lambda w, e: -w, principal_utility=lambda o, w: o - w,
                wage_grid=grid,
            )
        assert str(err.value) == f"wage_grid must hold at least two wages, got {len(grid)}"

    def test_schedule_length_checked(self):
        with pytest.raises(ValueError):
            agent_value(PROBLEM, [1.0] * 3, "low", 2, "cautious")

    # the schedule falls at the top, so a check made after the reckless
    # effort would raise PreconditionError instead
    FALLING = [1.0] * 19 + [0.5]

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_bait_collar_checked(self, epsilon):
        # a negative collar used to give a bound, and NaN or inf an empty
        # bait region; a zero delta used to return before reading epsilon
        message = f"epsilon must be non-negative and finite, got {epsilon!r}"
        for call in (
            lambda: bait_feasibility_bound(PROBLEM, self.FALLING, 2, epsilon),
            lambda: reckless_bait(PROBLEM, self.FALLING, 2, epsilon, 0.0),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    @pytest.mark.parametrize("delta", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_bait_delta_checked(self, delta):
        # NaN used to fail late, on the shaved schedule's wages
        with pytest.raises(ValueError) as err:
            reckless_bait(PROBLEM, self.FALLING, 2, 0.05, delta)
        assert str(err.value) == f"delta must be non-negative and finite, got {delta!r}"
