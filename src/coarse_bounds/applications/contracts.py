"""Principal-agent contracting with capacity-limited agents.

The agent picks effort to maximize the perceived value of the wage schedule
under the effort's output distribution; the principal keeps output minus
wages. For a cautious agent any schedule can be replaced by its coarse
lower bound, re-expressed in wages: effort and agent value are unchanged
while the principal weakly gains at every output, so optimal contracts never
need more distinct wages than the agent's capacity. A reckless agent can
instead be exploited: wages strictly inside the top perceived block can be
shaved without moving the perceived upper bound, leaving a schedule with a
discrete jump at the top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, sqrt

from .. import preferences
from ..acts import Belief, DiscreteAct, build_ladder, check_ascending, check_finite
from ..engine import Fill, bound, pull_back
from ..errors import (
    AlignmentError, DegenerateBeliefError, InfeasibleConstructionError, PreconditionError,
)

# Absolute slack under which two perceived agent values count as equal: the
# efforts tied for the best response, and a bait shave that keeps the
# perceived upper bound. Agent values are utilities of order 1, so it is some
# thousands of ulps. It is not engine.TIE_TOL: a bait's perceived_value_gap is
# checked against this same absolute 1e-12 outside the package too.
AGENT_VALUE_TOL = 1e-12
# Floor of the square-root wage utility's argument: a wage below it, a
# negative one included, is valued as the floor, so every utility is real.
WAGE_FLOOR = 1e-12


def sqrt_wage_utility(costs):
    """The agent utility ``sqrt(max(wage, WAGE_FLOOR)) - costs[effort]``."""
    return lambda wage, effort: sqrt(max(wage, WAGE_FLOOR)) - costs[effort]


@dataclass(frozen=True)
class ContractingProblem:
    """Outputs, efforts with their output distributions, and both payoffs.

    ``agent_utility(wage, effort)`` must be increasing in the wage for every
    effort; ``principal_utility(output, wage)`` decreasing in the wage. Both
    are checked on ``wage_grid``, at least two ascending wages.
    """

    outputs: tuple
    efforts: tuple
    output_masses: tuple  # one mass vector per effort, aligned with outputs
    agent_utility: object
    principal_utility: object
    wage_grid: tuple
    _beliefs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        outputs = tuple(float(o) for o in self.outputs)
        object.__setattr__(self, "outputs", outputs)
        check_ascending(outputs, "outputs")
        if not self.efforts or any(self.efforts.index(e) != i for i, e in enumerate(self.efforts)):
            raise ValueError(f"efforts must be non-empty and distinct, got {self.efforts!r}")
        if len(self.output_masses) != len(self.efforts):
            raise ValueError(
                f"output_masses must hold one distribution per effort, "
                f"got {len(self.output_masses)} for {len(self.efforts)} efforts"
            )
        for masses in self.output_masses:
            if len(masses) != len(outputs):
                raise AlignmentError(
                    f"output_masses must match outputs: {len(masses)} masses vs "
                    f"{len(outputs)} outputs"
                )
        try:
            beliefs = tuple(Belief(m) for m in self.output_masses)
        except (ValueError, DegenerateBeliefError) as err:
            raise type(err)(f"output_masses: {err}") from None
        object.__setattr__(self, "_beliefs", beliefs)
        wages = tuple(float(x) for x in self.wage_grid)
        object.__setattr__(self, "wage_grid", wages)
        check_ascending(wages, "wage_grid")
        # the utilities' monotonicity is checked between adjacent wages
        if len(wages) < 2:
            raise ValueError(f"wage_grid must hold at least two wages, got {len(wages)}")
        for effort in self.efforts:
            us = [self.agent_utility(x, effort) for x in wages]
            if any(b <= a for a, b in zip(us, us[1:])):
                raise ValueError(
                    f"agent utility must be increasing in the wage for effort {effort!r}"
                )
        for output in outputs:
            vs = [self.principal_utility(output, x) for x in wages]
            if any(b > a for a, b in zip(vs, vs[1:])):
                raise ValueError("principal utility must be decreasing in the wage")

    def belief(self, effort) -> Belief:
        return self._beliefs[self.efforts.index(effort)]


def _check_schedule(problem: ContractingProblem, schedule) -> tuple:
    schedule = tuple(float(x) for x in schedule)
    if len(schedule) != len(problem.outputs):
        raise ValueError("schedule must assign a wage to every output")
    check_finite(schedule, "schedule wages")
    return schedule


def _check_collar(epsilon: float) -> None:
    if not 0 <= epsilon < inf:
        raise ValueError(f"epsilon must be non-negative and finite, got {epsilon!r}")


def utility_act(problem: ContractingProblem, schedule, effort) -> DiscreteAct:
    schedule = _check_schedule(problem, schedule)
    return DiscreteAct(
        problem.outputs,
        [problem.agent_utility(wage, effort) for wage in schedule],
    )


def agent_value(problem: ContractingProblem, schedule, effort, n: int,
                attitude: str) -> float:
    act = utility_act(problem, schedule, effort)
    return preferences.value(act, problem.belief(effort), n, attitude)


def principal_value(problem: ContractingProblem, schedule, effort) -> float:
    schedule = _check_schedule(problem, schedule)
    masses = problem.belief(effort).masses
    return sum(
        m * problem.principal_utility(o, wage)
        for o, wage, m in zip(problem.outputs, schedule, masses)
    )


def best_response_effort(problem: ContractingProblem, schedule, attitude: str, n: int):
    """Effort maximizing perceived agent value; ties go to the principal's
    preferred effort, then to listing order."""
    return _best_response(problem, schedule, attitude, n)[0]


def _best_response(problem: ContractingProblem, schedule, attitude: str, n: int,
                   known=None) -> tuple:
    """The best response effort and its perceived agent value. ``known`` is
    an ``(effort, value)`` pair already valued on this schedule, which is
    reused rather than valued again."""
    scored = []
    for idx, effort in enumerate(problem.efforts):
        if known is not None and effort is known[0]:
            value = known[1]
        else:
            value = agent_value(problem, schedule, effort, n, attitude)
        scored.append((value, effort, idx))
    best_agent = max(s[0] for s in scored)
    tied = [s for s in scored if s[0] >= best_agent - AGENT_VALUE_TOL]
    tied.sort(key=lambda s: (-principal_value(problem, schedule, s[1]), s[2]))
    return tied[0][1], tied[0][0]


@dataclass(frozen=True)
class SimplificationResult:
    schedule: tuple
    induced_effort: object
    effort_unchanged: bool
    agent_value_gap: float
    principal_pointwise_ok: bool
    dominance_violations: tuple


def simplify_contract(problem: ContractingProblem, schedule, n: int) -> SimplificationResult:
    """Replace a schedule by the wage image of its coarse lower bound.

    The cautious agent's induced effort and value are unchanged; the wage at
    every output weakly falls, so the principal is pointwise weakly better
    off. Wages are recovered by inverting the agent's utility on the wages
    actually present in the schedule (utility must be injective there).
    """
    schedule = _check_schedule(problem, schedule)
    effort, value = _best_response(problem, schedule, "cautious", n)
    act = utility_act(problem, schedule, effort)
    belief = problem.belief(effort)
    wage_of = {}
    for wage in schedule:
        u = problem.agent_utility(wage, effort)
        if u in wage_of and wage_of[u] != wage:
            raise PreconditionError(
                "agent utility is not injective on the schedule's wages"
            )
        wage_of[u] = wage
    res = bound(build_ladder(act, belief), n, "lower")
    pulled = pull_back(res, act, belief)
    new_schedule = tuple(wage_of[u] for u in pulled.act.values)
    new_effort, new_value = _best_response(problem, new_schedule, "cautious", n)
    gap = abs(new_value - value)
    pointwise = all(nw <= w for nw, w in zip(new_schedule, schedule))
    return SimplificationResult(
        schedule=new_schedule,
        induced_effort=new_effort,
        effort_unchanged=new_effort == effort,
        agent_value_gap=gap,
        principal_pointwise_ok=pointwise,
        dominance_violations=pulled.violations,
    )


def _reckless_effort(problem: ContractingProblem, schedule, n: int):
    if any(b < a for a, b in zip(schedule, schedule[1:])):
        raise PreconditionError("schedule must be non-decreasing in output")
    return best_response_effort(problem, schedule, "reckless", n)


def _bait_shaver(problem: ContractingProblem, schedule, effort, n: int, epsilon: float):
    """The bait region of a schedule and a function that shaves ``delta`` off
    the wages there.

    The region holds the outputs strictly inside the top perceived block
    (of the optimal partition whose top block starts highest), below an
    ``epsilon`` collar under the highest output. It, the perceived value and
    the principal's value of the unshaved schedule are computed once, the
    first two from one fill; a shave only builds and verifies the modified
    schedule.
    """
    act, belief = utility_act(problem, schedule, effort), problem.belief(effort)
    ladder = build_ladder(act, belief)
    if len(ladder) <= n:
        raise PreconditionError("schedule is already within the agent's capacity")
    fill = Fill(ladder, (n,), "upper", None)
    top_level = ladder.levels[fill.top_block_starts(n)[-1]]
    t_start = min(o for o, u, m in zip(problem.outputs, act.values, belief.masses)
                  if m > 0 and u >= top_level)
    top = problem.outputs[-1]
    region = tuple(
        i for i, o in enumerate(problem.outputs) if t_start < o < top - epsilon
    )
    if not region:
        raise InfeasibleConstructionError(
            "bait region (top block interior below the cap) is empty"
        )
    before = fill.value(n)
    principal_before = principal_value(problem, schedule, effort)

    def shave(delta: float) -> BaitResult:
        modified = list(schedule)
        for i in region:
            modified[i] = schedule[i] - delta
        modified = tuple(modified)
        if any(b < a for a, b in zip(modified, modified[1:])):
            raise InfeasibleConstructionError("monotonicity binds: delta too large")
        after = agent_value(problem, modified, effort, n, "reckless")
        gap = abs(after - before)
        if gap > AGENT_VALUE_TOL:
            raise InfeasibleConstructionError(
                "perceived upper bound moved: delta too large"
            )
        new_effort, _ = _best_response(problem, modified, "reckless", n, (effort, after))
        if new_effort != effort:
            raise InfeasibleConstructionError("induced effort changed")
        gain = principal_value(problem, modified, effort) - principal_before
        if gain <= 0:
            raise InfeasibleConstructionError("bait region carries no probability mass")
        interior_max = max(modified[:-1])
        return BaitResult(
            schedule=modified,
            induced_effort=new_effort,
            effort_unchanged=True,
            perceived_value_gap=gap,
            principal_gain=gain,
            has_top_jump=interior_max < modified[-1],
            region=region,
        )

    return region, shave


def bait_feasibility_bound(problem: ContractingProblem, schedule, n: int,
                           epsilon: float) -> float:
    """Largest verified wage reduction on the bait region.

    Starts from the monotonicity bound (the wage gap at the region's left
    edge) and bisects down, in 40 steps, until every bait clause verifies;
    the perceived upper bound is constant in delta on the optimal partition
    while every competing partition only gets cheaper, so the feasible set
    is an interval at zero. The effort, region and unshaved values are
    computed once per call; each probe only shaves and verifies.
    """
    schedule = _check_schedule(problem, schedule)
    _check_collar(epsilon)
    effort = _reckless_effort(problem, schedule, n)
    region, shave = _bait_shaver(problem, schedule, effort, n, epsilon)
    # the region lies strictly above the top block's first output, so first >= 1
    first = region[0]
    mono = schedule[first] - schedule[first - 1]
    if mono <= 0:
        raise InfeasibleConstructionError(
            "monotonicity binds immediately: no wage gap at the region edge"
        )

    def verifies(delta: float) -> bool:
        try:
            shave(delta)
        except InfeasibleConstructionError:
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
        raise InfeasibleConstructionError(
            "no positive delta keeps the perceived bound and effort fixed"
        )
    return lo


@dataclass(frozen=True)
class BaitResult:
    schedule: tuple
    induced_effort: object
    effort_unchanged: bool
    perceived_value_gap: float
    principal_gain: float
    has_top_jump: bool
    region: tuple


def reckless_bait(problem: ContractingProblem, schedule, n: int, epsilon: float,
                  delta: float) -> BaitResult:
    """Shave ``delta`` off wages strictly inside the top perceived block,
    below an ``epsilon`` collar under the highest output.

    Verifies, rather than assumes, that the perceived upper-bound value and
    the induced effort are unchanged, that the schedule stays monotone, and
    that the principal strictly gains; raises naming the binding constraint
    otherwise. The modified schedule keeps a discrete jump at the top.
    """
    schedule = _check_schedule(problem, schedule)
    _check_collar(epsilon)
    if not 0 <= delta < inf:
        raise ValueError(f"delta must be non-negative and finite, got {delta!r}")
    effort = _reckless_effort(problem, schedule, n)
    if delta == 0:
        return BaitResult(schedule, effort, True, 0.0, 0.0, False, ())
    _, shave = _bait_shaver(problem, schedule, effort, n, epsilon)
    return shave(delta)
