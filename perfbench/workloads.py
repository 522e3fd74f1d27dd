"""The four workloads: seeded inputs, the ops that run on them, and checks.

Each workload is a fixed cycle of ops. The composition of a cycle (op kinds,
ladder sizes, capacities) is fixed; the seed, the stream (warm-up or timed)
and the cycle number only choose the values, through
``SeedSequence([seed, stream, cycle])``. A run executes whole cycles, so the
multiset of op shapes, and with it the median and tail, is the same in every
run. Cycles have an odd number of ops, so the median latency is the middle
of one op shape's samples rather than the gap between two shapes.

Inputs are plain numbers; every library object (acts, beliefs, ladders,
contracts, problems) is built inside the op that uses it, so validation is
part of the measured work and an input the library wrongly rejects shows up
as a failed op. Beliefs are normalised plainly (``w / w.sum()``), never
patched up to sum to exactly one.

Checks do not depend on how the library computes: they recompute values
from public definitions (``coarse_value``, ``plan_value``, objective
functions), test orderings the paper proves, or compare with the exhaustive
oracle on dyadic inputs, where float sums are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

import coarse_bounds.acts as acts
import coarse_bounds.engine as engine
import coarse_bounds.learning as ln
import coarse_bounds.preferences as pref
import coarse_bounds.statics as statics
from coarse_bounds.applications import contracts as ct
from coarse_bounds.applications import insurance as ins
from coarse_bounds.applications import portfolio as pf
from coarse_bounds.applications.crra import CRRAUtility
from coarse_bounds.errors import InfeasibleConstructionError, PreconditionError

WARMUP, TIMED = 0, 1

# Seed that tuning never used; a performance claim must also hold on it.
HELD_OUT_SEED = 20061852

LOWER, UPPER = "lower", "upper"


@dataclass
class Op:
    kind: str
    run: object
    check: object
    app: str | None = None
    documented: tuple = ()
    resamples: bool = False  # calls learning's cached resampler


def _rng(seed: int, stream: int, cycle: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, cycle]))


def _boot_seed(seed: int, stream: int, cycle: int, pos: int) -> int:
    """Distinct for every (seed, stream, cycle, position in the cycle)."""
    return ((seed * 4 + stream) * 2**24 + cycle) * 2**8 + pos


def _masses(rng, k: int, lo: float = 0.05, hi: float = 1.0) -> list:
    w = rng.uniform(lo, hi, size=k)
    return (w / w.sum()).tolist()


def _float_levels(rng, length: int) -> list:
    while True:
        levels = np.sort(rng.uniform(-10.0, 10.0, size=length))
        if np.all(np.diff(levels) > 0):
            return levels.tolist()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# checks shared by the engine ops
# ---------------------------------------------------------------------------

def check_bound(ladder, res, n: int, kind: str) -> list:
    """Cutoffs valid for N and L, value reproduced by ``coarse_value``,
    bound values on the dominated side, and siminf <= E <= simsup."""
    problems = []
    length = len(ladder)
    cuts = res.cutoffs.cuts
    if not (
        all(isinstance(c, int) for c in cuts)
        and all(b > a for a, b in zip(cuts, cuts[1:]))
        and len(cuts) <= n - 1
        and all(1 <= c <= length - 1 for c in cuts)
    ):
        return [f"{kind} N={n} L={length}: invalid cutoffs {cuts[:8]}"]
    value = engine.coarse_value(cuts, ladder, kind)
    if not _close(value, res.value, 1e-12):
        problems.append(f"{kind} N={n} L={length}: coarse_value {value!r} != {res.value!r}")
    side = (lambda b, v: b <= v) if kind == LOWER else (lambda b, v: b >= v)
    if len(res.bound_values) != length or not all(
        side(b, v) for b, v in zip(res.bound_values, ladder.levels)
    ):
        problems.append(f"{kind} N={n} L={length}: bound values cross the act")
    expect = math.fsum(v * m for v, m in zip(ladder.levels, ladder.level_masses))
    scale = max(1.0, math.fsum(abs(v) * m for v, m in zip(ladder.levels, ladder.level_masses)))
    slack = 1e-9 * scale
    if (kind == LOWER and res.value > expect + slack) or (kind == UPPER and res.value < expect - slack):
        problems.append(f"{kind} N={n} L={length}: value {res.value!r} on the wrong side of E={expect!r}")
    return problems


# ---------------------------------------------------------------------------
# large-ladders
# ---------------------------------------------------------------------------

class LargeLadders:
    """Long float ladders: the O(N L^2) fill takes nearly all the time and
    its L x L matrices set peak memory."""

    name = "large-ladders"
    # how far op times move with the host probe (see worker.PROBE_REF_S), in
    # steps of 0.25: the steadiest over ten runs per workload at the commit
    # that added the probe; numpy kernels on L x L arrays move least
    PROBE_EXPONENT = 0.5
    LEVELS = tuple(round(100 * 20 ** (i / 7)) for i in range(8))  # 100 .. 2000
    CAPACITIES = (3, 8, 32)
    PROFILE_LEVELS = (200, 400, 800)
    PROFILE_N = 8
    BUILD_STATES = (3000, 4000, 5000, 6000)
    BUILD_N = 3

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, stream: int, c: int) -> list:
        rng = _rng(self.seed, stream, c)
        ops = []
        for i, length in enumerate(self.LEVELS):
            for j, n in enumerate(self.CAPACITIES):
                kind = LOWER if (i + j) % 2 == 0 else UPPER
                ops.append(self._bound_op(_float_levels(rng, length), _masses(rng, length), n, kind))
        for length in self.PROFILE_LEVELS:
            ops.append(self._profile_op(_float_levels(rng, length), _masses(rng, length)))
        for states in self.BUILD_STATES:
            distinct = rng.uniform(-10.0, 10.0, size=states // 4)
            values = rng.choice(distinct, size=states).tolist()
            w = rng.uniform(0.05, 1.0, size=states)
            w[rng.random(states) < 0.1] = 0.0
            ops.append(self._build_op(values, (w / w.sum()).tolist()))
        return ops

    @staticmethod
    def _bound_op(levels, masses, n, kind):
        def run():
            ladder = acts.ValueLadder(levels, masses)
            return ladder, engine.bound(ladder, n, kind)

        return Op("engine.bound", run, lambda out: check_bound(out[0], out[1], n, kind))

    def _profile_op(self, levels, masses):
        n_max = self.PROFILE_N

        def run():
            ladder = acts.ValueLadder(levels, masses)
            return ladder, statics.capacity_profile(ladder, n_max, LOWER)

        def check(out):
            ladder, prof = out
            problems = []
            if len(prof.values) != n_max or not (prof.monotone and prof.concave):
                problems.append(f"profile L={len(ladder)}: not monotone and concave")
            expect = math.fsum(v * m for v, m in zip(ladder.levels, ladder.level_masses))
            slack = 1e-9 * max(1.0, math.fsum(abs(v) * m for v, m in zip(ladder.levels, ladder.level_masses)))
            if any(w > expect + slack for w in prof.values):
                problems.append(f"profile L={len(ladder)}: W(N) above E")
            if not _close(prof.values[0], ladder.levels[0] * math.fsum(ladder.level_masses), 1e-12):
                problems.append(f"profile L={len(ladder)}: W(1) is not the lowest level")
            return problems

        return Op("statics.capacity_profile", run, check)

    def _build_op(self, values, masses):
        n = self.BUILD_N

        def run():
            act = acts.DiscreteAct(range(len(values)), values)
            belief = acts.Belief(masses)
            ladder = acts.build_ladder(act, belief)
            return ladder, engine.siminf(ladder, n), engine.simsup(ladder, n)

        def check(out):
            ladder, lo, hi = out
            v = np.asarray(values)
            m = np.asarray(masses)
            levels, inverse = np.unique(v[m > 0], return_inverse=True)
            agg = np.bincount(inverse, weights=m[m > 0])
            problems = []
            if list(ladder.levels) != levels.tolist() or not np.allclose(
                ladder.level_masses, agg, rtol=0.0, atol=1e-12
            ):
                problems.append(f"build_ladder {len(values)} states: wrong levels or masses")
                return problems
            problems += check_bound(ladder, lo, n, LOWER)
            problems += check_bound(ladder, hi, n, UPPER)
            return problems

        return Op("acts.build_ladder", run, check)


# ---------------------------------------------------------------------------
# app-solvers
# ---------------------------------------------------------------------------

INS_GRID = 200
PF_GRID = np.linspace(0.7, 1.6, 40).tolist()


def _tilted_losses(lam: float, size: int = INS_GRID):
    losses = [(i + 0.5) / size for i in range(size)]
    w = np.exp(lam * np.asarray(losses))
    return losses, (w / w.sum()).tolist()


def contracting_problem(costs, n_outputs: int):
    """Criterion-8 shape: three efforts with tilted output laws, sqrt wage utility."""
    outputs = np.linspace(0.5, 4.0, n_outputs).tolist()

    def tilt(lam):
        w = np.exp(lam * np.linspace(0.0, 1.0, n_outputs))
        return tuple((w / w.sum()).tolist())

    cost = {"low": 0.0, "mid": costs[0], "high": costs[1]}
    return ct.ContractingProblem(
        tuple(outputs), ("low", "mid", "high"), (tilt(-1.0), tilt(0.8), tilt(2.0)),
        lambda wage, effort: math.sqrt(max(wage, 1e-12)) - cost[effort],
        lambda output, wage: output - wage,
        tuple(np.linspace(0.05, 3.0, 60).tolist()),
    )


class AppSolvers:
    """Round-robin application mix at the criterion 6-8 sizes, N in 2..8.

    Hundreds of small solves per op: per-call overhead of the engine and the
    acts validation around it dominate, not the fill.
    """

    name = "app-solvers"
    PROBE_EXPONENT = 0.75
    CAPACITIES = (2, 3, 5, 6, 8)
    GAMMAS = {2: 1.0, 3: 2.0, 5: 3.0, 6: 1.0, 8: 2.0}
    SAVINGS = {2: 0.3, 3: 0.5, 5: 0.3, 6: 0.5, 8: 0.5}
    UTILITY = CRRAUtility(2.0)

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, stream: int, c: int) -> list:
        rng = _rng(self.seed, stream, c)
        ops = []
        for n in self.CAPACITIES:
            ops.append(self._wtp(rng, n))
            ops.append(self._sensitivity(rng, n, "deductible"))
            ops.append(self._sensitivity(rng, n, "coverage"))
            ops.append(self._dominated(rng, n))
            ops.append(self._allocation(rng, n))
            ops.append(self._price(rng, n))
            ops.append(self._savings(rng, n))
            ops.append(self._simplify(rng, n))
            ops.append(self._bait(rng, n))
        return ops

    # insurance ----------------------------------------------------------

    def _wtp(self, rng, n):
        u = self.UTILITY
        losses, masses = _tilted_losses(float(rng.uniform(0.0, 3.0)))
        if n % 2 == 0:
            terms = (0.05, float(rng.uniform(0.25, 0.4)), 1.0, None, 2.0)
            improvement = "lower_deductible"
        else:
            terms = (0.05, float(rng.uniform(0.15, 0.25)), float(rng.uniform(0.7, 0.9)),
                     float(rng.uniform(0.45, 0.55)), 2.0)
            improvement = "lower_cap"
        delta, tol = 0.1, 1e-8

        def run():
            model = ins.LossModel(losses, masses)
            contract = ins.InsuranceContract(*terms)
            return model, contract, ins.wtp(contract, model, u, n, improvement, delta, tol=tol)

        def check(out):
            model, contract, w = out
            if not 0.0 <= w <= contract.wealth:
                return [f"wtp N={n}: {w} outside [0, wealth]"]
            if improvement == "lower_deductible":
                improved = replace(contract, deductible=contract.deductible - delta)
            else:
                improved = replace(contract, cap=contract.cap - delta)
            base = ins.plan_value(contract, model, u, n)
            gain = lambda dp: ins.plan_value(
                replace(improved, premium=improved.premium + dp), model, u, n) - base
            # the plan value falls weakly in the premium, so w brackets the root
            if not (gain(w - tol) >= 0.0 > gain(w + tol)):
                return [f"wtp N={n}: {w} does not bracket the indifference premium"]
            return []

        return Op("ins.wtp", run, check, app="insurance")

    def _sensitivity(self, rng, n, parameter):
        u = self.UTILITY
        losses, masses = _tilted_losses(float(rng.uniform(0.0, 3.0)))
        terms = (0.05, float(rng.uniform(0.15, 0.55)), float(rng.uniform(0.5, 0.95)), None, 2.0)
        h = 2.0 / INS_GRID

        def run():
            model = ins.LossModel(losses, masses)
            contract = ins.InsuranceContract(*terms)
            return ins.sensitivity(contract, model, u, n, parameter, h)

        def check(slope):
            # wealth falls statewise in the deductible and rises in the coverage
            if not (math.isfinite(slope) and (slope <= 0.0 if parameter == "deductible" else slope >= 0.0)):
                return [f"sensitivity to {parameter} N={n}: wrong sign {slope}"]
            return []

        return Op("ins.sensitivity", run, check, app="insurance")

    def _dominated(self, rng, n):
        u = self.UTILITY
        losses, masses = _tilted_losses(float(rng.uniform(0.0, 3.0)))
        terms = (0.05, 0.35, float(rng.uniform(0.5, 0.7)), None, 2.0)
        target = 0.15

        def run():
            model = ins.LossModel(losses, masses)
            return ins.dominated_pair(ins.InsuranceContract(*terms), target, model, u, n)

        def check(res):
            problems = []
            if res.indifferent != res.lowest_cutoff_ok:
                problems.append(f"dominated_pair N={n}: indifferent={res.indifferent} "
                                f"but lowest_cutoff_ok={res.lowest_cutoff_ok}")
            if res.value_low > res.value_high + 1e-12:
                problems.append(f"dominated_pair N={n}: dominated plan valued higher")
            return problems

        return Op("ins.dominated_pair", run, check, app="insurance")

    # portfolio ----------------------------------------------------------

    def _portfolio(self, rng, n):
        masses = _masses(rng, len(PF_GRID), 0.5, 1.0)
        gamma = self.GAMMAS[n]
        return lambda: pf.PortfolioProblem(
            endowment=1.0, safe_return=1.02, risky_returns=PF_GRID, risky_masses=masses,
            beta=1 / 1.02, utility=CRRAUtility(gamma), capacity=n, attitude="cautious",
        )

    def _allocation(self, rng, n):
        make = self._portfolio(rng, n)
        x = self.SAVINGS[n]

        def run():
            prob = make()
            return prob, pf.solve_allocation(prob, x)

        def check(out):
            prob, share = out
            if not 0.0 <= share <= 1.0:
                return [f"allocation N={n}: share {share}"]
            obj = lambda a: pf.allocation_objective(prob, x, a)
            best = obj(share)
            if best < max(obj(0.0), obj(1.0)) - 1e-12 * max(1.0, abs(best)):
                return [f"allocation N={n}: share {share} worse than a corner"]
            return []

        return Op("pf.solve_allocation", run, check, app="portfolio")

    def _price(self, rng, n):
        make = self._portfolio(rng, n)

        def run():
            prob = make()
            return prob, pf.equilibrium_price(prob)

        def check(out):
            prob, price = out
            # cautious values sit below expected utility, and u is concave
            cap = prob.beta * float(np.dot(prob.risky_returns, prob.risky_masses))
            if not (0.0 < price <= cap * (1.0 + 1e-9)):
                return [f"price N={n}: {price} outside (0, beta E r = {cap}]"]
            return []

        return Op("pf.equilibrium_price", run, check, app="portfolio")

    def _savings(self, rng, n):
        make = self._portfolio(rng, n)
        starts = ((0.2, 0.2), (0.4, 0.1), (0.1, 0.4), (0.3, 0.3))

        def run():
            prob = make()
            return prob, pf.solve_savings(prob)

        def check(out):
            prob, sol = out
            w = prob.endowment
            if not (sol.safe >= 0.0 and sol.risky >= 0.0 and sol.total < w):
                return [f"savings N={n}: infeasible holdings {sol.safe}, {sol.risky}"]
            if sol.value != pf.savings_objective(prob, sol.safe, sol.risky):
                return [f"savings N={n}: value does not match the objective"]
            floor = max(pf.savings_objective(prob, fb * w, fs * w) for fb, fs in starts)
            if sol.value < floor - 1e-12 * max(1.0, abs(floor)):
                return [f"savings N={n}: worse than a starting point"]
            return []

        return Op("pf.solve_savings", run, check, app="portfolio")

    # contracts ----------------------------------------------------------

    def _simplify(self, rng, n):
        costs = (float(rng.uniform(0.1, 0.25)), float(rng.uniform(0.3, 0.5)))
        wages = np.linspace(0.05, 3.0, 60)
        schedule = np.sort(rng.choice(wages, size=20)).tolist()

        def run():
            return ct.simplify_contract(contracting_problem(costs, 20), schedule, n)

        def check(res):
            if not (res.effort_unchanged and res.agent_value_gap <= 1e-12
                    and res.principal_pointwise_ok and len(set(res.schedule)) <= n):
                return [f"simplify N={n}: effort_unchanged={res.effort_unchanged} "
                        f"gap={res.agent_value_gap} pointwise={res.principal_pointwise_ok} "
                        f"wages={len(set(res.schedule))}"]
            return []

        return Op("ct.simplify_contract", run, check, app="contracts")

    def _bait(self, rng, n):
        costs = (float(rng.uniform(0.1, 0.25)), float(rng.uniform(0.3, 0.5)))
        schedule = (np.sort(rng.uniform(0.1, 2.5, size=30)) + np.linspace(0.0, 0.3, 30)).tolist()
        epsilon = 0.05

        def run():
            prob = contracting_problem(costs, 30)
            return prob, ct.bait_feasibility_bound(prob, schedule, n, epsilon=epsilon)

        def check(out):
            prob, bnd = out
            if not bnd > 0:
                return [f"bait N={n}: non-positive bound {bnd}"]
            try:
                res = ct.reckless_bait(prob, schedule, n, epsilon, bnd / 2)
            except (InfeasibleConstructionError, PreconditionError) as err:
                return [f"bait N={n}: delta=bound/2 does not verify: {err}"]
            if not (res.effort_unchanged and res.perceived_value_gap <= 1e-12
                    and res.principal_gain > 0 and res.has_top_jump):
                return [f"bait N={n}: re-verification failed"]
            return []

        return Op("ct.bait_feasibility_bound", run, check, app="contracts",
                  documented=(InfeasibleConstructionError, PreconditionError))


# ---------------------------------------------------------------------------
# small-exact
# ---------------------------------------------------------------------------

def _dyadic(rng, length: int, denom_bits: int = 10):
    levels = sorted(rng.choice(np.arange(-16, 17), size=length, replace=False).tolist())
    denom = 1 << denom_bits
    cuts = sorted(rng.choice(np.arange(1, denom), size=length - 1, replace=False).tolist())
    edges = [0, *cuts, denom]
    return [float(v) for v in levels], [(edges[i + 1] - edges[i]) / denom for i in range(length)]


class SmallExact:
    """Dyadic ladders small enough for the exhaustive oracle: enumeration of
    optimum sets dominates, through the oracle, statics and preferences."""

    name = "small-exact"
    PROBE_EXPONENT = 0.75
    # (L, N) shapes. N = 6 stops at L = 14: an L = 20, N = 6 op would take a
    # third of the cycle, and the tail would sit on its few samples.
    SHAPES = tuple((L, n) for L in (8, 11, 14, 17, 20) for n in (2, 3, 4, 5)) + ((8, 6), (11, 6), (14, 6))
    COMPARE_PAIRS = 20
    KINK_GRID = 21

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, stream: int, c: int) -> list:
        rng = _rng(self.seed, stream, c)
        ops = []
        for length, n in self.SHAPES:
            ops.append(self._exact(rng, length, n))
        for n in (1, 2, 3, 2, 3):
            ops.append(self._compare(rng, n))
        for n in (2, 3, 4, 3, 2):
            ops.append(self._kink(rng, n))
        return ops

    @staticmethod
    def _exact(rng, length, n):
        levels, masses = _dyadic(rng, length)
        # a fixed span keeps the cost of an op shape independent of the seed
        span = length - 2
        lo1 = int(rng.integers(0, 3))
        lo2 = int(rng.integers(lo1, 3))
        low, high = (lo1, lo1 + span - 1), (lo2, lo2 + span - 1)
        weights = np.exp(float(rng.uniform(0.1, 1.5)) * np.arange(length)).tolist()

        def run():
            ladder = acts.ValueLadder(levels, masses)
            pairs = [(engine.bound(ladder, n, k), engine.brute_force_bound(ladder, n, k))
                     for k in (LOWER, UPPER)]
            shift = statics.mlr_shift(ladder.level_masses, weights)
            lattice = (
                statics.sandwich_check(ladder, n),
                statics.sso_monotone_in_interval(ladder, n, low, high),
                statics.mlr_cutoff_monotonicity(ladder, shift, n),
            )
            return ladder, pairs, lattice

        def check(out):
            ladder, pairs, lattice = out
            problems = []
            for kind, (dp, oracle) in zip((LOWER, UPPER), pairs):
                if dp.value != oracle.bound.value or dp.cutoffs.cuts != oracle.optima[0]:
                    problems.append(f"oracle parity {kind} L={length} N={n}")
                problems += check_bound(ladder, dp, n, kind)
            for name, ok in zip(("sandwich", "sso", "mlr"), lattice):
                if not ok:
                    problems.append(f"{name} fails L={length} N={n}")
            return problems

        return Op("engine.oracle+statics", run, check)

    def _compare(self, rng, n):
        pairs = []
        for i in range(self.COMPARE_PAIRS):
            k = int(rng.integers(3, 8))
            f = rng.uniform(-5.0, 5.0, size=k)
            g = f - rng.uniform(0.0, 2.0, size=k) if i % 2 else rng.uniform(-5.0, 5.0, size=k)
            pairs.append((f.tolist(), g.tolist(), _masses(rng, k, 0.1, 1.0)))

        def run():
            out = []
            for f, g, m in pairs:
                fa, ga = acts.DiscreteAct(range(len(f)), f), acts.DiscreteAct(range(len(g)), g)
                belief = acts.Belief(m)
                out.append((fa, ga, belief, pref.simple_bounds_compare(fa, ga, belief, n)))
            return out

        def check(out):
            problems = []
            for fa, ga, belief, verdict in out:
                v = verdict.verdict
                if all(a >= b for a, b in zip(fa.values, ga.values)) and v not in (
                    pref.Verdict.STRICTLY_PREFERS_F, pref.Verdict.INDIFFERENT
                ):
                    problems.append(f"compare N={n}: dominance ignored ({v.value})")
                if v in (pref.Verdict.STRICTLY_PREFERS_F, pref.Verdict.INDIFFERENT):
                    for att in (pref.Attitude.CAUTIOUS, pref.Attitude.RECKLESS):
                        vf = pref.value(fa, belief, n, att)
                        vg = pref.value(ga, belief, n, att)
                        bad = abs(vf - vg) > 1e-9 if v is pref.Verdict.INDIFFERENT else vf < vg - 1e-9
                        if bad:
                            problems.append(f"compare N={n}: {v.value} but {att.value} values disagree")
            return problems

        return Op("pref.simple_bounds_compare", run, check)

    def _kink(self, rng, n):
        size = self.KINK_GRID
        losses = [(i + 0.5) / size for i in range(size)]
        masses = [1.0 / size] * size
        terms = (0.05, float(rng.uniform(0.2, 0.6)), float(rng.uniform(0.5, 1.0)), None, 2.0)
        u = CRRAUtility(2.0)

        def run():
            model = ins.LossModel(losses, masses)
            return ins.kink_avoidance(ins.InsuranceContract(*terms), model, u, n)

        return Op("ins.kink_avoidance", run,
                  lambda ok: [] if ok else [f"kink at an optimal cutoff d={terms[1]:.3f} N={n}"])


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

class Bootstrap:
    """Criterion-5 fixtures: the index shuffle, the B x K gather and the SOSD
    test take all the time, and the engine is never called."""

    name = "bootstrap"
    PROBE_EXPONENT = 0.75
    STATES = (5, 4, 5, 4, 5)
    K = 200
    B = 4000
    RULE = ln.SmoothRule(gamma=1.0, k=1e-5)

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, stream: int, c: int) -> list:
        rng = _rng(self.seed, stream, c)
        ops = []
        for pos, k_states in enumerate(self.STATES):
            gaps = rng.uniform(0.02, 0.05, size=k_states)
            values = (1.0 + np.cumsum(gaps)).tolist()
            masses = _masses(rng, k_states, 0.4, 1.0)
            draws = rng.choice(k_states, size=self.K, p=np.asarray(masses) / sum(masses)).tolist()
            data_seed = int(rng.integers(0, 2**31))
            boot_seed = _boot_seed(self.seed, stream, c, pos)
            ops.append(self._op(values, masses, draws, data_seed, boot_seed, extra=pos == 0))
        return ops

    def _op(self, values, masses, draws, data_seed, boot_seed, extra):
        b, rule = self.B, self.RULE

        def run():
            act = acts.DiscreteAct(range(len(values)), values)
            belief = acts.Belief(masses)
            data = ln.Dataset(draws=tuple(draws), seed=data_seed)
            payoffs = sorted(values)
            v1, v2 = payoffs[0], payoffs[1]
            sosd = ln.coarsening_sosd_bootstrap(act, v1, v2, data, b, boot_seed, true_belief=belief)
            reports = [ln.audit_coarsening_preserves_ce(act, data, rule, b, boot_seed, true_belief=belief)]
            if extra:
                g = acts.DiscreteAct(act.state_ids,
                                     [payoffs[-1] if j % 3 == 0 else v for j, v in enumerate(values)])
                reports.append(ln.audit_mixture_preserves_ce(act, g, data, rule, b, boot_seed))
                reports.append(ln.audit_near_constant_split(act, data, rule, b, boot_seed, v1, v2,
                                                            true_belief=belief))
            return act, belief, data, sosd, reports

        def check(out):
            act, belief, data, _sosd, reports = out
            problems = []
            merged = ln.coarsen_act(act, min(values), sorted(values)[1], "empirical_mean",
                                    true_belief=belief, data=data)
            for f in (act, merged):
                mean = ln.bootstrap_errors(f, data, b, boot_seed).mean()
                if abs(mean) > 1e-12:
                    problems.append(f"balanced bootstrap error mean {mean!r}")
            for rep in reports:
                if rep.violations:
                    problems.append(f"audit violations {rep.violations}")
            return problems

        return Op("ln.bootstrap_audits", run, check, resamples=True)


WORKLOADS = {w.name: w for w in (LargeLadders, AppSolvers, SmallExact, Bootstrap)}
