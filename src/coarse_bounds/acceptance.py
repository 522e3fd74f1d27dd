"""Acceptance suites: every release criterion as a runnable check.

Each criterion function returns a :class:`CriterionResult`; ``run_all``
executes the requested suites with a base seed and collects results. The
report contains no timing or environment data, so two runs with the same
seed produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .acts import Belief, DiscreteAct, ValueLadder, negate_ladder
from .engine import (
    bound,
    brute_force_bound,
    perceived_distribution,
    siminf,
    simsup,
)
from .errors import PreconditionError
from . import learning as ln
from .preferences import (
    Attitude,
    Verdict,
    are_comonotone,
    mix,
    simple_bounds_compare,
    value,
)
from .statics import (
    capacity_profile,
    increasing_differences_holds,
    mlr_cutoff_monotonicity,
    mlr_shift,
    nested_marginal_returns,
    sandwich_check,
    sso_monotone_in_interval,
    submodular_delta_holds,
    submodularity_gap,
    supermodular_coarse_holds,
)
from .applications.crra import CRRAUtility
from .applications import insurance as ins
from .applications import portfolio as pf
from .applications import contracts as ct


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# shared random instance generators
# ---------------------------------------------------------------------------

# Both mass helpers normalise uniform(low, 1) weights and move the rounding
# residue onto the largest mass. They differ only in whose sum the residue is
# taken against, Python's or numpy's, and each seeded instance depends on it.

def _list_masses(rng: np.random.Generator, size: int, low: float) -> list:
    w = rng.uniform(low, 1.0, size=size)
    masses = (w / w.sum()).tolist()
    masses[int(np.argmax(masses))] += 1.0 - sum(masses)
    return masses


def _array_masses(rng: np.random.Generator, size: int, low: float) -> list:
    w = rng.uniform(low, 1.0, size=size)
    masses = w / w.sum()
    masses[int(np.argmax(masses))] += 1.0 - masses.sum()
    return masses.tolist()


def dyadic_ladder(rng: np.random.Generator, max_levels: int = 12) -> ValueLadder:
    """Masses k/2^10 and small integer levels: exact float sums."""
    length = int(rng.integers(1, max_levels + 1))
    levels = sorted(rng.choice(np.arange(-16, 17), size=length, replace=False).tolist())
    denom = 1 << 10
    cuts = sorted(rng.choice(np.arange(1, denom), size=length - 1, replace=False).tolist())
    edges = [0, *cuts, denom]
    masses = [(edges[i + 1] - edges[i]) / denom for i in range(length)]
    return ValueLadder([float(v) for v in levels], masses)


# Smallest gap between two levels of a float_ladder: a draw with a closer pair
# is redrawn, so no two levels of a float instance tie to within rounding.
MIN_LEVEL_GAP = 1e-6


def float_ladder(rng: np.random.Generator, max_levels: int = 12,
                 min_levels: int = 1) -> ValueLadder:
    length = int(rng.integers(min_levels, max_levels + 1))
    levels = np.sort(rng.uniform(-10.0, 10.0, size=length))
    while np.any(np.diff(levels) < MIN_LEVEL_GAP):
        levels = np.sort(rng.uniform(-10.0, 10.0, size=length))
    return ValueLadder(levels.tolist(), _array_masses(rng, length, 0.05))


def random_act_belief(rng: np.random.Generator, max_states: int):
    k = int(rng.integers(2, max_states + 1))
    values = rng.uniform(-5.0, 5.0, size=k).tolist()
    return DiscreteAct(range(k), values), Belief(_array_masses(rng, k, 0.05))


# ---------------------------------------------------------------------------
# criterion 1 and 2: oracle equivalence and structural invariants
# ---------------------------------------------------------------------------

# Rounding slack of criteria 1, 2 and 4 on float ladders (levels in [-10, 10],
# masses summing to 1): the bounds, cdfs and expectations they compare are at
# most 10 in size and round by some ulps of it, about 1e-14. The relative
# comparisons scale it by the larger of 1 and the reference's size.
BOUND_TOL = 1e-12


def criterion_oracle_equivalence(seed: int) -> CriterionResult:
    n_instances = 10_000
    rng = np.random.default_rng(seed)
    bad = 0
    half = n_instances // 2
    for i in range(n_instances):
        dyadic = i < half
        lad = dyadic_ladder(rng) if dyadic else float_ladder(rng)
        n = int(rng.integers(1, 6))
        for kind in ("lower", "upper"):
            dp = bound(lad, n, kind)
            oracle = brute_force_bound(lad, n, kind)
            if dyadic:
                ok = dp.value == oracle.bound.value and dp.cutoffs.cuts == oracle.optima[0]
            else:
                ref = oracle.bound.value
                ok = abs(dp.value - ref) <= BOUND_TOL * max(1.0, abs(ref))
            if not ok:
                bad += 1
    return CriterionResult(
        1, "oracle equivalence",
        bad == 0,
        f"{n_instances} instances ({half} dyadic exact, "
        f"{n_instances - half} float at {BOUND_TOL:g}), {bad} mismatches",
    )


def criterion_structural_invariants(seed: int) -> CriterionResult:
    n_instances = 2_000
    rng = np.random.default_rng(seed + 1)
    bad = []
    for i in range(n_instances):
        dyadic = i % 2 == 0
        lad = dyadic_ladder(rng) if dyadic else float_ladder(rng)
        expect = lad.expectation()
        prev_lo, prev_hi = -np.inf, np.inf
        for n in range(1, 7):
            lo, hi = siminf(lad, n), simsup(lad, n)
            if lo.value > expect + BOUND_TOL or hi.value < expect - BOUND_TOL:
                bad.append((i, n, "sandwich"))
            if lo.value < prev_lo - BOUND_TOL or hi.value > prev_hi + BOUND_TOL:
                bad.append((i, n, "monotone"))
            prev_lo, prev_hi = lo.value, hi.value
            dual = -siminf(negate_ladder(lad), n).value
            if dyadic:
                if hi.value != dual:
                    bad.append((i, n, "duality"))
            elif abs(hi.value - dual) > BOUND_TOL * max(1.0, abs(dual)):
                bad.append((i, n, "duality"))
            if len(lad) <= n and not (lo.exact and hi.exact):
                bad.append((i, n, "exactness"))
            if any(b > v for b, v in zip(lo.bound_values, lad.levels)):
                bad.append((i, n, "dominance"))
            if any(b < v for b, v in zip(hi.bound_values, lad.levels)):
                bad.append((i, n, "dominance"))
        if len(lad) >= 2:
            prof = capacity_profile(lad, min(6, len(lad)), "lower")
            if not (prof.monotone and prof.concave):
                bad.append((i, 0, "profile"))
    return CriterionResult(
        2, "structural invariants",
        not bad,
        f"{n_instances} instances x capacities 1..6, {len(bad)} violations",
    )


# ---------------------------------------------------------------------------
# criterion 3: lattice suite
# ---------------------------------------------------------------------------

def criterion_lattice_suite(seed: int) -> CriterionResult:
    n_instances = 1_000
    rng = np.random.default_rng(seed + 2)
    fails = {}

    def note(name):
        fails[name] = fails.get(name, 0) + 1

    # submodularity of the cell function
    for _ in range(n_instances):
        lad = dyadic_ladder(rng, max_levels=12)
        if len(lad) < 3:
            continue
        lo_o = int(rng.integers(0, len(lad) - 2))
        hi_o = int(rng.integers(lo_o + 2, len(lad)))
        lo_i = int(rng.integers(lo_o, hi_o - 1))
        hi_i = int(rng.integers(lo_i + 1, hi_o + 1))
        split = int(rng.integers(lo_i + 1, hi_i + 1))
        if not submodular_delta_holds(lad, (lo_o, hi_o), (lo_i, hi_i), split):
            note("submodularity")
        strict = (lo_o, hi_o) != (lo_i, hi_i)
        if strict:
            gap_o = submodularity_gap(lad, (lo_o, hi_o), split)
            gap_i = submodularity_gap(lad, (lo_i, hi_i), split)
            if not gap_o > gap_i:
                note("submodularity-strict")

    # supermodular coarse value
    for _ in range(n_instances):
        lad = dyadic_ladder(rng, max_levels=12)
        if len(lad) < 4:
            continue
        k = int(rng.integers(1, min(4, len(lad) - 1) + 1))
        cuts_a = tuple(sorted(rng.choice(np.arange(1, len(lad)), size=k, replace=False).tolist()))
        cuts_b = tuple(sorted(rng.choice(np.arange(1, len(lad)), size=k, replace=False).tolist()))
        if not supermodular_coarse_holds(lad, cuts_a, cuts_b):
            note("supermodular")

    # weakly sandwiched optimal cutoffs across capacities
    for _ in range(n_instances):
        lad = dyadic_ladder(rng, max_levels=12)
        n = int(rng.integers(1, 5))
        if not sandwich_check(lad, n):
            note("sandwich")

    # strong set order in the interval
    checked = 0
    while checked < n_instances:
        lad = dyadic_ladder(rng, max_levels=12)
        n = int(rng.integers(2, 5))
        if len(lad) < n + 2:
            continue
        span = int(rng.integers(n, len(lad)))
        lo1 = int(rng.integers(0, len(lad) - span + 1))
        lo2 = int(rng.integers(lo1, len(lad) - span + 1))
        checked += 1
        if not sso_monotone_in_interval(lad, n, (lo1, lo1 + span - 1), (lo2, lo2 + span - 1)):
            note("sso")

    # nested marginal returns, precondition-filtered
    checked = 0
    attempts = 0
    while checked < n_instances and attempts < 20 * n_instances:
        attempts += 1
        lad = dyadic_ladder(rng, max_levels=12)
        n = int(rng.integers(2, 5))
        if len(lad) < n + 3:
            continue
        lo_s = int(rng.integers(0, 3))
        hi_s = int(rng.integers(len(lad) - 3, len(lad)))
        if hi_s - lo_s + 1 < n + 1:
            continue
        inner_lo = int(rng.integers(lo_s, lo_s + 2))
        inner_hi = int(rng.integers(hi_s - 1, hi_s + 1))
        if inner_hi - inner_lo + 1 < n + 1:
            continue
        try:
            ok = nested_marginal_returns(lad, n, (inner_lo, inner_hi), (lo_s, hi_s))
        except PreconditionError:
            continue
        checked += 1
        if not ok:
            note("nested-marginal")

    # MLR cutoff monotonicity
    for _ in range(n_instances):
        lad = dyadic_ladder(rng, max_levels=12)
        n = int(rng.integers(1, 5))
        lam = float(rng.uniform(0.1, 1.5))
        weights = np.exp(lam * np.arange(len(lad)))
        shift = mlr_shift(lad.level_masses, weights.tolist())
        if not mlr_cutoff_monotonicity(lad, shift, n):
            note("mlr")

    # increasing differences of the coarse value
    for _ in range(n_instances):
        lad = dyadic_ladder(rng, max_levels=12)
        if len(lad) < 5:
            continue
        hi_big = len(lad) - 1
        hi_small = int(rng.integers(3, hi_big + 1))
        k = int(rng.integers(1, 3))
        if hi_small < k + 1:
            continue
        pool = np.arange(1, hi_small + 1)
        cuts_a = tuple(sorted(rng.choice(pool, size=k, replace=False).tolist()))
        cuts_b = tuple(sorted(rng.choice(pool, size=k, replace=False).tolist()))
        hi_c, lo_c = (cuts_a, cuts_b) if cuts_a[-1] >= cuts_b[-1] else (cuts_b, cuts_a)
        if not increasing_differences_holds(lad, 0, hi_small, hi_big, hi_c, lo_c):
            note("increasing-differences")

    detail = (
        f"{n_instances} instances per check, failures: "
        + (", ".join(f"{k}={v}" for k, v in sorted(fails.items())) if fails else "none")
    )
    return CriterionResult(3, "lattice suite", not fails, detail)


# ---------------------------------------------------------------------------
# criterion 4: perceived distributions
# ---------------------------------------------------------------------------

def criterion_perceived_distributions(seed: int) -> CriterionResult:
    n_instances = 1_000
    rng = np.random.default_rng(seed + 3)
    bad = 0
    for _ in range(n_instances):
        lad = float_ladder(rng, max_levels=10)
        grid = lad.levels
        prev = -np.inf
        for m in range(1, len(lad) + 1):
            pc = perceived_distribution(lad, m, "cautious")
            pr = perceived_distribution(lad, m, "reckless")
            for x in grid:
                base = sum(mm for v, mm in zip(lad.levels, lad.level_masses) if v <= x)
                if pc.cdf(x) < base - BOUND_TOL or pr.cdf(x) > base + BOUND_TOL:
                    bad += 1
            if pc.expectation() < prev - BOUND_TOL:
                bad += 1
            prev = pc.expectation()
        if abs(prev - lad.expectation()) > BOUND_TOL * max(1.0, abs(lad.expectation())):
            bad += 1
    return CriterionResult(
        4, "perceived-distribution order and convergence",
        bad == 0,
        f"{n_instances} instances, {bad} violations",
    )


# ---------------------------------------------------------------------------
# criterion 5: learning suite
# ---------------------------------------------------------------------------

# Slack k of criterion 5's smooth rule, a statistical threshold: an act is
# weakly preferred to c when its score clears phi(c) - k (learning.SmoothRule).
RULE_SLACK = 1e-5


def _learning_fixture(rng: np.random.Generator):
    """Acts with small dispersion around a unit base.

    At B = 4000 replicates the wrong-direction noise of an empirical
    integrated cdf scales like sd(errors)/B, so keeping the payoff span
    near 0.1 puts that noise well under the 1e-6 gap band while the
    variance removed by a two-cell merge still clears the band by orders
    of magnitude.
    """
    k_states = int(rng.integers(4, 6))
    states = tuple(range(k_states))
    gaps = rng.uniform(0.02, 0.05, size=k_states)
    values = 1.0 + np.cumsum(gaps)
    act = DiscreteAct(states, values.tolist())
    return act, Belief(_array_masses(rng, k_states, 0.4))


def criterion_learning(seed: int) -> CriterionResult:
    n_fixtures, k, b = 200, 200, 4_000
    rng = np.random.default_rng(seed + 4)
    rule = ln.SmoothRule(gamma=1.0, k=RULE_SLACK)
    sosd_pass = 0
    audit_checked = 0
    audit_failed = 0
    a2_failed = 0
    a3_failed = 0
    for i in range(n_fixtures):
        act, belief = _learning_fixture(rng)
        data = ln.draw_sample(belief, act.state_ids, k, seed=seed * 1_000_003 + i)
        boot_seed = seed * 2_000_003 + i
        payoffs = sorted(ln.value_cells(act))
        v1, v2 = payoffs[0], payoffs[1]
        if ln.coarsening_sosd_bootstrap(act, v1, v2, data, b, boot_seed, true_belief=belief):
            sosd_pass += 1
        report = ln.audit_coarsening_preserves_ce(act, data, rule, b, boot_seed, true_belief=belief)
        if report.precondition_met:
            audit_checked += 1
            if report.violations:
                audit_failed += 1
        if i < 50:
            patch_value = payoffs[-1]
            g_values = [
                patch_value if j % 3 == 0 else v
                for j, v in enumerate(act.values)
            ]
            g = DiscreteAct(act.state_ids, g_values)
            a2 = ln.audit_mixture_preserves_ce(act, g, data, rule, b, boot_seed)
            if a2.precondition_met and a2.violations:
                a2_failed += 1
            a3 = ln.audit_near_constant_split(act, data, rule, b, boot_seed, v1, v2,
                                              true_belief=belief)
            if a3.precondition_met and a3.violations:
                a3_failed += 1
    rate = sosd_pass / n_fixtures
    passed = (
        rate >= 0.95
        and audit_failed == 0
        and audit_checked > 0
        and a2_failed == 0
        and a3_failed == 0
    )
    return CriterionResult(
        5, "learning suite",
        passed,
        f"coarsening SOSD {sosd_pass}/{n_fixtures} (need >=95%), "
        f"certain-equivalent audit {audit_checked - audit_failed}/{audit_checked}, "
        f"mixture audit fails {a2_failed}, split audit fails {a3_failed}",
    )


# ---------------------------------------------------------------------------
# criterion 6: insurance suite
# ---------------------------------------------------------------------------

# Rounding slack of criterion 6's comparisons of sensitivities (responses),
# each a difference of plan values (utilities near -0.6) over a step of order
# 1e-2: they round by some ulps of 0.6 over 1e-2, about 1e-14.
RESPONSE_TOL = 1e-9
# Slack of criterion 6 on the order of willingness to pay across capacities:
# each wtp lies within half of insurance.WTP_TOL (1e-8) of its root, so two of
# them may stray from their true order by 1e-8; the slack is ten times that.
WTP_ORDER_TOL = 1e-7
# Floor of criterion 6's grid-convergence band, 5% of the larger statistic:
# two statistics near zero on both grids must agree to within 5% of it.
GRID_FLOOR = 1e-9


def _insurance_stats(model: ins.LossModel, u, n: int):
    base = ins.InsuranceContract(premium=0.05, deductible=0.3, coverage=0.75,
                                 cap=None, wealth=2.0)
    full = ins.InsuranceContract(premium=0.05, deductible=0.3, coverage=1.0,
                                 cap=None, wealth=2.0)
    h = 2.0 * (model.max_loss / len(model))
    return {
        "sens_d": ins.sensitivity(base, model, u, n, "deductible", h),
        "sens_c": ins.sensitivity(base, model, u, n, "coverage", h),
        "wtp_d": ins.wtp(full, model, u, n, "lower_deductible", 0.1),
        "value": ins.plan_value(base, model, u, n),
    }


def criterion_insurance(seed: int) -> CriterionResult:
    u = CRRAUtility(2.0)
    issues = []
    models = {
        "uniform": ins.LossModel.uniform(1.0, 200),
        "tilted": ins.LossModel.uniform(1.0, 200).tilted(1.5),
    }
    ds = (0.15, 0.25, 0.35, 0.45, 0.55)
    cs = (0.5, 0.62, 0.75, 0.88, 1.0)
    ns = (2, 3, 5, 8)
    for name, model in models.items():
        h = 2.0 * (model.max_loss / len(model))
        n_inf = len(model)
        for d in ds:
            for c in cs:
                contract = ins.InsuranceContract(0.05, d, c, None, 2.0)
                side = "backward" if c == 1.0 else "central"
                ref_d = ins.sensitivity(contract, model, u, n_inf, "deductible", h)
                ref_c = ins.sensitivity(contract, model, u, n_inf, "coverage", h, side=side)
                for n in ns:
                    sd = ins.sensitivity(contract, model, u, n, "deductible", h)
                    sc = ins.sensitivity(contract, model, u, n, "coverage", h, side=side)
                    if abs(sd) < abs(ref_d) - RESPONSE_TOL or abs(sc) < abs(ref_c) - RESPONSE_TOL:
                        issues.append(f"over-reaction {name} d={d} c={c} N={n}")
                    if c < 1.0 and not abs(sd) > abs(ref_d) + RESPONSE_TOL:
                        issues.append(f"strict deductible over-reaction {name} d={d} c={c} N={n}")
        # responses shrink with capacity under full coverage
        for d in (0.25, 0.4):
            contract = ins.InsuranceContract(0.05, d, 1.0, None, 2.0)
            prev_d, prev_c = np.inf, np.inf
            for n in ns:
                sd = abs(ins.sensitivity(contract, model, u, n, "deductible", h))
                sc = abs(ins.sensitivity(contract, model, u, n, "coverage", h, side="backward"))
                if sd > prev_d + RESPONSE_TOL or sc > prev_c + RESPONSE_TOL:
                    issues.append(f"capacity monotonicity {name} d={d} N={n}")
                prev_d, prev_c = sd, sc
        # willingness to pay falls with capacity
        full = ins.InsuranceContract(0.05, 0.3, 1.0, None, 2.0)
        capped = ins.InsuranceContract(0.05, 0.2, 0.8, 0.5, 2.0)
        prev_w1, prev_w2 = np.inf, np.inf
        for n in (2, 3, 4, 5, 6, 7, 8):
            w1 = ins.wtp(full, model, u, n, "lower_deductible", 0.1)
            w2 = ins.wtp(capped, model, u, n, "lower_cap", 0.1)
            if w1 > prev_w1 + WTP_ORDER_TOL or w2 > prev_w2 + WTP_ORDER_TOL:
                issues.append(f"wtp monotonicity {name} N={n}")
            prev_w1, prev_w2 = w1, w2

    # kink avoidance over full optimum sets on oracle-sized grids
    rng = np.random.default_rng(seed + 6)
    small = ins.LossModel.uniform(1.0, 21)
    for _ in range(40):
        d = float(rng.uniform(0.2, 0.6))
        c = float(rng.uniform(0.5, 1.0))
        n = int(rng.integers(2, 5))
        contract = ins.InsuranceContract(0.05, d, c, None, 2.0)
        if not ins.kink_avoidance(contract, small, u, n):
            issues.append(f"kink d={d:.3f} c={c:.3f} N={n}")
    # full insurance: highest cutoff strictly below the deductible
    fi = ins.InsuranceContract(0.05, 0.4, 1.0, None, 2.0)
    cuts = ins.plan_cutoffs(fi, small, u, 3)
    if not (cuts and max(cuts) < 0.4):
        issues.append("full-insurance highest cutoff not below deductible")

    # dominated low-deductible plans: single crossing in beliefs and capacity
    base = ins.InsuranceContract(0.05, 0.35, 0.6, None, 2.0)
    model200 = models["uniform"]
    for n in (2, 3, 4):
        flags = [
            ins.dominated_pair(base, 0.15, model200.tilted(lam), u, n).indifferent
            for lam in (0.0, 0.75, 1.5, 2.25, 3.0)
        ]
        if any(a and not b for a, b in zip(flags, flags[1:])):
            issues.append(f"belief single crossing N={n}: {flags}")
    for lam in (1.5, 2.25, 3.0):
        tilted = model200.tilted(lam)
        flags = [
            ins.dominated_pair(base, 0.15, tilted, u, n).indifferent
            for n in (2, 3, 4, 6)
        ]
        if any((not a) and b for a, b in zip(flags, flags[1:])):
            issues.append(f"capacity single crossing lam={lam}: {flags}")
        res = ins.dominated_pair(base, 0.15, tilted, u, len(tilted))
        if res.indifferent:
            issues.append(f"indifference at full capacity lam={lam}")
        for n in (2, 3, 4, 6):
            r = ins.dominated_pair(base, 0.15, tilted, u, n)
            if r.indifferent != r.lowest_cutoff_ok:
                issues.append(f"cutoff condition mismatch lam={lam} N={n}")

    # grid convergence: doubling the grid moves each statistic by < 5%
    for name, model in models.items():
        fine = ins.LossModel.uniform(1.0, 400)
        if name == "tilted":
            fine = fine.tilted(1.5)
        coarse_stats = _insurance_stats(model, u, 3)
        fine_stats = _insurance_stats(fine, u, 3)
        for key in coarse_stats:
            a, b = coarse_stats[key], fine_stats[key]
            if abs(a - b) > 0.05 * max(abs(a), abs(b), GRID_FLOOR):
                issues.append(f"grid convergence {name} {key}: {a} vs {b}")

    detail = f"{len(issues)} issues" + (f": {issues[:4]}" if issues else "")
    return CriterionResult(6, "insurance suite", not issues, detail)


# ---------------------------------------------------------------------------
# criterion 7: portfolio suite
# ---------------------------------------------------------------------------

# Slack of criterion 7 on a solved share, savings total or price against its
# comparator: the share and savings searches stop at brackets 1e-6 and 1e-9
# wide, and the price when successive difference quotients agree within 1e-7.
SOLVER_TOL = 1e-6
# Rounding slack of criterion 7 on the order of the prices (near 1) across
# capacities, each the difference quotient of one sequence of steps.
PRICE_ORDER_TOL = 1e-9


def criterion_portfolio(seed: int) -> CriterionResult:
    issues = []
    rng = np.random.default_rng(seed + 7)
    grid = np.linspace(0.7, 1.6, 40)
    masses = _list_masses(rng, 40, 0.5)
    base = pf.PortfolioProblem(
        endowment=1.0, safe_return=1.02, risky_returns=grid.tolist(),
        risky_masses=masses, beta=1 / 1.02, utility=CRRAUtility(2.0),
        capacity=3, attitude="cautious",
    )
    for gamma in (1.0, 2.0, 3.0):
        prob = replace(base, utility=CRRAUtility(gamma))
        full = replace(prob, capacity=prob.grid_size)
        for x in (0.3, 0.5):
            a_n = pf.solve_allocation(prob, x)
            a_inf = pf.solve_allocation(full, x)
            if a_n > a_inf + SOLVER_TOL:
                issues.append(f"allocation gamma={gamma} x={x}: {a_n} > {a_inf}")
        s_n = pf.solve_savings(prob)
        s_inf = pf.solve_savings(full)
        if s_n.total < s_inf.total - SOLVER_TOL:
            issues.append(f"savings gamma={gamma}: {s_n.total} < {s_inf.total}")
    closed_form = base.beta * float(np.dot(grid, masses))
    caps = (1, 2, 3, 5, 10, 20, base.grid_size)
    prices = [pf.equilibrium_price(replace(base, capacity=n)) for n in caps]
    if any(b < a - PRICE_ORDER_TOL for a, b in zip(prices, prices[1:])):
        issues.append(f"cautious prices not increasing: {prices}")
    if abs(prices[-1] - closed_form) > SOLVER_TOL:
        issues.append(f"price at full capacity {prices[-1]} vs closed form {closed_form}")
    reckless = replace(base, attitude="reckless")
    prices_r = [pf.equilibrium_price(replace(reckless, capacity=n)) for n in caps]
    if any(b > a + PRICE_ORDER_TOL for a, b in zip(prices_r, prices_r[1:])):
        issues.append(f"reckless prices not decreasing: {prices_r}")
    detail = f"{len(issues)} issues" + (f": {issues[:3]}" if issues else "")
    return CriterionResult(7, "portfolio suite", not issues, detail)


# ---------------------------------------------------------------------------
# criterion 8: contracting suite
# ---------------------------------------------------------------------------

# Rounding slack of criterion 8 on agent and principal values (utilities and
# outputs less wages, of order 1): an agent value gap within it counts as
# none, and a principal gain must exceed it to count as strict.
CONTRACT_TOL = 1e-12


def _contracting_problem(rng: np.random.Generator, n_outputs: int):
    outputs = np.linspace(0.5, 4.0, n_outputs)

    def tilt(lam):
        w = np.exp(lam * np.linspace(0.0, 1.0, n_outputs))
        return tuple((w / w.sum()).tolist())

    efforts = ("low", "mid", "high")
    dists = (tilt(-1.0), tilt(0.8), tilt(2.0))
    costs = {"low": 0.0, "mid": float(rng.uniform(0.1, 0.25)),
             "high": float(rng.uniform(0.3, 0.5))}
    principal_u = lambda output, wage: output - wage
    wage_grid = tuple(np.linspace(0.05, 3.0, 60).tolist())
    return ct.ContractingProblem(tuple(outputs.tolist()), efforts, dists,
                                 ct.sqrt_wage_utility(costs), principal_u, wage_grid)


def criterion_contracting(seed: int) -> CriterionResult:
    n_instances = 100
    rng = np.random.default_rng(seed + 8)
    issues = []
    strict_gain_seen = False
    for i in range(n_instances):
        prob = _contracting_problem(rng, 20)
        schedule = np.sort(rng.choice(prob.wage_grid, size=20)).tolist()
        n = int(rng.integers(2, 5))
        result = ct.simplify_contract(prob, schedule, n)
        if not result.effort_unchanged:
            issues.append(f"effort changed at {i}")
        if result.agent_value_gap > CONTRACT_TOL:
            issues.append(f"agent value moved at {i}: {result.agent_value_gap}")
        if not result.principal_pointwise_ok:
            issues.append(f"principal worse somewhere at {i}")
        if len(set(result.schedule)) > n:
            issues.append(f"not capacity-simple at {i}")
        effort = result.induced_effort
        if ct.principal_value(prob, result.schedule, effort) > ct.principal_value(
            prob, schedule, effort
        ) + CONTRACT_TOL:
            strict_gain_seen = True
    if not strict_gain_seen:
        issues.append("no instance with a strict principal gain")

    bait_ok = 0
    for i in range(40):
        prob = _contracting_problem(rng, 30)
        base = np.sort(rng.uniform(0.1, 2.5, size=30))
        base = base + np.linspace(0.0, 0.3, 30)  # strictly increasing
        schedule = base.tolist()
        n = int(rng.integers(2, 5))
        try:
            bnd = ct.bait_feasibility_bound(prob, schedule, n, epsilon=0.05)
        except (ct.InfeasibleConstructionError, PreconditionError):
            continue
        if bnd <= 0:
            continue
        try:
            res = ct.reckless_bait(prob, schedule, n, epsilon=0.05, delta=bnd / 2)
        except ct.InfeasibleConstructionError:
            continue
        bait_ok += 1
        if not (
            res.effort_unchanged
            and res.perceived_value_gap <= CONTRACT_TOL
            and res.principal_gain > 0
            and res.has_top_jump
        ):
            issues.append(f"bait verification failed at {i}")
    if bait_ok < 20:
        issues.append(f"too few feasible bait fixtures: {bait_ok}")
    detail = (
        f"{n_instances} simplifications, {bait_ok} bait constructions, "
        f"{len(issues)} issues" + (f": {issues[:3]}" if issues else "")
    )
    return CriterionResult(8, "contracting suite", not issues, detail)


# ---------------------------------------------------------------------------
# criterion 9: preference suite
# ---------------------------------------------------------------------------

# Rounding slack of criterion 9's value comparisons: the acts, their shifts
# and mixtures pay at most about 12 in size, so their values round by some
# ulps of it, about 1e-14.
PREFERENCE_TOL = 1e-9
# Margin by which an uncertainty-aversion witness's mixture must fall below
# the acts' common value, so that rounding alone cannot make a witness.
WITNESS_MARGIN = 1e-6


def criterion_preferences(seed: int) -> CriterionResult:
    n_checks = 10_000
    rng = np.random.default_rng(seed + 9)
    per = n_checks // 4
    issues = []

    # comonotonic mixture aversion
    for _ in range(per):
        k = int(rng.integers(2, 7))
        states = tuple(range(k))
        f_vals = np.sort(rng.uniform(-4.0, 4.0, size=k))
        g_vals = np.sort(rng.uniform(-4.0, 4.0, size=k))
        belief = Belief(_list_masses(rng, k, 0.1))
        f = DiscreteAct(states, f_vals.tolist())
        n = int(rng.integers(1, 4))
        vf = value(f, belief, n, Attitude.CAUTIOUS)
        g0 = DiscreteAct(states, g_vals.tolist())
        vg = value(g0, belief, n, Attitude.CAUTIOUS)
        g = DiscreteAct(states, (g_vals + (vf - vg)).tolist())
        if not are_comonotone(f, g, belief):
            continue
        common = max(vf, value(g, belief, n, Attitude.CAUTIOUS))
        for alpha in (0.25, 0.5, 0.75):
            if value(mix(f, g, alpha), belief, n, Attitude.CAUTIOUS) > common + PREFERENCE_TOL:
                issues.append("comonotone mixture aversion")
                break

    # capacity-simple mixtures of indifferent acts are weakly better
    for _ in range(per):
        k = int(rng.integers(3, 7))
        n = int(rng.integers(1, 4))
        states = tuple(range(k))
        belief = Belief(_list_masses(rng, k, 0.1))
        groups = rng.integers(0, n, size=k)
        base_vals = rng.uniform(-3.0, 3.0, size=n)
        m_act = DiscreteAct(states, [float(base_vals[g]) for g in groups])
        alphas = rng.dirichlet(np.ones(3))
        perts = [rng.uniform(-1.0, 1.0, size=k) for _ in range(2)]
        last = -(alphas[0] * perts[0] + alphas[1] * perts[1]) / alphas[2]
        perts.append(last)
        acts = []
        for p in perts:
            acts.append(DiscreteAct(states, (np.asarray(m_act.values) + p).tolist()))
        target = value(acts[0], belief, n, Attitude.CAUTIOUS)
        adjusted = [acts[0]]
        for a in acts[1:]:
            va = value(a, belief, n, Attitude.CAUTIOUS)
            adjusted.append(DiscreteAct(states, [v + (target - va) for v in a.values]))
        mixed_vals = sum(
            al * np.asarray(a.values) for al, a in zip(alphas, adjusted)
        )
        mixed = DiscreteAct(states, mixed_vals.tolist())
        if value(mixed, belief, n, Attitude.CAUTIOUS) < target - PREFERENCE_TOL:
            issues.append("capacity-simple mixture aversion reversed")

    # linearity on capacity-simple acts sharing a partition
    for _ in range(per):
        k = int(rng.integers(3, 7))
        n = int(rng.integers(1, 4))
        states = tuple(range(k))
        belief = Belief(_list_masses(rng, k, 0.1))
        groups = rng.integers(0, n, size=k)
        vals = [rng.uniform(-3.0, 3.0, size=n) for _ in range(3)]
        f, g, h = (
            DiscreteAct(states, [float(v[gi]) for gi in groups]) for v in vals
        )
        alpha = float(rng.uniform(0.1, 0.9))
        lhs = value(mix(f, h, alpha), belief, n, Attitude.CAUTIOUS) - value(
            mix(g, h, alpha), belief, n, Attitude.CAUTIOUS
        )
        rhs = alpha * (
            value(f, belief, n, Attitude.CAUTIOUS)
            - value(g, belief, n, Attitude.CAUTIOUS)
        )
        if abs(lhs - rhs) > PREFERENCE_TOL:
            issues.append("linearity on shared partitions")

    # completion consistency
    for _ in range(per):
        f, belief = random_act_belief(rng, max_states=7)
        g = DiscreteAct(f.state_ids, rng.uniform(-5.0, 5.0, size=len(f)).tolist())
        n = int(rng.integers(1, 4))
        verdict = simple_bounds_compare(f, g, belief, n).verdict
        if verdict is Verdict.STRICTLY_PREFERS_F:
            for att in (Attitude.CAUTIOUS, Attitude.RECKLESS):
                if value(f, belief, n, att) < value(g, belief, n, att) - PREFERENCE_TOL:
                    issues.append("completion consistency")
        elif verdict is Verdict.INDIFFERENT:
            for att in (Attitude.CAUTIOUS, Attitude.RECKLESS):
                if abs(value(f, belief, n, att) - value(g, belief, n, att)) > PREFERENCE_TOL:
                    issues.append("indifference value gap")

    witness = find_uncertainty_aversion_failure(seed)
    if witness is None:
        issues.append("no uncertainty-aversion failure witness found")

    detail = f"{n_checks} checks, {len(issues)} issues" + (
        f": {sorted(set(issues))[:3]}" if issues else ""
    )
    return CriterionResult(9, "preference suite", not issues, detail)


def find_uncertainty_aversion_failure(seed: int):
    """Search for comonotone acts with equal cautious values whose mixture is
    strictly worse: the classic uncertainty-aversion violation."""
    rng = np.random.default_rng(seed + 10)
    for _ in range(5_000):
        k = int(rng.integers(3, 7))
        states = tuple(range(k))
        belief = Belief(_list_masses(rng, k, 0.1))
        n = int(rng.integers(2, 4))
        f = DiscreteAct(states, np.sort(rng.uniform(-4.0, 4.0, size=k)).tolist())
        g0 = DiscreteAct(states, np.sort(rng.uniform(-4.0, 4.0, size=k)).tolist())
        vf = value(f, belief, n, Attitude.CAUTIOUS)
        vg = value(g0, belief, n, Attitude.CAUTIOUS)
        g = DiscreteAct(states, [v + (vf - vg) for v in g0.values])
        if not are_comonotone(f, g, belief):
            continue
        mixed = mix(f, g, 0.5)
        if value(mixed, belief, n, Attitude.CAUTIOUS) < vf - WITNESS_MARGIN:
            return f, g, belief, n
    return None


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

SUITES = {
    "engine": (criterion_oracle_equivalence, criterion_structural_invariants),
    "statics": (criterion_lattice_suite, criterion_perceived_distributions),
    "learning": (criterion_learning,),
    "insurance": (criterion_insurance,),
    "portfolio": (criterion_portfolio,),
    "contract": (criterion_contracting,),
    "preferences": (criterion_preferences,),
}


def run_all(seed: int = 0, suite: str = "all") -> list:
    names = list(SUITES) if suite == "all" else [suite]
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        for fn in SUITES[name]:
            results.append(fn(seed))
    return results


def report_lines(results) -> list:
    lines = [r.line() for r in results]
    status = "ALL PASS" if all(r.passed for r in results) else "FAILURES PRESENT"
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed: {status}")
    return lines
