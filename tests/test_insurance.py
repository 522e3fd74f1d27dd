"""Insurance tests: payment schedule, plan acts and values, over-reaction,
capacity monotonicity, willingness to pay, dominated pairs, kink avoidance."""

import re
from bisect import bisect_left
from dataclasses import replace

import numpy as np
import pytest

from coarse_bounds import engine, preferences
from coarse_bounds.acts import DiscreteAct, ValueLadder, build_ladder
from coarse_bounds.engine import (
    Fill, bound, bound_value, brute_force_bound, optimum_set,
)
from coarse_bounds.errors import (
    AlignmentError, BracketingError, ConvergenceError, NonPositiveWealthError, PreconditionError,
)
from coarse_bounds.applications import insurance
from coarse_bounds.applications.crra import CRRAUtility
from coarse_bounds.applications.insurance import (
    InsuranceContract,
    LossModel,
    consumer_payment,
    dominated_pair,
    has_kink,
    kink_avoidance,
    loss_block_cutoffs,
    plan_act,
    plan_cutoffs,
    plan_value,
    sensitivity,
    utility_act,
    wtp,
)

U = CRRAUtility(2.0)
MODEL = LossModel.from_density(lambda x: 1.0 + 0.5 * x, 1.0, 120)
BASE = InsuranceContract(premium=0.05, deductible=0.3, coverage=0.7, cap=None, wealth=2.0)


class TestConsumerPayment:
    def test_zero_loss(self):
        assert consumer_payment(BASE, 0.0) == 0.0

    def test_below_deductible_pays_all(self):
        assert consumer_payment(BASE, 0.2) == 0.2

    def test_full_coverage_above_deductible(self):
        full = InsuranceContract(0.05, 0.3, 1.0, None, 2.0)
        assert consumer_payment(full, 0.9) == 0.3

    def test_partial_coverage_slope(self):
        assert consumer_payment(BASE, 0.5) == pytest.approx(0.3 + 0.3 * 0.2, rel=1e-15)

    def test_cap_binds(self):
        capped = InsuranceContract(0.05, 0.2, 0.5, 0.4, 2.0)
        assert consumer_payment(capped, 1.0) == 0.4
        assert consumer_payment(capped, 0.3) == pytest.approx(0.25)

    def test_piecewise_shape(self):
        # increasing, kinked at d, flat above the cap
        capped = InsuranceContract(0.05, 0.3, 0.6, 0.5, 2.0)
        losses = np.linspace(0, 1, 101)
        pays = [consumer_payment(capped, x) for x in losses]
        assert all(b >= a - 1e-15 for a, b in zip(pays, pays[1:]))
        assert pays[-1] == 0.5

    def test_negative_loss(self):
        with pytest.raises(ValueError):
            consumer_payment(BASE, -0.1)

    @pytest.mark.parametrize("deductible, cap, message", [
        (float("nan"), None, "deductible must be non-negative"),
        (0.3, float("nan"), "out-of-pocket cap must be non-negative"),
    ])
    def test_nan_contract_rejected(self, deductible, cap, message):
        with pytest.raises(ValueError, match=message):
            InsuranceContract(0.05, deductible, 0.7, cap, 2.0)

    @pytest.mark.parametrize("field", ["premium", "wealth"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_premium_or_wealth_rejected(self, field, value):
        terms = dict(premium=0.05, deductible=0.3, coverage=0.7, cap=None, wealth=2.0)
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
            InsuranceContract(**dict(terms, **{field: value}))


class TestPlanAct:
    def test_full_insurance_constant(self):
        full = InsuranceContract(0.05, 0.0, 1.0, None, 2.0)
        act = plan_act(full, MODEL)
        assert set(act.values) == {2.0 - 0.05}

    def test_autarky(self):
        autarky = InsuranceContract(0.0, 0.0, 0.0, None, 2.0)
        act = plan_act(autarky, MODEL)
        assert act.values == tuple(2.0 - x for x in MODEL.losses)

    def test_wealth_non_increasing_in_loss(self):
        act = plan_act(BASE, MODEL)
        assert all(b <= a + 1e-15 for a, b in zip(act.values, act.values[1:]))

    def test_cap_region_flat(self):
        capped = InsuranceContract(0.05, 0.2, 0.5, 0.4, 2.0)
        act = plan_act(capped, MODEL)
        flat = [v for x, v in zip(MODEL.losses, act.values) if x >= 0.7]
        assert len(set(flat)) == 1


class TestPlanValue:
    def test_full_insurance_any_capacity(self):
        full = InsuranceContract(0.05, 0.0, 1.0, None, 2.0)
        for n in (1, 2, 7):
            assert plan_value(full, MODEL, U, n) == U(1.95)

    def test_capacity_at_grid_size_is_expected_utility(self):
        v = plan_value(BASE, MODEL, U, len(MODEL))
        act = utility_act(BASE, MODEL, U)
        expected = sum(x * m for x, m in zip(act.values, MODEL.masses))
        assert v == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force_on_small_grid(self):
        small = LossModel.uniform(1.0, 50)
        contract = InsuranceContract(0.05, 0.3, 1.0, None, 2.0)
        act = utility_act(contract, small, U)
        ladder = build_ladder(act, small.belief)
        oracle = brute_force_bound(ladder, 3, "lower")
        assert plan_value(contract, small, U, 3) == oracle.bound.value

    def test_loss_space_enumeration_oracle(self):
        # direct loss-space enumeration: blocks evaluate at their highest loss
        from itertools import combinations
        small = LossModel.uniform(1.0, 12)
        contract = InsuranceContract(0.05, 0.4, 0.6, None, 2.0)
        act = utility_act(contract, small, U)
        values = dict(zip(act.state_ids, act.values))
        n = 3
        best = -np.inf
        idx = list(range(len(small)))
        for cuts in combinations(range(1, len(small)), n - 1):
            edges = [0, *cuts, len(small)]
            total = 0.0
            for k in range(len(edges) - 1):
                block = idx[edges[k]:edges[k + 1]]
                mass = sum(small.masses[i] for i in block)
                rep = values[small.losses[max(block)]]
                total += rep * mass
            best = max(best, total)
        assert plan_value(contract, small, U, n) == pytest.approx(best, rel=1e-12)

    def test_monotone_in_capacity(self):
        vals = [plan_value(BASE, MODEL, U, n) for n in range(1, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def per_state_utility_act(contract, model, utility):
    """Reference: utility_act with one scalar utility call per state, as it
    was before ``CRRAUtility.apply``."""
    wealth = plan_act(contract, model)
    return DiscreteAct(wealth.state_ids, [utility(x) for x in wealth.values])


class TestUtilityActMatchesPerStateReference:
    """``utility_act`` and ``plan_value`` equal the per-state reference in
    ``float.hex`` on capped, capless and full-coverage plans."""

    PLANS = {
        "capped": InsuranceContract(0.05, 0.2, 0.6, 0.45, 2.0),
        "capless": BASE,
        "full-coverage": InsuranceContract(0.08, 0.25, 1.0, None, 1.5),
    }

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("plan", PLANS)
    def test_acts_and_values(self, plan, gamma):
        contract, u = self.PLANS[plan], CRRAUtility(gamma)
        for model in (MODEL, LossModel.uniform(1.0, 200).tilted(1.5)):
            act, ref = utility_act(contract, model, u), per_state_utility_act(contract, model, u)
            assert act.state_ids == ref.state_ids
            assert [v.hex() for v in act.values] == [v.hex() for v in ref.values]
            for n in (1, 2, 3, 8):
                for attitude in ("cautious", "reckless"):
                    value = plan_value(contract, model, u, n, attitude)
                    expected = preferences.value(ref, model.belief, n, attitude)
                    assert value.hex() == expected.hex(), (n, attitude)


def per_state_value(contract, model, utility, n, attitude="cautious"):
    return preferences.value(per_state_utility_act(contract, model, utility), model.belief, n,
                             attitude)


def per_state_wtp(contract, model, utility, n, improvement, delta, tol=1e-8):
    """Reference: ``wtp``'s bracket and bisection over per-state plan values."""
    if improvement == "lower_deductible":
        improved = replace(contract, deductible=contract.deductible - delta)
    else:
        improved = replace(contract, cap=contract.cap - delta)
    base = per_state_value(contract, model, utility, n)
    gain = lambda dp: per_state_value(
        replace(improved, premium=improved.premium + dp), model, utility, n) - base
    lo, hi = 0.0, max(delta, 1e-6)
    if gain(lo) < 0:
        raise BracketingError("improvement does not weakly raise the plan value")
    for _ in range(60):
        if gain(hi) < 0:
            break
        hi *= 2.0
        if hi > contract.wealth:
            raise BracketingError("no premium increase offsets the improvement")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gain(mid) >= 0 else (lo, mid)
    return 0.5 * (lo + hi)


def per_state_lowest_cutoff_ok(base, model, utility, n):
    """Reference: some optimal partition of the per-state ladder has its
    lowest loss cutoff at or above the base deductible."""
    act = per_state_utility_act(base, model, utility)
    ladder = build_ladder(act, model.belief)
    if min(n, len(ladder)) == 1:
        return True
    i = bisect_left(model.losses, base.deductible)
    while i < len(model.losses) and model.masses[i] == 0.0:
        i += 1
    if i == len(model.losses):
        return False
    j0 = ladder.levels.index(act.values[i])
    return any(1 <= s <= j0 for s in Fill(ladder, (n,), "lower", None).top_block_starts(n))


def per_state_losses_by_level(act, ladder, model):
    """Reference: the positive-mass losses at each level, grouped by value."""
    losses_at = {}
    for x, v, m in zip(model.losses, act.values, model.masses):
        if m > 0:
            losses_at.setdefault(v, []).append(x)
    return [losses_at[lv] for lv in ladder.levels]


def per_state_cutoffs(contract, model, utility, n):
    """Reference: ``plan_cutoffs`` over the per-state ladder."""
    act = per_state_utility_act(contract, model, utility)
    ladder = build_ladder(act, model.belief)
    cuts = bound(ladder, n, "lower").cutoffs.cuts
    return loss_block_cutoffs(per_state_losses_by_level(act, ladder, model), cuts)


def per_state_kink_avoidance(contract, model, utility, n):
    """Reference: ``kink_avoidance`` over the per-state ladder."""
    if not has_kink(contract):
        return True
    act = per_state_utility_act(contract, model, utility)
    ladder = build_ladder(act, model.belief)
    by_level = per_state_losses_by_level(act, ladder, model)
    kink_point = min(model.losses, key=lambda x: abs(x - contract.deductible))
    return not any(kink_point in loss_block_cutoffs(by_level, cuts)
                   for cuts in optimum_set(ladder, n, "lower"))


def outcome(call):
    """A float result by ``float.hex``, another result as it is, or the type
    and message of the error raised."""
    try:
        result = call()
    except Exception as err:  # noqa: BLE001 - the error is the outcome compared
        return type(err), str(err)
    return result.hex() if isinstance(result, float) else result


def random_plan(rng):
    """A plan on 5-299 losses, a third of the grids starting at loss 0, a
    third holding losses an ulp above their neighbour, so that runs of
    payment merge into one level of utility, tilted by -2 to 3, a quarter
    with zero-mass states. The cap is absent, 0.0, -0.0 or inside the grid,
    and a quarter of the plans cover fully."""
    size = int(rng.integers(5, 300))
    top = float(rng.uniform(0.5, 2.0))
    if rng.random() < 1 / 3:
        losses = np.linspace(0.0, top, size)
    else:
        losses = (np.arange(size) + 0.5) * (top / size)
    if rng.random() < 1 / 3:
        pairs = np.flatnonzero(rng.random(size - 1) < 0.3)
        losses[pairs + 1] = np.nextafter(losses[pairs], np.inf)
    weights = np.exp(rng.uniform(-2.0, 3.0) * losses)
    if rng.random() < 0.25:
        weights = weights * (rng.random(size) > 0.3)
        weights[int(rng.integers(size))] += 1.0
    model = LossModel(losses.tolist(), (weights / weights.sum()).tolist())
    d = float(rng.uniform(0.0, 0.6 * top))
    c = 1.0 if rng.random() < 0.25 else float(rng.uniform(0.2, 0.95))
    cap = [None, 0.0, -0.0, float(rng.uniform(d, top))][int(rng.integers(4))]
    contract = InsuranceContract(float(rng.uniform(0.0, 0.1)), d, c, cap,
                                 float(rng.uniform(top + 0.2, top + 2.0)))
    return contract, model, CRRAUtility(float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0])))


class TestPlanLayoutParity:
    """Plans valued from their payment runs equal the per-state path: values
    in ``float.hex``, and the first error by type and message, which names
    the state's wealth."""

    def test_plan_values(self):
        rng = np.random.default_rng(41)
        merged = 0
        for case in range(40):
            contract, model, u = random_plan(rng)
            runs = insurance._payment_runs(contract, model)
            ladder = outcome(lambda: insurance._plan_ladder(contract, model, u, runs)[0])
            merged += isinstance(ladder, ValueLadder) and len(ladder) < len(runs[1])
            for n in range(1, 9):
                for attitude in ("cautious", "reckless"):
                    got = outcome(lambda: plan_value(contract, model, u, n, attitude))
                    ref = outcome(lambda: per_state_value(contract, model, u, n, attitude))
                    assert got == ref, (case, contract, n, attitude)
        assert merged >= 3  # some plans have runs that share a level

    def test_cutoffs_and_kink_avoidance(self):
        rng = np.random.default_rng(44)
        for case in range(40):
            contract, model, u = random_plan(rng)
            n = int(rng.integers(1, 9))
            for call, ref in ((plan_cutoffs, per_state_cutoffs),
                              (kink_avoidance, per_state_kink_avoidance)):
                got = outcome(lambda: call(contract, model, u, n))
                assert got == outcome(lambda: ref(contract, model, u, n)), (case, call)

    def test_wtp(self):
        rng = np.random.default_rng(42)
        for case in range(24):
            contract, model, u = random_plan(rng)
            n = int(rng.integers(1, 9))
            for improvement in ("lower_deductible", "lower_cap"):
                if improvement == "lower_cap" and contract.cap is None:
                    continue
                delta = min(0.1, contract.deductible if improvement == "lower_deductible"
                            else contract.cap)
                got = outcome(lambda: wtp(contract, model, u, n, improvement, delta))
                ref = outcome(lambda: per_state_wtp(contract, model, u, n, improvement, delta))
                assert got == ref, (case, contract, n, improvement)

    def test_dominated_pair(self):
        rng = np.random.default_rng(43)
        for case in range(30):
            contract, model, u = random_plan(rng)
            base = replace(contract, cap=None, deductible=contract.deductible + 0.05)
            n = int(rng.integers(1, 9))
            res = dominated_pair(base, 0.5 * base.deductible, model, u, n)
            assert res.value_high.hex() == per_state_value(base, model, u, n).hex()
            assert res.value_low.hex() == per_state_value(res.low_contract, model, u, n).hex()
            assert res.indifferent == (abs(res.value_high - res.value_low) <= 1e-9)
            assert res.lowest_cutoff_ok == per_state_lowest_cutoff_ok(base, model, u, n), case

    def test_rounding_collision(self):
        # two payments an ulp of 0.1 apart leave the same wealth near 1.85
        losses = (0.05, 0.1, float(np.nextafter(0.1, 1.0)), 0.5)
        model = LossModel(losses, (0.25, 0.25, 0.25, 0.25))
        contract = InsuranceContract(0.05, 0.3, 0.5, None, 2.0)
        wealth = plan_act(contract, model).values
        assert wealth[1] == wealth[2]
        for n in (1, 2, 3):
            for attitude in ("cautious", "reckless"):
                got = plan_value(contract, model, U, n, attitude)
                assert got.hex() == per_state_value(contract, model, U, n, attitude).hex()

    @pytest.mark.parametrize("terms", [
        (0, 0, 0, 1, 2), (0.05, 0.3, 0.75, None, 2**60 + 1),
        (0.05, 0.3, 0.75, None, np.float32(2.1)),
    ], ids=["ints", "huge-int", "float32"])
    def test_terms_that_are_not_floats(self, terms):
        # the terms are stored as floats, so the plan is the all-float plan
        contract = InsuranceContract(*terms)
        floats = InsuranceContract(*(None if t is None else float(t) for t in terms))
        stored = (contract.premium, contract.deductible, contract.coverage, contract.cap,
                  contract.wealth)
        assert all(type(t) is float for t in stored if t is not None)
        assert repr(contract) == repr(floats)
        for n in (1, 3):
            got = outcome(lambda: plan_value(contract, MODEL, U, n))
            assert got == outcome(lambda: per_state_value(floats, MODEL, U, n))

    @pytest.mark.parametrize("contract, model, gamma", [
        (InsuranceContract(1.9, 0.3, 0.75, None, 2.0), MODEL, 2.0),
        (InsuranceContract(0.0, 0.3, 0.5, 0.0, 1e-200), MODEL, 3.0),
        # only the zero-mass top state's utility overflows
        (InsuranceContract(0.0, 1.0, 0.5, None, 1e-154),
         LossModel((0.0, 2e-155, 9.5e-155), (0.5, 0.5, 0.0)), 3.0),
        # wealth less premium overflows to inf, whose utility is finite, and
        # the zero cap leaves one payment
        (InsuranceContract(-1.5e308, 0.3, 0.75, 0.0, 1.5e308), MODEL, 2.0),
        # pow is finite here, and its division by 1 - gamma is -inf
        (InsuranceContract(0.0, 0.3, 0.5, 0.0, 4.281544325815e-312), MODEL, 1.99),
    ], ids=["large-premium", "overflow", "zero-mass-overflow", "infinite-wealth",
            "infinite-utility"])
    def test_first_error(self, contract, model, gamma):
        u = CRRAUtility(gamma)
        got = outcome(lambda: plan_value(contract, model, u, 2))
        assert isinstance(got, tuple)
        assert got == outcome(lambda: per_state_value(contract, model, u, 2))
        args = (contract, model, u, 2, "lower_deductible", 0.0)
        assert outcome(lambda: wtp(*args)) == outcome(lambda: per_state_wtp(*args)) == got


class TestSensitivity:
    def test_cap_binding_kills_coverage_response(self):
        # payment hits the cap right above the deductible: coverage is moot
        capped = InsuranceContract(0.05, 0.3, 1.0, 0.3, 2.0)
        s = sensitivity(capped, MODEL, U, 3, "coverage", 0.01, side="backward")
        assert s == 0.0

    def test_over_reaction_to_deductible_and_coverage(self):
        n_inf = len(MODEL)
        h = 0.02
        for n in (2, 3, 5):
            sd = sensitivity(BASE, MODEL, U, n, "deductible", h)
            sd_inf = sensitivity(BASE, MODEL, U, n_inf, "deductible", h)
            assert abs(sd) > abs(sd_inf)
            sc = sensitivity(BASE, MODEL, U, n, "coverage", h)
            sc_inf = sensitivity(BASE, MODEL, U, n_inf, "coverage", h)
            assert abs(sc) > abs(sc_inf)

    def test_boundary_raises_central(self):
        full = InsuranceContract(0.05, 0.3, 1.0, None, 2.0)
        with pytest.raises(PreconditionError):
            sensitivity(full, MODEL, U, 3, "coverage", 0.01, side="central")

    @pytest.mark.parametrize("contract, parameter", [
        (InsuranceContract(0.05, 0.0, 0.7, None, 2.0), "deductible"),
        (InsuranceContract(0.05, 0.3, 0.05, None, 2.0), "coverage"),
    ], ids=["deductible", "coverage"])
    def test_boundary_raises_backward(self, contract, parameter):
        # the backward step leaves the term's range below zero
        x0 = getattr(contract, parameter)
        message = f"^{parameter} at {x0} is not interior for step 0.1$"
        with pytest.raises(PreconditionError, match=message):
            sensitivity(contract, LossModel.uniform(1.0, 50), U, 3, parameter, 0.1,
                        side="backward")

    @pytest.mark.parametrize("side", ["central", "backward"])
    def test_valuation_errors_propagate(self, side):
        # the premium exceeds the wealth: the plan is at fault, not the step
        broke = InsuranceContract(3.0, 0.3, 0.7, None, 2.0)
        with pytest.raises(NonPositiveWealthError, match="^CRRA utility needs positive wealth, got -1.01$"):
            sensitivity(broke, LossModel.uniform(1.0, 50), U, 3, "deductible", 0.01, side=side)

    def test_response_magnitude_decreasing_in_capacity_at_full_coverage(self):
        full = InsuranceContract(0.05, 0.3, 1.0, None, 2.0)
        prev = np.inf
        for n in (2, 3, 5, 8):
            s = abs(sensitivity(full, MODEL, U, n, "deductible", 0.02))
            assert s <= prev + 1e-9
            prev = s

    @pytest.mark.parametrize("parameter", ["premium", "wealth", "loss"])
    def test_unknown_parameter_rejected(self, parameter):
        with pytest.raises(ValueError, match="unknown parameter"):
            sensitivity(BASE, MODEL, U, 3, parameter, 0.01)

    def test_absent_cap_rejected(self):
        with pytest.raises(PreconditionError):
            sensitivity(BASE, MODEL, U, 3, "cap", 0.01)

    @pytest.mark.parametrize("side", ["central", "backward"])
    @pytest.mark.parametrize("h", [0.0, -0.01, float("nan"), float("inf")])
    def test_step_must_be_positive_finite(self, h, side):
        message = f"^h must be a positive finite number, got {re.escape(repr(h))}$"
        with pytest.raises(ValueError, match=message):
            sensitivity(BASE, MODEL, U, 3, "deductible", h, side=side)

    def test_cap_sensitivity(self):
        capped = InsuranceContract(0.05, 0.3, 0.7, 0.4, 2.0)
        h = 0.01
        slope = sensitivity(capped, MODEL, U, 3, "cap", h)
        up = plan_value(InsuranceContract(0.05, 0.3, 0.7, 0.4 + h, 2.0), MODEL, U, 3)
        down = plan_value(InsuranceContract(0.05, 0.3, 0.7, 0.4 - h, 2.0), MODEL, U, 3)
        assert slope == (up - down) / (2.0 * h)


class TestWtp:
    def test_zero_improvement(self):
        full = InsuranceContract(0.05, 0.3, 1.0, None, 2.0)
        assert wtp(full, MODEL, U, 3, "lower_deductible", 0.0) == pytest.approx(0.0, abs=1e-7)

    def test_positive_for_risk_averse(self):
        full = InsuranceContract(0.05, 0.3, 1.0, None, 2.0)
        assert wtp(full, MODEL, U, 3, "lower_deductible", 0.1) > 0.01

    def test_decreasing_in_capacity_deductible(self):
        full = InsuranceContract(0.05, 0.3, 1.0, None, 2.0)
        vals = [wtp(full, MODEL, U, n, "lower_deductible", 0.1) for n in range(2, 9)]
        assert all(b <= a + 1e-7 for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_capacity_cap(self):
        capped = InsuranceContract(0.05, 0.2, 0.8, 0.5, 2.0)
        vals = [wtp(capped, MODEL, U, n, "lower_cap", 0.1) for n in range(2, 9)]
        assert all(b <= a + 1e-7 for a, b in zip(vals, vals[1:]))

    def test_needs_cap_for_cap_improvement(self):
        with pytest.raises(PreconditionError):
            wtp(BASE, MODEL, U, 3, "lower_cap", 0.1)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_tol_must_be_positive_finite(self, tol):
        # at 0 or below the bisection never stops; nan or inf skips it
        full = InsuranceContract(0.05, 0.3, 1.0, None, 2.0)
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            wtp(full, MODEL, U, 3, "lower_deductible", 0.1, tol=tol)

    @pytest.mark.parametrize("improvement", ["lower_deductible", "lower_cap"])
    @pytest.mark.parametrize("delta, message", [
        (float("nan"), "delta must be finite, got nan"),
        (float("inf"), "delta must be finite, got inf"),
        (float("-inf"), "delta must be non-negative"),
    ])
    def test_delta_must_be_non_negative_and_finite(self, improvement, delta, message):
        # nan and inf pass the sign check; they used to fail later, on the
        # improved plan's deductible or cap, with a message naming that field
        capped = InsuranceContract(0.05, 0.3, 0.8, 0.5, 2.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            wtp(capped, LossModel.uniform(1.0, 20), U, 3, improvement, delta)

    def test_bracket_doubles_while_the_gain_is_not_negative(self, monkeypatch):
        # full cover above a deductible below every loss: lowering it by
        # delta saves exactly delta, so the gain at a premium increase of
        # delta is 0, not negative, and the bracket's upper end doubles once
        premiums = []
        plan_ladder = insurance._plan_ladder

        def recorded(contract, *args):
            premiums.append(contract.premium)
            return plan_ladder(contract, *args)

        monkeypatch.setattr(insurance, "_plan_ladder", recorded)
        full = InsuranceContract(0.05, 0.01, 1.0, None, 2.0)
        got = wtp(full, LossModel.uniform(1.0, 40), U, 3, "lower_deductible", 0.005)
        # the base plan, then the premium increases 0, delta and 2 delta
        assert premiums[:4] == [0.05, 0.05 + 0.0, 0.05 + 0.005, 0.05 + 0.01]
        assert abs(got - 0.005) <= insurance.WTP_TOL


    @pytest.mark.parametrize("wealth, gamma", [(1e12, 0.0), (1e12, 2.0), (1e300, 2.0)])
    def test_bisection_that_cannot_narrow_raises(self, monkeypatch, wealth, gamma):
        # premiums near 7e9 are spaced wider than tol, so the midpoint meets
        # an end and the bisection used to stay on one bracket for ever; the
        # valuations are counted, not timed
        calls = []

        def counted(*args):
            calls.append(args)
            assert len(calls) <= 500, "wtp exceeded its step budget"
            return bound_value(*args)

        monkeypatch.setattr(insurance, "bound_value", counted)
        scale = wealth / 10
        model = LossModel.uniform(scale, 20).tilted(1.5 / scale)
        contract = InsuranceContract(0.05 * scale, 0.3 * scale, 0.75, None, wealth)
        with pytest.raises(ConvergenceError, match=r"bisection stalls at \[.*\], wider than 1e-08"):
            wtp(contract, model, CRRAUtility(gamma), 3, "lower_deductible", 0.1 * scale)

    @pytest.mark.parametrize("scale", [1e-2, 1.0, 1e3, 1e7])
    def test_terminating_bisections_are_unchanged(self, scale):
        model = LossModel.uniform(scale, 20).tilted(1.5 / scale)
        contract = InsuranceContract(0.05 * scale, 0.3 * scale, 0.75, 0.6 * scale, 2.0 * scale)
        for n in (2, 3, 5):
            for improvement in ("lower_deductible", "lower_cap"):
                args = (contract, model, U, n, improvement, 0.1 * scale)
                assert outcome(lambda: wtp(*args)) == outcome(lambda: per_state_wtp(*args))


class TestDominatedPair:
    def test_never_indifferent_at_full_capacity(self):
        base = InsuranceContract(0.05, 0.35, 0.6, None, 2.0)
        res = dominated_pair(base, 0.15, MODEL, U, len(MODEL))
        assert not res.indifferent
        assert res.value_low < res.value_high

    def test_indifferent_under_pessimistic_beliefs(self):
        base = InsuranceContract(0.05, 0.35, 0.6, None, 2.0)
        tilted = MODEL.tilted(3.0)
        res = dominated_pair(base, 0.15, tilted, U, 3)
        assert res.indifferent
        assert res.lowest_cutoff_ok

    def test_single_crossing_in_tilt(self):
        base = InsuranceContract(0.05, 0.35, 0.6, None, 2.0)
        flags = [
            dominated_pair(base, 0.15, MODEL.tilted(lam), U, 3).indifferent
            for lam in (0.0, 1.0, 2.0, 3.0, 4.0)
        ]
        assert not any(a and not b for a, b in zip(flags, flags[1:]))
        assert flags[-1]

    def test_single_crossing_in_capacity(self):
        base = InsuranceContract(0.05, 0.35, 0.6, None, 2.0)
        tilted = MODEL.tilted(3.0)
        flags = [dominated_pair(base, 0.15, tilted, U, n).indifferent for n in (2, 3, 4, 6, 10)]
        assert not any((not a) and b for a, b in zip(flags, flags[1:]))

    def test_construction_weakly_dominated(self):
        base = InsuranceContract(0.05, 0.35, 0.6, None, 2.0)
        res = dominated_pair(base, 0.15, MODEL, U, 3)
        high = plan_act(base, MODEL).values
        low = plan_act(res.low_contract, MODEL).values
        assert all(l <= h + 1e-12 for l, h in zip(low, high))
        for l, h, x in zip(low, high, MODEL.losses):
            if x >= 0.35:
                assert l == pytest.approx(h, abs=1e-12)
            else:
                assert l < h - 1e-6

    def test_requires_capless(self):
        capped = InsuranceContract(0.05, 0.35, 0.6, 0.5, 2.0)
        with pytest.raises(PreconditionError):
            dominated_pair(capped, 0.15, MODEL, U, 3)

    def test_one_fill_per_plan(self, monkeypatch):
        # the base plan's value and its top-block starts come from one fill,
        # then the low plan's value from one more
        cases = [(InsuranceContract(0.05, 0.35, 0.6, None, 2.0), MODEL.tilted(3.0), U, n)
                 for n in (2, 3, 6)]
        rng = np.random.default_rng(43)
        for _ in range(10):
            contract, model, u = random_plan(rng)
            base = replace(contract, cap=None, deductible=contract.deductible + 0.05)
            cases.append((base, model, u, int(rng.integers(1, 9))))
        fill = engine._fill
        for base, model, u, n in cases:
            fills = []
            monkeypatch.setattr(engine, "_fill", lambda *args: fills.append(args[0]) or fill(*args))
            res = dominated_pair(base, 0.5 * base.deductible, model, u, n)
            monkeypatch.undo()
            plans = [build_ladder(utility_act(c, model, u), model.belief).levels
                     for c in (base, res.low_contract)]
            assert fills == plans, (base, n)

    @pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf")])
    def test_tol_must_be_non_negative_finite(self, tol):
        # below 0 equal values read as not indifferent; nan does the same and
        # inf makes every pair indifferent
        base = InsuranceContract(0.05, 0.35, 0.6, None, 2.0)
        with pytest.raises(ValueError, match="tol must be a non-negative finite number"):
            dominated_pair(base, 0.15, MODEL, U, 3, tol=tol)


class TestKinkAvoidance:
    SMALL = LossModel.from_density(lambda x: 1.0 + 0.5 * x, 1.0, 20)

    def test_full_insurance_highest_cutoff_below_deductible(self):
        full = InsuranceContract(0.05, 0.4, 1.0, None, 2.0)
        cuts = plan_cutoffs(full, self.SMALL, U, 3)
        assert cuts and max(cuts) < 0.4
        assert kink_avoidance(full, self.SMALL, U, 3)

    def test_kink_free_plan_vacuous(self):
        linear = InsuranceContract(0.05, 0.3, 0.0, None, 2.0)
        assert not has_kink(linear)
        assert kink_avoidance(linear, self.SMALL, U, 3)

    def test_random_fixtures(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            d = float(rng.uniform(0.2, 0.6))
            c = float(rng.uniform(0.5, 1.0))
            n = int(rng.integers(2, 5))
            contract = InsuranceContract(0.05, d, c, None, 2.0)
            assert kink_avoidance(contract, self.SMALL, U, n)

    @pytest.mark.parametrize("tilt", [None, 1.5])
    def test_full_200_point_grid(self, tilt):
        # the grid of the other insurance checks, beyond any exhaustive oracle
        model = LossModel.uniform(1.0, 200)
        model = model if tilt is None else model.tilted(tilt)
        rng = np.random.default_rng(66)
        for _ in range(10):
            d = float(rng.uniform(0.2, 0.6))
            c = float(rng.uniform(0.5, 1.0))
            contract = InsuranceContract(0.05, d, c, None, 2.0)
            for n in (2, 3, 4):
                assert kink_avoidance(contract, model, U, n)


class TestRecordedObservations:
    def test_coverage_vs_deductible_overreaction_crossover(self, capsys):
        # recorded, not asserted: the capacity at which the coverage-rate
        # over-reaction ratio overtakes the deductible one has no known
        # closed-form threshold; we log it per fixture for inspection
        n_inf = len(MODEL)
        h = 0.02
        rows = []
        for d in (0.25, 0.4):
            contract = InsuranceContract(0.05, d, 0.85, None, 2.0)
            ref_d = abs(sensitivity(contract, MODEL, U, n_inf, "deductible", h))
            ref_c = abs(sensitivity(contract, MODEL, U, n_inf, "coverage", h))
            crossover = None
            for n in range(2, 12):
                ratio_d = abs(sensitivity(contract, MODEL, U, n, "deductible", h)) / ref_d
                ratio_c = abs(sensitivity(contract, MODEL, U, n, "coverage", h)) / ref_c
                if ratio_c > ratio_d and crossover is None:
                    crossover = n
            rows.append((d, crossover))
        with capsys.disabled():
            print(f"\n[recorded] coverage-over-reaction crossover N by deductible: {rows}")
        assert len(rows) == 2


class TestLossModel:
    def test_uniform_masses(self):
        model = LossModel.uniform(1.0, 10)
        assert all(m == pytest.approx(0.1, rel=1e-12) for m in model.masses)

    def test_tilt_is_mlr_upward(self):
        tilted = MODEL.tilted(2.0)
        ratios = np.asarray(tilted.masses) / np.asarray(MODEL.masses)
        assert np.all(np.diff(ratios) > 0)

    @pytest.mark.parametrize("losses, message", [
        ((0.1, float("nan"), 0.3), "loss grid must be finite, got nan"),
        ((float("nan"),), "loss grid must be finite, got nan"),
        ((0.1, float("inf")), "loss grid must be finite, got inf"),
        ((0.2, 0.1, 0.3), "loss grid must be strictly ascending"),
    ], ids=["inner-nan", "lone-nan", "inf", "descending"])
    def test_bad_losses_rejected(self, losses, message):
        with pytest.raises(ValueError) as err:
            LossModel(losses, [1 / len(losses)] * len(losses))
        assert str(err.value) == message

    @pytest.mark.parametrize("losses, masses, error, message", [
        ((-0.1, 0.2, 0.5), (0.3, 0.3, 0.4), ValueError, "loss grid must be non-negative"),
        ((0.1, 0.2, 0.3), (0.5, 0.5), AlignmentError,
         "loss masses must match the loss grid: 2 masses vs 3 losses"),
        ((), (1.0,), ValueError, "loss grid must not be empty"),
        ((), (), ValueError, "loss grid must not be empty"),
        ((0.1, 0.2), (0.5, 0.25, 0.25), AlignmentError,
         "loss masses must match the loss grid: 3 masses vs 2 losses"),
    ], ids=["negative-first-loss", "misaligned-masses", "empty-grid", "empty-grid-and-masses",
            "extra-mass"])
    def test_rejected_at_construction(self, losses, masses, error, message):
        # the grids that valuation used to reject later, state by state
        with pytest.raises(error) as err:
            LossModel(losses, masses)
        assert str(err.value) == message

    def test_zero_loss_accepted(self):
        assert LossModel((-0.0, 0.5), (0.5, 0.5)).losses == (-0.0, 0.5)

    @pytest.mark.parametrize("max_loss", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_max_loss_rejected(self, max_loss):
        with pytest.raises(ValueError) as err:
            LossModel.uniform(max_loss, 3)
        assert str(err.value) == f"loss grid max_loss must be positive and finite, got {max_loss!r}"

    @pytest.mark.parametrize("n", [0, -3, True])
    def test_empty_grid_rejected(self, n):
        with pytest.raises(ValueError, match="loss grid size"):
            LossModel.uniform(1.0, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            LossModel((0.2, 0.1), (0.5, 0.5))
        with pytest.raises(ValueError):
            InsuranceContract(0.05, -0.1, 0.5, None, 2.0)
        with pytest.raises(ValueError):
            InsuranceContract(0.05, 0.1, 1.5, None, 2.0)
