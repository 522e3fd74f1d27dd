"""Learning-simulation tests: sampling, bootstrap errors, the smooth decision
rule, coarsening audits, and the dominance of coarsened error distributions."""

import numpy as np
import pytest
from scipy import stats

from coarse_bounds.acts import Belief, DiscreteAct, check_aligned
from coarse_bounds.errors import AlignmentError
from coarse_bounds.learning import (
    Dataset,
    ErrorDistribution,
    SmoothRule,
    audit_coarsening_preserves_ce,
    audit_mixture_preserves_ce,
    audit_near_constant_split,
    bootstrap_errors,
    coarsen_act,
    coarsening_sosd_bootstrap,
    draw_sample,
    empirical_expectation,
    has_certain_equivalent,
    smooth_decide,
    value_cells,
)
from coarse_bounds.preferences import Verdict
from coarse_bounds.statics import sosd_strict

STATES = ("a", "b", "c", "d")
BELIEF = Belief([0.3, 0.3, 0.2, 0.2])
ACT = DiscreteAct(STATES, [1.0, 1.04, 1.07, 1.11])
RULE = SmoothRule(gamma=1.0, k=1e-5)


# The true-error Monte Carlo reference. Fresh-dataset count batches are
# balanced the same way as the bootstrap: their pooled state counts match the
# true masses up to largest-remainder rounding.
def state_count_batch(true_belief: Belief, k: int, s: int, seed: int) -> np.ndarray:
    """State-count matrix (s datasets x states) of size-``k`` datasets drawn
    in one pass from a balanced pool.

    The pooled counts match ``s * k * mass`` up to largest-remainder
    rounding, so pooled empirical means are pinned to true means; choose
    masses with ``s * k * mass`` integral for exactness.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    n_states = len(true_belief)
    total = s * k
    ideal = np.asarray(true_belief.masses) * total
    counts = np.floor(ideal).astype(int)
    rem = total - counts.sum()
    order = np.argsort(-(ideal - counts))
    counts[order[:rem]] += 1
    pool = np.repeat(np.arange(n_states), counts)
    rng.shuffle(pool)
    pool = pool.reshape(s, k)
    out = np.zeros((s, n_states), dtype=float)
    rows = np.repeat(np.arange(s), k)
    np.add.at(out, (rows, pool.ravel()), 1.0)
    return out


def sampling_errors_from_counts(f: DiscreteAct, counts: np.ndarray,
                                true_belief: Belief) -> ErrorDistribution:
    """Empirical-mean errors of ``f`` for each count row, against the true mean."""
    check_aligned(f, true_belief)
    vals = np.asarray(f.values)
    k = counts[0].sum()
    true_mean = float(np.dot(vals, true_belief.masses))
    errs = counts @ vals / k - true_mean
    return ErrorDistribution(errors=tuple(errs.tolist()))


class TestDrawSample:
    def test_deterministic_given_seed(self):
        d1 = draw_sample(BELIEF, STATES, 50, seed=3)
        d2 = draw_sample(BELIEF, STATES, 50, seed=3)
        assert d1.draws == d2.draws

    def test_point_mass(self):
        bel = Belief([0.0, 1.0, 0.0, 0.0])
        data = draw_sample(bel, STATES, 30, seed=1)
        assert set(data.draws) == {"b"}

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            draw_sample(BELIEF, STATES, 0, seed=0)

    def test_goodness_of_fit_uniform(self):
        bel = Belief([0.2] * 5)
        states = tuple(range(5))
        data = draw_sample(bel, states, 100_000, seed=0)
        counts = [data.draws.count(s) for s in states]
        _, p = stats.chisquare(counts)
        assert p > 0.01


class TestEmpiricalExpectation:
    def test_constant(self):
        const = DiscreteAct(STATES, [2.0] * 4)
        data = draw_sample(BELIEF, STATES, 25, seed=5)
        assert empirical_expectation(const, data) == 2.0

    def test_single_draw(self):
        data = Dataset(draws=("c",), seed=0)
        assert empirical_expectation(ACT, data) == 1.07

    def test_matches_direct_mean(self):
        data = draw_sample(BELIEF, STATES, 200, seed=7)
        values = dict(zip(ACT.state_ids, ACT.values))
        direct = np.mean([values[d] for d in data.draws])
        assert empirical_expectation(ACT, data) == pytest.approx(direct, rel=1e-15)

    def test_unknown_draw(self):
        with pytest.raises(AlignmentError):
            empirical_expectation(ACT, Dataset(draws=("z",), seed=0))


class TestCoarsenAct:
    def test_merge_equal_values_is_identity(self):
        act = DiscreteAct(STATES, [1.0, 1.0, 2.0, 3.0])
        merged = coarsen_act(act, 1.0, 1.0, "true_mean", true_belief=BELIEF)
        assert merged.values == act.values

    def test_two_cell_act_merges_to_constant(self):
        act = DiscreteAct(STATES, [0.0, 0.0, 1.0, 1.0])
        merged = coarsen_act(act, 0.0, 1.0, "true_mean", true_belief=BELIEF)
        expect = sum(v * m for v, m in zip(act.values, BELIEF.masses))
        assert len(set(merged.values)) == 1
        assert merged.values[0] == pytest.approx(expect, rel=1e-15)

    def test_empirical_mode_hand_oracle(self):
        act = DiscreteAct(("a", "b", "c"), [0.0, 1.0, 4.0])
        data = Dataset(draws=("a", "a", "b", "b", "b", "c"), seed=0)
        merged = coarsen_act(act, 0.0, 1.0, "empirical_mean", data=data)
        # merged cell holds 2 draws at 0 and 3 at 1 -> mean 0.6
        assert merged.values == (0.6, 0.6, 4.0)

    def test_zero_empirical_mass_falls_back_to_true_mean(self):
        act = DiscreteAct(("a", "b", "c"), [0.0, 1.0, 4.0])
        bel = Belief([0.25, 0.25, 0.5])
        data = Dataset(draws=("c", "c", "c"), seed=0)
        merged = coarsen_act(act, 0.0, 1.0, "empirical_mean", true_belief=bel, data=data)
        assert merged.values == (0.5, 0.5, 4.0)

    def test_unknown_cells(self):
        with pytest.raises(ValueError):
            coarsen_act(ACT, 1.0, 9.9, "true_mean", true_belief=BELIEF)

    def test_unknown_draw(self):
        data = Dataset(draws=("a", "z"), seed=0)
        with pytest.raises(AlignmentError, match="draw 'z' is not a state"):
            coarsen_act(ACT, 1.0, 1.04, "empirical_mean", data=data)


class TestBootstrapErrors:
    def test_constant_act_zero_errors(self):
        const = DiscreteAct(STATES, [3.0] * 4)
        data = draw_sample(BELIEF, STATES, 40, seed=2)
        errs = bootstrap_errors(const, data, 200, seed=3)
        assert max(abs(e) for e in errs.errors) == 0.0

    def test_balanced_mean_pinned_at_zero(self):
        data = draw_sample(BELIEF, STATES, 200, seed=9)
        errs = bootstrap_errors(ACT, data, 1000, seed=4)
        assert abs(errs.mean()) < 1e-14

    def test_variance_matches_plugin(self):
        data = draw_sample(BELIEF, STATES, 200, seed=11)
        errs = bootstrap_errors(ACT, data, 4000, seed=5)
        values = dict(zip(ACT.state_ids, ACT.values))
        plugin = np.var([values[d] for d in data.draws]) / data.K
        assert np.var(errs.errors) == pytest.approx(plugin, rel=0.10)

    def test_deterministic_and_coupled(self):
        data = draw_sample(BELIEF, STATES, 100, seed=13)
        e1 = bootstrap_errors(ACT, data, 500, seed=6)
        e2 = bootstrap_errors(ACT, data, 500, seed=6)
        assert e1.errors == e2.errors

    def test_unknown_draw(self):
        with pytest.raises(AlignmentError, match="draw 'z' is not a state"):
            bootstrap_errors(ACT, Dataset(draws=("a", "z"), seed=0), 10, seed=0)


class TestSmoothRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            SmoothRule(gamma=0.0, k=0.1)
        with pytest.raises(ValueError):
            SmoothRule(gamma=1.0, k=-0.1)

    @pytest.mark.parametrize("gamma, k, message", [
        (float("nan"), 0.1, "gamma must be positive"),
        (1.0, float("nan"), "k must be non-negative"),
    ])
    def test_nan_rejected(self, gamma, k, message):
        with pytest.raises(ValueError, match=message):
            SmoothRule(gamma=gamma, k=k)

    def test_phi_concave_increasing(self):
        rule = SmoothRule(gamma=2.0, k=0.0)
        xs = np.linspace(-1, 3, 50)
        ys = rule.phi(xs)
        assert np.all(np.diff(ys) > 0)
        assert np.all(np.diff(ys, 2) < 0)


class TestSmoothDecide:
    def test_constant_far_above(self):
        data = draw_sample(BELIEF, STATES, 200, seed=21)
        verdict = smooth_decide(ACT, 10.0, data, RULE, 500, seed=8)
        assert verdict.verdict is Verdict.STRICTLY_PREFERS_G

    def test_constant_act_indifferent_to_itself(self):
        const = DiscreteAct(STATES, [2.0] * 4)
        data = draw_sample(BELIEF, STATES, 50, seed=22)
        verdict = smooth_decide(const, 2.0, data, RULE, 200, seed=9)
        assert verdict.verdict is Verdict.INDIFFERENT

    def test_zero_dispersion_at_mean_indifferent(self):
        const = DiscreteAct(STATES, [1.5] * 4)
        data = draw_sample(BELIEF, STATES, 80, seed=23)
        for k in (1e-9, 0.1):
            rule = SmoothRule(gamma=1.0, k=k)
            verdict = smooth_decide(const, 1.5, data, rule, 200, seed=10)
            assert verdict.verdict is Verdict.INDIFFERENT

    def test_far_below_prefers_act(self):
        data = draw_sample(BELIEF, STATES, 200, seed=24)
        verdict = smooth_decide(ACT, -5.0, data, RULE, 500, seed=11)
        assert verdict.verdict is Verdict.STRICTLY_PREFERS_F


class TestCertainEquivalent:
    def test_constant_always(self):
        # any strictly positive slack admits a constant's own value
        const = DiscreteAct(STATES, [1.0] * 4)
        data = draw_sample(BELIEF, STATES, 30, seed=31)
        assert has_certain_equivalent(const, data, SmoothRule(1.0, 1e-12), 200, 12)

    def test_huge_dispersion_tiny_slack_fails(self):
        wild = DiscreteAct(STATES, [0.0, 100.0, 0.0, 100.0])
        data = draw_sample(BELIEF, STATES, 10, seed=32)
        rule = SmoothRule(gamma=1.0, k=1e-9)
        assert not has_certain_equivalent(wild, data, rule, 2000, 13)


class TestAudits:
    def test_constant_act_vacuous_pass(self):
        const = DiscreteAct(STATES, [2.0] * 4)
        data = draw_sample(BELIEF, STATES, 50, seed=41)
        report = audit_coarsening_preserves_ce(const, data, RULE, 400, 14, true_belief=BELIEF)
        assert report.precondition_met and report.passed
        assert report.checks == ()

    def test_precondition_unmet_skips(self):
        wild = DiscreteAct(STATES, [0.0, 100.0, 0.0, 100.0])
        data = draw_sample(BELIEF, STATES, 10, seed=42)
        report = audit_coarsening_preserves_ce(
            wild, data, SmoothRule(1.0, 1e-9), 2000, 15, true_belief=BELIEF
        )
        assert not report.precondition_met
        assert not report.passed

    def test_a1_monte_carlo_suite(self):
        rng = np.random.default_rng(43)
        checked = 0
        for i in range(60):
            gaps = rng.uniform(0.02, 0.05, size=4)
            act = DiscreteAct(STATES, (1.0 + np.cumsum(gaps)).tolist())
            data = draw_sample(BELIEF, STATES, 200, seed=1000 + i)
            report = audit_coarsening_preserves_ce(
                act, data, RULE, 2000, 2000 + i, true_belief=BELIEF
            )
            if report.precondition_met:
                checked += 1
                assert report.violations == ()
        assert checked >= 50

    def test_a2_mixture_audit(self):
        data = draw_sample(BELIEF, STATES, 200, seed=44)
        patch = ACT.values[-1]
        g = DiscreteAct(STATES, [patch, ACT.values[1], patch, ACT.values[3]])
        report = audit_mixture_preserves_ce(ACT, g, data, RULE, 2000, 16)
        assert report.precondition_met
        assert report.violations == ()

    def test_a2_rejects_malformed_patch(self):
        data = draw_sample(BELIEF, STATES, 50, seed=45)
        g = DiscreteAct(STATES, [9.0, ACT.values[1], 8.0, ACT.values[3]])
        with pytest.raises(Exception):
            audit_mixture_preserves_ce(ACT, g, data, RULE, 200, 17)

    def test_a3_near_constant_split(self):
        data = draw_sample(BELIEF, STATES, 200, seed=46)
        v1, v2 = sorted(value_cells(ACT))[:2]
        report = audit_near_constant_split(ACT, data, RULE, 2000, 18, v1, v2, true_belief=BELIEF)
        assert report.precondition_met
        assert report.violations == ()


class TestSosdOfCoarsening:
    def test_bootstrap_error_dominance(self):
        # merged acts have strictly less dispersed bootstrap errors
        rng = np.random.default_rng(47)
        passes = 0
        total = 60
        for i in range(total):
            gaps = rng.uniform(0.02, 0.05, size=4)
            act = DiscreteAct(STATES, (1.0 + np.cumsum(gaps)).tolist())
            data = draw_sample(BELIEF, STATES, 200, seed=3000 + i)
            v1, v2 = sorted(value_cells(act))[:2]
            if coarsening_sosd_bootstrap(act, v1, v2, data, 4000, 4000 + i,
                                         true_belief=BELIEF):
                passes += 1
        assert passes >= 0.95 * total

    def test_true_error_dominance_outer_monte_carlo(self):
        # fresh-dataset errors of the true-mean coarsening dominate too
        rng = np.random.default_rng(48)
        passes = 0
        total = 200
        for i in range(total):
            gaps = rng.uniform(0.02, 0.05, size=4)
            act = DiscreteAct(STATES, (1.0 + np.cumsum(gaps)).tolist())
            coarse = coarsen_act(act, act.values[0], act.values[1], "true_mean",
                                 true_belief=BELIEF)
            counts = state_count_batch(BELIEF, 200, 4000, seed=5000 + i)
            g_f = sampling_errors_from_counts(act, counts, BELIEF)
            g_c = sampling_errors_from_counts(coarse, counts, BELIEF)
            if sosd_strict(g_c, g_f):
                passes += 1
        assert passes >= 0.95 * total


class TestBatchSampling:
    def test_balanced_batch_pins_pooled_means(self):
        bel = Belief([0.3, 0.3, 0.2, 0.2])
        counts = state_count_batch(bel, k=50, s=40, seed=77)
        assert counts.shape == (40, 4)
        assert np.all(counts.sum(axis=1) == 50)
        # exact: 40 * 50 * mass is integral for these masses
        for pooled, m in zip(counts.sum(axis=0), bel.masses):
            assert pooled == round(2000 * m)

    def test_count_batch_matches_belief_marginal(self):
        counts = state_count_batch(BELIEF, k=100, s=50, seed=5)
        assert counts.shape == (50, 4)
        assert np.all(counts.sum(axis=1) == 100)
        freq = counts.sum(axis=0) / counts.sum()
        assert np.allclose(freq, BELIEF.masses, atol=0.05)
