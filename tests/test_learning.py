"""Learning-simulation tests: sampling, bootstrap errors, the smooth decision
rule, coarsening audits, and the dominance of coarsened error distributions."""

import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from coarse_bounds import learning as ln
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
    perceived_score,
    smooth_decide,
    value_cells,
)
from coarse_bounds.preferences import Provenance, Verdict
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


@lru_cache(maxsize=1)
def tiled_indices(k: int, b: int, seed: int) -> np.ndarray:
    """The int64 pool of each observation index B times, shuffled, as a
    read-only B x K matrix: the resample that ``_resample_indices`` draws
    as label codes. The last one is kept, since a reference run scores
    many acts on one resample."""
    idx = np.tile(np.arange(k), b)
    np.random.Generator(np.random.Philox(key=seed)).shuffle(idx)
    idx.setflags(write=False)
    return idx.reshape(b, k)


def full_gather_errors(f: DiscreteAct, data: Dataset, b: int, seed: int) -> np.ndarray:
    """The bootstrap replicates as one B x K gather of the observations
    through the int64 resample: the reference for the count replicates."""
    values = dict(zip(f.state_ids, f.values))
    obs = np.asarray([values[d] for d in data.draws], dtype=float)
    return obs[tiled_indices(data.K, b, seed)].mean(axis=1) - obs.mean()


def gathered_score(f: DiscreteAct, data: Dataset, rule: SmoothRule, b: int, seed: int) -> float:
    """``perceived_score`` as it was before the count matrices: the smooth
    rule over the gathered replicates."""
    errors = full_gather_errors(f, data, b, seed)
    base = empirical_expectation(f, data)
    return float(np.mean(rule.phi(base + errors)))


def gathered_sosd(f: DiscreteAct, v1: float, v2: float, data: Dataset, b: int, seed: int,
                  true_belief: Belief) -> bool:
    """``coarsening_sosd_bootstrap`` as it was before the count matrices."""
    merged = coarsen_act(f, v1, v2, "empirical_mean", true_belief=true_belief, data=data)
    return sosd_strict(full_gather_errors(merged, data, b, seed),
                       full_gather_errors(f, data, b, seed))


class TestDataset:
    def test_empty_draws_rejected(self):
        with pytest.raises(ValueError, match="a dataset needs at least one draw"):
            Dataset(draws=(), seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**128, 10**40])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*128\), got {seed}"):
            draw_sample(BELIEF, STATES, 5, seed=seed)
        with pytest.raises(ValueError, match="seed must be in"):
            bootstrap_errors(ACT, Dataset(draws=("a",), seed=0), 5, seed=seed)

    def test_list_of_draws_is_stored_as_a_tuple(self):
        # a list used to reach the resample cache, which needs a hashable key
        data = Dataset(draws=["a", "b", "b", "c"], seed=1)
        assert data.draws == ("a", "b", "b", "c")
        assert bootstrap_errors(ACT, data, 5, seed=1) == bootstrap_errors(
            ACT, Dataset(draws=("a", "b", "b", "c"), seed=1), 5, seed=1
        )

    def test_seed_range_ends(self):
        for seed in (0, 2**128 - 1):
            assert len(draw_sample(BELIEF, STATES, 5, seed=seed).draws) == 5


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

    @pytest.mark.parametrize("v1, v2", [(99.0, 99.0), (1.0, 99.0)], ids=["equal", "distinct"])
    def test_unknown_equal_or_distinct_cells(self, v1, v2):
        with pytest.raises(ValueError, match="^both payoffs must be value cells of the act$"):
            coarsen_act(ACT, v1, v2, "bogus")

    @pytest.mark.parametrize("v1, v2", [(1.0, 1.0), (1.0, 1.04)], ids=["equal", "distinct"])
    def test_unknown_mode_for_equal_or_distinct_cells(self, v1, v2):
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            coarsen_act(ACT, v1, v2, "bogus")

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


class TestLabelResample:
    @pytest.mark.parametrize("k", [1, 2, 255, 256, 257, 1000])
    @pytest.mark.parametrize("b", [1, 511, 512, 513])
    def test_same_labels_and_errors_as_the_int64_gather(self, k, b):
        seed = 1000 * k + b
        rng = np.random.default_rng(seed)
        reference = tiled_indices(k, b, seed)
        for n in (n for n in (1, 2, 256, 257) if n <= k):
            # every label drawn, in shuffled first-draw order; one state never drawn
            draws = rng.permutation(np.concatenate([np.arange(n), rng.integers(0, n, k - n)]))
            draws = tuple(int(d) for d in draws)
            labels, counts = ln._resample_indices(draws, b, seed)
            assert labels == tuple(dict.fromkeys(draws))
            assert counts.dtype == np.min_scalar_type(k)
            assert not counts.flags.writeable
            code = {label: i for i, label in enumerate(labels)}
            codes = np.array([code[d] for d in draws])[reference]
            tallies = [np.bincount(row, minlength=n) for row in codes]
            assert np.array_equal(counts, np.stack(tallies, axis=1))
            values = rng.uniform(-2.0, 2.0, n + 1)
            act = DiscreteAct(range(n + 1), values.tolist())
            data = Dataset(draws=draws, seed=0)
            errors = np.asarray(bootstrap_errors(act, data, b, seed).errors)
            assert errors.tobytes() == ln._replicate_errors(act, data, b, seed).tobytes()
            gathered = full_gather_errors(act, data, b, seed)
            bound = count_ulps(n) * np.spacing(np.max(np.abs(values[:n])))
            assert np.max(np.abs(errors - gathered)) <= bound


class TestOneShuffle:
    """Every decision on one (draws, B, seed) reads one cached shuffle."""

    def count_shuffles(self, monkeypatch) -> list:
        ln._resample_indices.cache_clear()
        seeds, rng = [], ln._rng

        def counted(seed):
            seeds.append(seed)
            return rng(seed)

        monkeypatch.setattr(ln, "_rng", counted)
        return seeds

    def test_learn_sequence_shuffles_once(self, monkeypatch):
        # the calls of the learn command, in its order
        data = draw_sample(BELIEF, STATES, 200, seed=51)
        seeds = self.count_shuffles(monkeypatch)
        bootstrap_errors(ACT, data, 2000, 52)
        has_certain_equivalent(ACT, data, RULE, 2000, 52)
        report = audit_coarsening_preserves_ce(ACT, data, RULE, 2000, 52, true_belief=BELIEF)
        assert report.precondition_met and len(report.checks) == 6
        assert seeds == [52]

    def test_criterion_5_fixture_shuffles_once(self, monkeypatch):
        # the calls criterion 5 makes on one of its first 50 fixtures
        data = draw_sample(BELIEF, STATES, 200, seed=53)
        payoffs = sorted(value_cells(ACT))
        v1, v2 = payoffs[0], payoffs[1]
        g = DiscreteAct(STATES, [payoffs[-1] if j % 3 == 0 else v for j, v in enumerate(ACT.values)])
        seeds = self.count_shuffles(monkeypatch)
        assert coarsening_sosd_bootstrap(ACT, v1, v2, data, 4000, 54, true_belief=BELIEF)
        reports = [
            audit_coarsening_preserves_ce(ACT, data, RULE, 4000, 54, true_belief=BELIEF),
            audit_mixture_preserves_ce(ACT, g, data, RULE, 4000, 54),
            audit_near_constant_split(ACT, data, RULE, 4000, 54, v1, v2, true_belief=BELIEF),
        ]
        assert all(report.precondition_met for report in reports)
        assert seeds == [54]


class TestResampleMemory:
    # criterion 5's K and B: an int64 index pool would take 6.4 MB, and one
    # float gather of it as much again
    K, B = 200, 4000

    def data(self):
        return draw_sample(BELIEF, STATES, self.K, seed=21)

    def test_cached_entry_holds_only_the_count_matrix(self):
        draws = self.data().draws
        entry = ln._resample_indices(draws, self.B, 22)
        arrays = [part for part in entry if isinstance(part, np.ndarray)]
        assert len(arrays) == 1
        counts = arrays[0]
        # no view into the shuffled pool, which would keep it alive
        assert counts.base is None
        assert counts.shape == (len(set(draws)), self.B)
        assert counts.dtype == np.min_scalar_type(self.K)

    def test_cached_call_gathers_in_row_blocks(self):
        data = self.data()
        bootstrap_errors(ACT, data, self.B, 23)
        tracemalloc.start()
        try:
            bootstrap_errors(ACT, data, self.B, 23)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_cold_call_holds_one_compact_pool(self):
        data = self.data()
        ln._resample_indices.cache_clear()
        tracemalloc.start()
        try:
            bootstrap_errors(ACT, data, self.B, 24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * self.K * self.B + 2**20


def count_ulps(n_labels: int) -> int:
    """Worst-case distance, in ulps of the largest |value|, between a count
    replicate and a gathered one. The count path adds ``n_labels`` rounded
    products in sequence; numpy's mean adds runs of at most 16 of the K
    values in each of 8 accumulators and combines them pairwise (at most 12
    more levels for K < 2**16); the division and subtraction round twice on
    each side."""
    return n_labels + 16 + 12 + 4


class TestReplicateCounts:
    def random_case(self, rng, labels, k):
        draws = tuple(labels[i] for i in rng.integers(0, len(labels), k))
        values = rng.uniform(-2.0, 2.0, len(labels)) * 10.0 ** rng.integers(-3, 4)
        return DiscreteAct(labels, values.tolist()), Dataset(draws=draws, seed=0)

    def assert_close_to_gather(self, act, data, b, seed):
        errors = ln._replicate_errors(act, data, b, seed)
        gathered = full_gather_errors(act, data, b, seed)
        values = dict(zip(act.state_ids, act.values))
        drawn = set(data.draws)
        bound = count_ulps(len(drawn)) * np.spacing(max(abs(values[d]) for d in drawn))
        assert errors.shape == gathered.shape
        assert np.max(np.abs(errors - gathered)) <= bound

    @pytest.mark.parametrize("labels", [tuple(range(6)), ("x", "y", "z", "w")], ids=["int", "str"])
    def test_random_datasets_match_the_gather(self, labels):
        rng = np.random.default_rng(len(labels))
        for i in range(40):
            act, data = self.random_case(rng, labels, int(rng.integers(1, 300)))
            self.assert_close_to_gather(act, data, int(rng.integers(1, 600)), seed=i)

    def test_states_never_drawn(self):
        act = DiscreteAct(STATES, [1.0, 5.0, -3.0, 1e6])
        data = Dataset(draws=("b", "a", "b", "b", "a"), seed=0)
        self.assert_close_to_gather(act, data, 300, seed=1)
        labels, counts = ln._resample_indices(data.draws, 300, 1)
        assert labels == ("b", "a") and counts.shape == (2, 300)

    def test_one_label(self):
        data = Dataset(draws=("c",) * 50, seed=0)
        self.assert_close_to_gather(ACT, data, 200, seed=2)
        assert ln._resample_indices(data.draws, 200, 2)[1].tolist() == [[50] * 200]

    def test_k_distinct_labels(self):
        rng = np.random.default_rng(3)
        k = 300
        act = DiscreteAct(range(k), rng.uniform(0.5, 1.5, k).tolist())
        data = Dataset(draws=tuple(rng.permutation(k).tolist()), seed=0)
        self.assert_close_to_gather(act, data, 500, seed=3)

    def test_balanced_counts(self):
        rng = np.random.default_rng(4)
        for k, b in ((1, 1), (7, 3), (200, 4000), (300, 513)):
            draws = tuple(int(x) for x in rng.integers(0, 9, k))
            labels, counts = ln._resample_indices(draws, b, k)
            assert labels == tuple(dict.fromkeys(draws))
            assert counts.shape == (len(labels), b)
            assert np.all(counts.sum(axis=0, dtype=np.int64) == k)
            for label, row in zip(labels, counts):
                assert row.sum(dtype=np.int64) == b * draws.count(label)
            assert counts.dtype == (np.uint8 if k <= 255 else np.uint16)

    def test_one_read_only_entry_per_key(self):
        draws = draw_sample(BELIEF, STATES, 200, seed=5).draws
        first = ln._resample_indices(draws, 4000, 6)
        assert ln._resample_indices(tuple(list(draws)), 4000, 6) is first
        assert not first[1].flags.writeable
        assert ln._resample_indices(draws, 4000, 7) is not first

    @pytest.mark.parametrize("draws, b, error, message", [
        (("a", "b"), 0, ValueError, "replicate count must be at least 1"),
        (("a", "z"), 0, ValueError, "replicate count must be at least 1"),
        (("a", "z"), 10, AlignmentError, "draw 'z' is not a state of the act"),
    ], ids=["no-replicates", "no-replicates-before-alignment", "unknown-draw"])
    def test_errors_match_the_gather(self, draws, b, error, message):
        data = Dataset(draws=draws, seed=0)
        for call in (bootstrap_errors, ln._replicate_errors):
            with pytest.raises(error, match=message):
                call(ACT, data, b, 0)

    def test_criterion_5_fixtures_decide_as_the_gather(self):
        # criterion 5's fixture shape, K and B; the acts its audits score
        rng = np.random.default_rng(9)
        rule = SmoothRule(gamma=1.0, k=1e-5)
        b = 4000
        for i in range(12):
            n_states = int(rng.integers(4, 6))
            states = tuple(range(n_states))
            act = DiscreteAct(states, (1.0 + np.cumsum(rng.uniform(0.02, 0.05, n_states))).tolist())
            masses = rng.uniform(0.4, 1.0, n_states)
            belief = Belief((masses / masses.sum()).tolist())
            data = draw_sample(belief, states, 200, seed=100 + i)
            payoffs = sorted(value_cells(act))
            v1, v2 = payoffs[0], payoffs[1]
            sosd = coarsening_sosd_bootstrap(act, v1, v2, data, b, i, true_belief=belief)
            assert sosd == gathered_sosd(act, v1, v2, data, b, i, belief)
            merges = [
                coarsen_act(act, lo, hi, "empirical_mean", true_belief=belief, data=data)
                for j, lo in enumerate(payoffs) for hi in payoffs[j + 1:]
            ]
            patched = [payoffs[-1] if j % 3 == 0 else v for j, v in enumerate(act.values)]
            mixtures = [
                DiscreteAct(states, [a * x + (1 - a) * y for x, y in zip(act.values, patched)])
                for a in (0.25, 0.5, 0.75)
            ]
            for f in [act, *merges, *mixtures]:
                threshold = rule.phi_scalar(empirical_expectation(f, data)) - rule.k
                score = perceived_score(f, data, rule, b, i)
                reference = gathered_score(f, data, rule, b, i)
                assert abs(score - reference) < 1e-15
                assert (score >= threshold) == (reference >= threshold)
                assert has_certain_equivalent(f, data, rule, b, i) == (reference >= threshold)


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

    @pytest.mark.parametrize("gamma, k, message", [
        (float("inf"), 0.1, "gamma must be finite, got inf"),
        (1.0, float("inf"), "k must be finite, got inf"),
    ])
    def test_inf_rejected(self, gamma, k, message):
        with pytest.raises(ValueError) as err:
            SmoothRule(gamma=gamma, k=k)
        assert str(err.value) == message

    def test_phi_concave_increasing(self):
        rule = SmoothRule(gamma=2.0, k=0.0)
        xs = np.linspace(-1, 3, 50)
        ys = rule.phi(xs)
        assert np.all(np.diff(ys) > 0)
        assert np.all(np.diff(ys, 2) < 0)


class TestSmoothDecide:
    # the smooth rule has no dominance test, so every verdict is BY_BOUNDS
    def test_constant_far_above(self):
        data = draw_sample(BELIEF, STATES, 200, seed=21)
        verdict = smooth_decide(ACT, 10.0, data, RULE, 500, seed=8)
        assert verdict.verdict is Verdict.STRICTLY_PREFERS_G
        assert verdict.provenance is Provenance.BY_BOUNDS

    def test_constant_act_indifferent_to_itself(self):
        const = DiscreteAct(STATES, [2.0] * 4)
        data = draw_sample(BELIEF, STATES, 50, seed=22)
        verdict = smooth_decide(const, 2.0, data, RULE, 200, seed=9)
        assert verdict.verdict is Verdict.INDIFFERENT
        assert verdict.provenance is Provenance.BY_BOUNDS

    def test_zero_dispersion_at_mean_indifferent(self):
        const = DiscreteAct(STATES, [1.5] * 4)
        data = draw_sample(BELIEF, STATES, 80, seed=23)
        for k in (1e-9, 0.1):
            rule = SmoothRule(gamma=1.0, k=k)
            verdict = smooth_decide(const, 1.5, data, rule, 200, seed=10)
            assert verdict.verdict is Verdict.INDIFFERENT
            assert verdict.provenance is Provenance.BY_BOUNDS

    def test_far_below_prefers_act(self):
        data = draw_sample(BELIEF, STATES, 200, seed=24)
        verdict = smooth_decide(ACT, -5.0, data, RULE, 500, seed=11)
        assert verdict.verdict is Verdict.STRICTLY_PREFERS_F
        assert verdict.provenance is Provenance.BY_BOUNDS

    def test_dispersed_act_just_below_its_mean_incomparable(self):
        # c sits below the empirical mean, so c is not weakly preferred, yet
        # the act's dispersion keeps its score below phi(c) - k
        act = DiscreteAct(STATES, [0.0, 1.0, 2.0, 6.0])
        rule = SmoothRule(gamma=2.0, k=1e-9)
        data = draw_sample(BELIEF, STATES, 20, seed=25)
        c = empirical_expectation(act, data) - 1e-3
        assert perceived_score(act, data, rule, 200, 12) < rule.phi_scalar(c) - rule.k
        verdict = smooth_decide(act, c, data, rule, 200, seed=12)
        assert verdict.verdict is Verdict.INCOMPARABLE
        assert verdict.provenance is Provenance.BY_BOUNDS


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

    def test_bootstrap_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call; a fresh interpreter
        # shows whether the bootstrap path makes that call
        script = (
            "import sys\n"
            "from coarse_bounds.acts import Belief, DiscreteAct\n"
            "from coarse_bounds.learning import coarsening_sosd_bootstrap, draw_sample\n"
            "states, belief = 'abcd', Belief([0.3, 0.3, 0.2, 0.2])\n"
            "act = DiscreteAct(states, [1.0, 1.04, 1.07, 1.11])\n"
            "data = draw_sample(belief, states, 200, seed=3000)\n"
            "print(coarsening_sosd_bootstrap(act, 1.0, 1.04, data, 400, 1, true_belief=belief),\n"
            "      'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(ln.__file__).parents[1])
        path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert res.returncode == 0, res.stderr
        # True: the means agree, so the grid was built
        assert res.stdout.split() == ["True", "False"]

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
