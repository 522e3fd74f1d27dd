"""Comparative-statics tests: stochastic orders, capacity profiles, and the
lattice property suites, all quantified over full optimum sets."""

import numpy as np
import pytest

import coarse_bounds.engine as engine
from coarse_bounds import statics
from coarse_bounds.acts import ValueLadder
from coarse_bounds.engine import bound, capacity_values, siminf
from coarse_bounds.errors import (
    AlignmentError, DegenerateBeliefError, InvalidCapacityError, PreconditionError,
)
from coarse_bounds.statics import (
    capacity_profile,
    fosd_leq,
    increasing_differences_holds,
    mlr_cutoff_monotonicity,
    mlr_shift,
    nested_marginal_returns,
    optimum_set,
    sandwich_check,
    sosd_strict,
    sso_monotone_in_interval,
    submodular_delta_holds,
    submodularity_gap,
    supermodular_coarse_holds,
    weakly_sandwiched,
)

from util import dyadic_ladder, float_ladder

UNIFORM4 = ValueLadder([1.0, 2.0, 3.0, 4.0], [0.25] * 4)
UNIFORM8 = ValueLadder([float(i) for i in range(1, 9)], [0.125] * 8)


class TestFosd:
    def test_self(self):
        assert fosd_leq(UNIFORM4, UNIFORM4)

    def test_point_masses(self):
        assert fosd_leq(((1.0,), (1.0,)), ((0.0,), (1.0,)))
        assert not fosd_leq(((0.0,), (1.0,)), ((1.0,), (1.0,)))

    def test_crossing_cdfs(self):
        p = ((0.0, 3.0), (0.5, 0.5))
        q = ((1.0, 2.0), (0.5, 0.5))
        assert not fosd_leq(p, q) or not fosd_leq(q, p)
        assert not (fosd_leq(p, q) and fosd_leq(q, p))


class TestSosd:
    def test_not_strict_against_self(self):
        samples = [0.0, 1.0, -1.0, 0.5]
        assert not sosd_strict(samples, samples)

    def test_point_mass_dominates_mean_preserving_spread(self):
        assert sosd_strict([0.0, 0.0], [-1.0, 1.0])
        assert not sosd_strict([-1.0, 1.0], [0.0, 0.0])

    def test_unequal_means_rejected(self):
        assert not sosd_strict([1.0, 1.0], [-1.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sosd_strict([], [0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        # a NaN passes the mean check and compares false against every gap
        for f, h in (([bad, 5.0], [-1.0, 1.0]), ([0.0, 0.0], [-1.0, bad]), ([bad], [bad])):
            with pytest.raises(ValueError, match="distributions must be finite"):
                sosd_strict(f, h)

    def test_grid_is_the_distinct_samples(self, monkeypatch):
        # the merged support that sosd_strict reads the integrated cdfs on is
        # np.unique's, on samples with repeats and zeros of both signs
        grids, cdf = [], statics.integrated_cdf

        def recorded(samples, points):
            grids.append(points)
            return cdf(samples, points)

        monkeypatch.setattr(statics, "integrated_cdf", recorded)
        rng = np.random.default_rng(5)
        for size in (1, 2, 7, 60):
            f = rng.integers(-3, 4, size=size).astype(float)
            f = np.where(f == 0.0, rng.choice([0.0, -0.0], size=size), f)
            h = rng.permutation(f)
            if size > 1:  # a spread with the same mean, exactly
                h[0] -= 1.0
                h[1] += 1.0
            grids.clear()
            sosd_strict(f, h)
            want = np.unique(np.concatenate([f, h]))
            assert len(grids) == 2
            for grid in grids:
                assert grid.tolist() == want.tolist()


class TestMlrShift:
    def test_identity_weights(self):
        shift = mlr_shift((0.2, 0.3, 0.5), (1.0, 1.0, 1.0))
        assert shift.shifted == (0.2, 0.3, 0.5)

    def test_exponential_tilt_valid_and_fosd(self):
        masses = (0.25, 0.25, 0.25, 0.25)
        weights = tuple(np.exp(0.8 * np.arange(4)).tolist())
        shift = mlr_shift(masses, weights)
        assert abs(sum(shift.shifted) - 1.0) < 1e-12
        support = (1.0, 2.0, 3.0, 4.0)
        assert fosd_leq((support, shift.shifted), (support, masses))

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            mlr_shift((0.5, 0.5), (1.0, 0.5))
        with pytest.raises(ValueError):
            mlr_shift((0.5, 0.5), (0.0, 1.0))
        with pytest.raises(AlignmentError):
            mlr_shift((0.5, 0.5), (1.0,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weights(self, bad):
        # NaN passed both order checks and shifted the belief to NaN masses
        with pytest.raises(ValueError, match=f"^weights must be finite, got {bad!r}$"):
            mlr_shift((0.5, 0.5), (1.0, bad))

    @pytest.mark.parametrize("masses, error, message", [
        ((-1.0, 2.0), ValueError, "belief masses must be finite and non-negative"),
        ((0.0, 0.0), DegenerateBeliefError, "belief puts no mass on any state"),
    ], ids=["negative", "all-zero"])
    def test_invalid_masses(self, masses, error, message):
        # a negative mass used to pass through, and all-zero masses to divide by zero
        with pytest.raises(error) as err:
            mlr_shift(masses, (1.0, 1.0))
        assert str(err.value) == message


class TestCapacityProfile:
    def test_uniform4_lower(self):
        prof = capacity_profile(UNIFORM4, 4, "lower")
        assert prof.values == (1.0, 2.0, 2.25, 2.5)
        assert prof.monotone and prof.concave
        assert tuple(b - a for a, b in zip(prof.values, prof.values[1:])) == (1.0, 0.25, 0.25)

    def test_constant_ladder_flat(self):
        lad = ValueLadder([5.0], [1.0])
        prof = capacity_profile(lad, 3, "lower")
        assert prof.values == (5.0, 5.0, 5.0)
        assert prof.monotone and prof.concave

    def test_reaches_expectation(self):
        prof = capacity_profile(UNIFORM4, 6, "lower")
        assert prof.values[3] == pytest.approx(2.5, abs=0)
        assert prof.values[5] == prof.values[3]

    def test_upper_kind_flags(self):
        prof = capacity_profile(UNIFORM4, 4, "upper")
        assert prof.values == (4.0, 3.0, 2.75, 2.5)
        assert prof.monotone and prof.concave

    def test_rows(self):
        rows = capacity_profile(UNIFORM4, 3, "lower").rows()
        assert rows == [(1, 1.0, None), (2, 2.0, 1.0), (3, 2.25, 0.25)]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_one_fill_matches_separate_bounds(self, offset):
        length = engine._NUMPY_DP_THRESHOLD + offset
        rng = np.random.default_rng(length)
        lad = float_ladder(rng, max_levels=length, min_levels=length)
        for kind in ("lower", "upper"):
            prof = capacity_profile(lad, 8, kind)
            for n in range(1, 9):
                assert prof.values[n - 1] == bound(lad, n, kind).value


class TestSubmodularity:
    def test_wider_interval_gains_more(self):
        # splitting gains more on a wider interval
        assert submodularity_gap(UNIFORM4, (0, 3), 2) >= submodularity_gap(UNIFORM4, (1, 3), 2)

    def test_random_nested(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            lad = dyadic_ladder(rng, max_levels=12)
            if len(lad) < 3:
                continue
            lo_o = int(rng.integers(0, len(lad) - 2))
            hi_o = int(rng.integers(lo_o + 2, len(lad)))
            lo_i = int(rng.integers(lo_o, hi_o - 1))
            hi_i = int(rng.integers(lo_i + 1, hi_o + 1))
            split = int(rng.integers(lo_i + 1, hi_i + 1))
            assert submodular_delta_holds(lad, (lo_o, hi_o), (lo_i, hi_i), split)
            if (lo_o, hi_o) != (lo_i, hi_i):
                assert submodularity_gap(lad, (lo_o, hi_o), split) > (
                    submodularity_gap(lad, (lo_i, hi_i), split)
                )

    def test_split_must_be_interior(self):
        with pytest.raises(ValueError):
            submodularity_gap(UNIFORM4, (1, 3), 1)


class TestSupermodularCoarseValue:
    def test_random_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            lad = dyadic_ladder(rng, max_levels=12)
            if len(lad) < 4:
                continue
            k = int(rng.integers(1, min(4, len(lad) - 1) + 1))
            pool = np.arange(1, len(lad))
            a = tuple(sorted(rng.choice(pool, size=k, replace=False).tolist()))
            b = tuple(sorted(rng.choice(pool, size=k, replace=False).tolist()))
            assert supermodular_coarse_holds(lad, a, b)


class TestSandwich:
    def test_vacuous_when_exact(self):
        assert sandwich_check(UNIFORM4, 4)
        assert sandwich_check(UNIFORM4, 9)

    def test_uniform4(self):
        assert sandwich_check(UNIFORM4, 2)

    def test_weakly_sandwiched_helper(self):
        assert weakly_sandwiched((2,), (1, 3))
        assert weakly_sandwiched((2,), (2, 3))
        assert not weakly_sandwiched((2,), (3, 4))
        with pytest.raises(AlignmentError):
            weakly_sandwiched((2,), (1, 2, 3))

    def test_random_suite(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            lad = dyadic_ladder(rng, max_levels=12)
            n = int(rng.integers(1, 5))
            assert sandwich_check(lad, n)

    @pytest.mark.parametrize("n", [4.5, 7.0, -1, 0, 2.5, True, "3"])
    def test_capacity_checked_before_the_vacuous_case(self, n):
        # 4.5 and 7.0 exceed the 4 levels, and the message names n, not n + 1
        with pytest.raises(InvalidCapacityError, match=f"got {n!r}$"):
            sandwich_check(UNIFORM4, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_one_fill_for_both_capacities(self, n, monkeypatch):
        fills = []
        fill = engine._fill
        monkeypatch.setattr(engine, "_fill", lambda *args: fills.append(args[2:]) or fill(*args))
        assert sandwich_check(UNIFORM8, n)
        assert fills == [(0, 7, n + 1, False)]
        fills.clear()
        assert sandwich_check(UNIFORM4, 4) and fills == []


class TestStrongSetOrder:
    def test_identical_intervals(self):
        assert sso_monotone_in_interval(UNIFORM8, 3, (0, 5), (0, 5))

    def test_shifted_intervals_uniform8(self):
        assert sso_monotone_in_interval(UNIFORM8, 3, (0, 5), (2, 7))

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            sso_monotone_in_interval(UNIFORM8, 3, (2, 7), (0, 5))

    def test_random_pairs(self):
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 300:
            lad = dyadic_ladder(rng, max_levels=12)
            n = int(rng.integers(2, 5))
            if len(lad) < n + 2:
                continue
            span = int(rng.integers(n, len(lad)))
            lo1 = int(rng.integers(0, len(lad) - span + 1))
            lo2 = int(rng.integers(lo1, len(lad) - span + 1))
            checked += 1
            assert sso_monotone_in_interval(
                lad, n, (lo1, lo1 + span - 1), (lo2, lo2 + span - 1)
            )

    @pytest.mark.parametrize("i_low, i_high, filled", [
        ((0, 5), (0, 5), [(0, 5, 3, False)]),
        ([0, 5], (0, 5), [(0, 5, 3, False)]),
        ((0, 5), (2, 7), [(2, 7, 3, False), (0, 5, 3, False)]),
        ((0, 7), (0, 7), [(0, 7, 3, False)]),
    ], ids=["equal", "equal-list", "shifted", "whole"])
    def test_one_fill_per_distinct_interval(self, i_low, i_high, filled, monkeypatch):
        fills = []
        fill = engine._fill
        monkeypatch.setattr(engine, "_fill", lambda *args: fills.append(args[2:]) or fill(*args))
        assert sso_monotone_in_interval(UNIFORM8, 3, i_low, i_high)
        assert fills == filled

    def test_equal_intervals_keep_their_errors(self):
        with pytest.raises(ValueError, match="invalid interval"):
            sso_monotone_in_interval(UNIFORM8, 3, (2, 9), (2, 9))
        with pytest.raises(TypeError):
            sso_monotone_in_interval(UNIFORM8, 3, (0.0, 5.0), (0, 5))
        with pytest.raises(InvalidCapacityError):
            sso_monotone_in_interval(UNIFORM8, 0, (0, 5), (0, 5))


class TestNestedMarginalReturns:
    def test_equal_intervals(self):
        assert nested_marginal_returns(UNIFORM8, 3, (0, 7), (0, 7))

    def test_middle_half_of_uniform8(self):
        assert nested_marginal_returns(UNIFORM8, 3, (2, 5), (0, 7))

    def test_not_nested_raises(self):
        with pytest.raises(PreconditionError):
            nested_marginal_returns(UNIFORM8, 3, (0, 7), (2, 5))

    def test_one_value_fill_per_interval(self, monkeypatch):
        # one fill per interval at n + 1, the wider interval's first, gives
        # its optimum set and W(n), W(n + 1)
        fills = []
        fill = engine._fill
        monkeypatch.setattr(engine, "_fill", lambda *args: fills.append(args[2:]) or fill(*args))
        assert nested_marginal_returns(UNIFORM8, 3, (2, 5), (0, 7))
        assert fills == [(0, 7, 4, False), (2, 5, 4, False)]

    def test_random_filtered(self):
        rng = np.random.default_rng(16)
        checked = 0
        attempts = 0
        while checked < 300 and attempts < 6000:
            attempts += 1
            lad = dyadic_ladder(rng, max_levels=12)
            n = int(rng.integers(2, 5))
            if len(lad) < n + 3:
                continue
            lo_s = int(rng.integers(0, 3))
            hi_s = int(rng.integers(len(lad) - 3, len(lad)))
            inner_lo = int(rng.integers(lo_s, lo_s + 2))
            inner_hi = int(rng.integers(hi_s - 1, hi_s + 1))
            if inner_hi - inner_lo + 1 < n + 1 or hi_s - lo_s + 1 < n + 1:
                continue
            try:
                ok = nested_marginal_returns(lad, n, (inner_lo, inner_hi), (lo_s, hi_s))
            except PreconditionError:
                continue
            checked += 1
            assert ok
        assert checked == 300


class TestMlrCutoffMonotonicity:
    def test_identity_shift(self):
        shift = mlr_shift(UNIFORM8.level_masses, (1.0,) * 8)
        assert mlr_cutoff_monotonicity(UNIFORM8, shift, 3)

    def test_exponential_tilt_uniform8(self):
        weights = tuple(np.exp(0.7 * np.arange(8)).tolist())
        shift = mlr_shift(UNIFORM8.level_masses, weights)
        assert mlr_cutoff_monotonicity(UNIFORM8, shift, 3)

    def test_random_suite(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            lad = dyadic_ladder(rng, max_levels=12)
            n = int(rng.integers(1, 5))
            lam = float(rng.uniform(0.1, 1.5))
            shift = mlr_shift(lad.level_masses, np.exp(lam * np.arange(len(lad))).tolist())
            assert mlr_cutoff_monotonicity(lad, shift, n)


class TestIncreasingDifferences:
    def test_random_cut_pairs(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            lad = dyadic_ladder(rng, max_levels=12)
            if len(lad) < 5:
                continue
            hi_big = len(lad) - 1
            hi_small = int(rng.integers(3, hi_big + 1))
            k = int(rng.integers(1, 3))
            if hi_small < k + 1:
                continue
            pool = np.arange(1, hi_small + 1)
            a = tuple(sorted(rng.choice(pool, size=k, replace=False).tolist()))
            b = tuple(sorted(rng.choice(pool, size=k, replace=False).tolist()))
            hi_c, lo_c = (a, b) if a[-1] >= b[-1] else (b, a)
            assert increasing_differences_holds(lad, 0, hi_small, hi_big, hi_c, lo_c)


class TestRestrictedProblems:
    def test_restricted_value_matches_full_when_whole(self):
        assert capacity_values(UNIFORM8, 3, "lower", (0, 7))[-1] == siminf(UNIFORM8, 3).value

    @pytest.mark.parametrize("interval", [(-1, 2), (2, 1), (0, 9), (0, 4)])
    def test_restricted_value_rejects_invalid_interval(self, interval):
        with pytest.raises(ValueError, match="invalid interval"):
            capacity_values(UNIFORM4, 2, "lower", interval)

    @pytest.mark.parametrize("query, interval", [
        (optimum_set, (0.0, 5.0)),
        (capacity_values, (0, 5.5)),
        (optimum_set, (True, 5)),
    ])
    def test_non_integer_interval_bounds_are_named(self, query, interval):
        with pytest.raises(TypeError, match=r"interval bounds must be integers, got \("):
            query(UNIFORM8, 3, "lower", interval)

    def test_numpy_integer_interval_bounds(self):
        interval = (np.int64(1), np.int32(6))
        assert optimum_set(UNIFORM8, 3, "lower", interval) == optimum_set(UNIFORM8, 3, "lower", (1, 6))
        assert capacity_values(UNIFORM8, 3, "lower", interval) == capacity_values(
            UNIFORM8, 3, "lower", (1, 6))

    @pytest.mark.parametrize("n", [0, -1, -3, 2.5, True])
    def test_restricted_value_rejects_invalid_capacity(self, n):
        with pytest.raises(InvalidCapacityError):
            capacity_values(UNIFORM4, n, "lower", (0, 3))

    def test_optimum_set_guard_and_contents(self):
        opt = optimum_set(UNIFORM4, 2, "lower")
        assert opt == ((2,),)
        opt3 = optimum_set(UNIFORM4, 3, "lower")
        assert opt3 == ((1, 2), (1, 3), (2, 3))


SCALES = (-40, 0, 20, 40)
# ladders with many exact ties in real arithmetic, which rounding breaks
TIED = [(step, size) for step in (0.1, 0.3, 0.7, 1 / 3) for size in range(5, 31)]


def tied_ladder(step: float, size: int, s: int) -> ValueLadder:
    return ValueLadder([step * k * 2.0 ** s for k in range(size)], [1 / size] * size)


class TestScaleFreeVerdicts:
    """Scaling every level by 2^s is exact, and so is every sum and product
    of the bound values, cells and coarse values that the predicates
    compare, so no verdict may move with s. An absolute slack moved some at
    2^20 and 2^40, where rounding is larger than 1e-12."""

    @staticmethod
    def moved(check, draw, per_ladder, seed):
        """(step, size, args, verdicts) of every seeded instance whose verdict
        ``check(ladder, *args)`` differs between two scales."""
        rng = np.random.default_rng(seed)
        moved = []
        for step, size in TIED:
            for _ in range(per_ladder):
                args = draw(rng, size)
                if args is None:
                    continue
                verdicts = []
                for s in SCALES:
                    try:
                        verdicts.append(check(tied_ladder(step, size, s), *args))
                    except PreconditionError:
                        verdicts.append("precondition")
                if len(set(verdicts)) > 1:
                    moved.append((step, size, args, verdicts))
        return moved

    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_capacity_profile(self, kind):
        def check(lad):
            profile = capacity_profile(lad, min(len(lad), 8), kind)
            return profile.monotone, profile.concave
        assert self.moved(check, lambda rng, size: (), 1, 0) == []

    def test_submodular_delta(self):
        def draw(rng, size):
            lo_o = int(rng.integers(0, size - 2))
            hi_o = int(rng.integers(lo_o + 2, size))
            lo_i = int(rng.integers(lo_o, hi_o - 1))
            hi_i = int(rng.integers(lo_i + 1, hi_o + 1))
            return (lo_o, hi_o), (lo_i, hi_i), int(rng.integers(lo_i + 1, hi_i + 1))
        assert self.moved(submodular_delta_holds, draw, 5, 1) == []

    def test_supermodular_coarse(self):
        def draw(rng, size):
            k = int(rng.integers(1, min(4, size - 1) + 1))
            pool = np.arange(1, size)
            return tuple(tuple(sorted(rng.choice(pool, size=k, replace=False).tolist()))
                         for _ in range(2))
        assert self.moved(supermodular_coarse_holds, draw, 5, 2) == []

    def test_nested_marginal_returns(self):
        def draw(rng, size):
            n = int(rng.integers(2, 4))
            lo_s, hi_s = int(rng.integers(0, 3)), int(rng.integers(size - 3, size))
            inner = int(rng.integers(lo_s, lo_s + 2)), int(rng.integers(hi_s - 1, hi_s + 1))
            return None if inner[1] - inner[0] < n else (n, inner, (lo_s, hi_s))
        assert self.moved(nested_marginal_returns, draw, 5, 3) == []

    def test_increasing_differences(self):
        def draw(rng, size):
            hi_small = int(rng.integers(3, size))
            k = int(rng.integers(1, 3))
            pool = np.arange(1, hi_small + 1)
            a, b = (tuple(sorted(rng.choice(pool, size=k, replace=False).tolist()))
                    for _ in range(2))
            return (0, hi_small, size - 1, *((a, b) if a[-1] >= b[-1] else (b, a)))
        assert self.moved(increasing_differences_holds, draw, 5, 4) == []


class TestMarginVerdictsOnRoundedLadders:
    """The marginal-return and increasing-difference verdicts compare
    differences of rounded bound and coarse values within the ladder's
    ``tie_slack``. On generic float levels and on integer levels with
    generic masses, which criterion 3's dyadic ladders never are, each
    verdict holds at 2^-40, 1, 2^20 and 2^40."""

    @staticmethod
    def ladders(seed, count):
        """(levels, masses) pairs, float levels and integer levels in turn,
        5-12 levels each, masses generic floats that sum to 1."""
        rng = np.random.default_rng(seed)
        for i in range(count):
            if i % 2:
                lad = float_ladder(rng, max_levels=12, min_levels=5)
                yield lad.levels, lad.level_masses
            else:
                size = int(rng.integers(5, 13))
                levels = sorted(rng.choice(np.arange(-16, 17), size=size, replace=False))
                masses = rng.uniform(0.05, 1.0, size=size)
                yield [float(v) for v in levels], (masses / masses.sum()).tolist()

    @staticmethod
    def verdicts(check, levels, masses, *args):
        """``check`` at each of ``SCALES``; a failed precondition is None."""
        out = []
        for s in SCALES:
            try:
                out.append(check(ValueLadder([v * 2.0 ** s for v in levels], masses), *args))
            except PreconditionError:
                out.append(None)
        return out

    def test_nested_marginal_returns(self):
        rng = np.random.default_rng(5)
        checked = 0
        for levels, masses in self.ladders(5, 1000):
            size, n = len(levels), int(rng.integers(2, 4))
            lo_s, hi_s = int(rng.integers(0, 3)), int(rng.integers(size - 3, size))
            inner = int(rng.integers(lo_s, lo_s + 2)), int(rng.integers(hi_s - 1, hi_s + 1))
            if inner[1] - inner[0] < n:
                continue
            got = self.verdicts(nested_marginal_returns, levels, masses, n, inner, (lo_s, hi_s))
            # the precondition reads optimum sets, whose absolute floor
            # admits more tied vectors at 2^-40; every verdict given is true
            assert set(got) <= {True, None}, (levels, masses, n, inner, (lo_s, hi_s), got)
            checked += got[SCALES.index(0)] is True
        assert checked >= 500

    def test_increasing_differences(self):
        rng = np.random.default_rng(6)
        for levels, masses in self.ladders(6, 1000):
            size = len(levels)
            hi_small, k = int(rng.integers(3, size)), int(rng.integers(1, 3))
            pool = np.arange(1, hi_small + 1)
            a, b = (tuple(sorted(rng.choice(pool, size=k, replace=False).tolist()))
                    for _ in range(2))
            cuts = (a, b) if a[-1] >= b[-1] else (b, a)
            got = self.verdicts(increasing_differences_holds, levels, masses,
                                0, hi_small, size - 1, *cuts)
            assert got == [True] * len(SCALES), (levels, masses, hi_small, cuts, got)
