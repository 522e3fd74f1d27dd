"""Edge cases across modules: DP fill-path parity, degenerate masses,
larger partition grounds, input checks, and CLI error handling."""

import json
import re
import sys
import threading
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coarse_bounds.engine as engine
from coarse_bounds import preferences, statics
from coarse_bounds.acts import Belief, DiscreteAct, ValueLadder, build_ladder
from coarse_bounds.applications.contracts import agent_value
from coarse_bounds.applications.crra import CRRAUtility
from coarse_bounds.applications.insurance import (
    InsuranceContract, LossModel, dominated_pair, plan_value, sensitivity, wtp,
)
from coarse_bounds.cli import run
from coarse_bounds.engine import bound, bound_value, pull_back, siminf, simsup
from coarse_bounds.errors import (
    AlignmentError, DegenerateBeliefError, InvalidCapacityError, OracleTooLargeError,
    PreconditionError,
)
from coarse_bounds.learning import coarsen_act
from coarse_bounds.partitions import common_refinement, partition_path

from test_contracts import PROBLEM
from test_partitions import check_path, random_partition


NUMPY = engine._NUMPY_DP_THRESHOLD
MONO = engine._MONOTONE_DP_THRESHOLD
# (_NUMPY_DP_THRESHOLD, _MONOTONE_DP_THRESHOLD) that force each fill branch
BRANCHES = {"python": (10**9, 10**9), "dense": (2, 10**9), "monotone": (2, 2)}


def parity_ladder(length: int, shape: str) -> ValueLadder:
    """Float ladder; ``tied`` has equally spaced levels and uniform 1/L
    masses, ``zero-mass`` sets about a third of the masses to 0, and
    ``dyadic`` has integer levels and masses k/2^20, so that every sum is
    exact."""
    if shape == "tied":
        return ValueLadder([float(i) for i in range(length)], [1 / length] * length)
    rng = np.random.default_rng(length)
    if shape == "dyadic":
        levels = np.sort(rng.choice(np.arange(-4 * length, 4 * length), length, replace=False))
        edges = np.concatenate(([0], np.sort(rng.integers(0, 1 << 20, length - 1)), [1 << 20]))
        return ValueLadder(levels.astype(float).tolist(), (np.diff(edges) / (1 << 20)).tolist())
    levels = np.cumsum(rng.uniform(0.01, 1.0, size=length)).tolist()
    w = rng.uniform(0.1, 1.0, size=length)
    if shape == "zero-mass":
        w[rng.random(length) < 0.3] = 0.0
    masses = (w / w.sum()).tolist()
    masses[int(np.argmax(masses))] += 1.0 - sum(masses)
    return ValueLadder(levels, masses)


def top_block_starts(ladder, n, kind):
    """The top-block starts of a fill of the whole ladder at capacity ``n``."""
    return engine.Fill(ladder, (n,), kind, None).top_block_starts(n)


def solve_with(branch, monkeypatch, query, *args):
    numpy_at, monotone_at = BRANCHES[branch]
    monkeypatch.setattr(engine, "_NUMPY_DP_THRESHOLD", numpy_at)
    monkeypatch.setattr(engine, "_MONOTONE_DP_THRESHOLD", monotone_at)
    try:
        return query(*args)
    finally:
        monkeypatch.undo()


class TestDpPathParity:
    """The pure-Python, dense numpy and monotone numpy DP fills share
    arithmetic exactly: each case solves with two of them and compares the
    values and cutoffs (or the capacity values) with ``==``."""

    @staticmethod
    def check(lad, monkeypatch):
        # each length is compared with the branch the next threshold down selects
        branches = ("monotone", "dense") if len(lad) >= MONO - 1 else ("dense", "python")
        for n in (1, 3, 6, 32):
            for kind in (engine.LOWER, engine.UPPER):
                fast, slow = (
                    solve_with(b, monkeypatch, engine._dp_solve, lad, n, kind)
                    for b in branches
                )
                assert fast == slow, (n, kind)

    @pytest.mark.parametrize("length", [
        NUMPY - 1, NUMPY, NUMPY + 1, 39, 40, 41, 64, MONO - 1, MONO, MONO + 1, 2 * MONO,
    ])
    def test_bitwise_identical_values_and_cuts(self, length, monkeypatch):
        self.check(parity_ladder(length, "float"), monkeypatch)

    @pytest.mark.parametrize("shape", ["tied", "zero-mass"])
    @pytest.mark.parametrize("length", [NUMPY, 64, MONO])
    def test_ties_and_zero_masses(self, shape, length, monkeypatch):
        self.check(parity_ladder(length, shape), monkeypatch)

    @pytest.mark.parametrize("shape", ["float", "tied", "zero-mass"])
    @pytest.mark.parametrize("length", [NUMPY - 1, NUMPY, NUMPY + 1])
    def test_optimum_sets_at_the_dense_threshold(self, shape, length, monkeypatch):
        lad = parity_ladder(length, shape)
        for n in (2, 3, 6):
            for kind in (engine.LOWER, engine.UPPER):
                for query in (engine.optimum_set, top_block_starts):
                    dense, python = (
                        solve_with(b, monkeypatch, query, lad, n, kind) for b in ("dense", "python")
                    )
                    assert dense == python, (query.__name__, n, kind)

    def test_interval(self, monkeypatch):
        lad = parity_ladder(2 * MONO, "float")
        lo, hi = 100, 100 + MONO + 50
        for n in (3, 32):
            for kind in (engine.LOWER, engine.UPPER):
                args = (engine.capacity_values, lad, n, kind, (lo, hi))
                fast = solve_with("monotone", monkeypatch, *args)
                assert fast == solve_with("dense", monkeypatch, *args), (n, kind)


def signed_zero_ladders():
    """Every ladder of 2-4 levels from {-2, -1, -0.0, 1, 2} with masses from
    {0, 0.5, 1} that sum to 1: 140 ladders."""
    for length in (2, 3, 4):
        for levels in combinations((-2.0, -1.0, -0.0, 1.0, 2.0), length):
            for masses in product((0.0, 0.5, 1.0), repeat=length):
                if sum(masses) == 1.0:
                    yield ValueLadder(levels, masses)


class TestSignedZero:
    """A -0.0 level or close cell keeps its sign through every fill branch
    and through ``bound_values``, over the exhaustive signed-zero ladders at
    N 2-3 and both kinds (560 cases)."""

    CASES = [
        (lad, n, kind)
        for lad in signed_zero_ladders()
        for n in (2, 3)
        for kind in (engine.LOWER, engine.UPPER)
    ]

    def test_case_count(self):
        assert len(self.CASES) == 560

    def test_bound_values_keeps_the_sign_of_bound(self):
        for lad, n, kind in self.CASES:
            want = np.float64(bound(lad, n, kind).value).tobytes()
            got = engine.bound_values([lad.levels], lad.level_masses, n, kind)[0].tobytes()
            assert got == want, (lad.levels, lad.level_masses, n, kind)

    def test_prefix_masses_add_as_the_loop_does(self):
        def loop(masses):
            pref = [0.0] * (len(masses) + 1)
            for i, m in enumerate(masses):
                pref[i + 1] = pref[i] + m
            return pref

        vectors = [lad.level_masses for lad in signed_zero_ladders()]
        vectors.append((-0.0, 1e-300, 0.1, 1e300, -1e300, 0.2, -0.0))
        for masses in vectors:
            got, want = engine._prefix_masses(masses), loop(masses)
            assert [x.hex() for x in got] == [x.hex() for x in want], masses

    @pytest.mark.parametrize("branch", ["dense", "monotone"])
    def test_numpy_fills_keep_the_sign_of_the_python_fill(self, branch, monkeypatch):
        for lad, n, kind in self.CASES:
            python, numpy_fill = (
                solve_with(b, monkeypatch, bound, lad, n, kind) for b in ("python", branch)
            )
            case = (lad.levels, lad.level_masses, n, kind)
            assert np.float64(numpy_fill.value).tobytes() == np.float64(python.value).tobytes(), case
            assert numpy_fill.cutoffs == python.cutoffs, case


def grid_ladder(length: int, grid: str, seed: int) -> ValueLadder:
    """A seeded ladder on one of four level grids: ``float`` (random
    steps), ``tenth`` (multiples of 0.1), ``ulp`` (1-3 ulps apart above
    1.0) or ``integer``, with about 20% zero masses, or uniform masses on
    every fourth ladder, so that candidates tie."""
    rng = np.random.default_rng(seed)
    picks = np.sort(rng.choice(np.arange(-3 * length, 3 * length), length, replace=False))
    levels = {
        "float": np.cumsum(rng.uniform(0.01, 1.0, length)),
        "tenth": np.round(0.1 * picks, 1),
        "ulp": 1.0 + np.arange(length) * (1 + seed % 3) * 2.0**-52,
        "integer": picks.astype(float),
    }[grid]
    if seed % 4 == 0:
        return ValueLadder(levels.tolist(), [1 / length] * length)
    w = rng.uniform(0.1, 1.0, length)
    w[rng.random(length) < 0.2] = 0.0
    w[rng.integers(length)] = 1.0
    masses = (w / w.sum()).tolist()
    masses[int(np.argmax(masses))] += 1.0 - sum(masses)
    return ValueLadder(levels.tolist(), masses)


def grid_ladders(lengths):
    return st.builds(
        grid_ladder, lengths, st.sampled_from(["float", "tenth", "ulp", "integer"]),
        st.integers(0, 2**32 - 1),
    )


class TestBoundValue:
    """``bound_value`` is ``bound(...).value`` bit for bit, raises what
    ``bound`` raises, and the value-only callers build no ``BoundResult``."""

    @given(lad=grid_ladders(st.integers(2, 40)), n=st.integers(1, 9),
           kind=st.sampled_from(["lower", "upper"]))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_bound_on_every_branch(self, lad, n, kind, monkeypatch):
        for branch in BRANCHES:
            want = solve_with(branch, monkeypatch, bound, lad, n, kind).value
            got = solve_with(branch, monkeypatch, bound_value, lad, n, kind)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), branch

    @pytest.mark.parametrize("branch", list(BRANCHES))
    def test_keeps_the_sign_of_bound(self, branch, monkeypatch):
        for lad, n, kind in TestSignedZero.CASES:
            want, got = (
                solve_with(branch, monkeypatch, query, lad, n, kind)
                for query in (lambda *a: bound(*a).value, bound_value)
            )
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (lad.levels, n, kind)

    @pytest.mark.parametrize("n, kind", [
        (0, "sideways"), (0, "lower"), (2.0, "upper"), (True, "lower"), (-1, "upper"),
        (2, "sideways"),
    ])
    def test_raises_what_bound_raises(self, n, kind):
        lad = parity_ladder(5, "float")
        with pytest.raises(Exception) as want:
            bound(lad, n, kind)
        with pytest.raises(want.type) as got:
            bound_value(lad, n, kind)
        assert str(got.value) == str(want.value)

    def test_value_only_callers_build_no_bound_result(self, monkeypatch):
        def unread(*args):
            raise AssertionError("a BoundResult was built for its value alone")

        monkeypatch.setattr(engine, "_bound_from_cuts", unread)
        act = DiscreteAct(list("abcde"), [0.3, -1.0, 2.5, 0.3, 1.75])
        other = DiscreteAct(list("abcde"), [1.0, 0.0, 0.5, 2.0, -0.5])
        belief = Belief([0.1, 0.3, 0.2, 0.25, 0.15])
        for attitude in ("cautious", "reckless"):
            preferences.value(act, belief, 2, attitude)
        preferences.simple_bounds_compare(act, other, belief, 2)
        model = LossModel.uniform(1.0, 40).tilted(1.5)
        contract = InsuranceContract(0.05, 0.3, 0.75, None, 2.0)
        plan_value(contract, model, CRRAUtility(2.0), 3)
        wtp(contract, model, CRRAUtility(2.0), 3, "lower_deductible", 0.1)
        dominated_pair(contract, 0.15, model, CRRAUtility(2.0), 3)
        agent_value(PROBLEM, PROBLEM.wage_grid[::3], "mid", 3, "cautious")


class TestMonotoneSplits:
    """The monotone search's split schedule, its parity with the dense
    branch on long ladders, and its behaviour where rounding breaks the
    monotonicity of the smallest optimal block end."""

    def test_schedule_solves_every_row_once_after_its_bounds(self):
        for rows in range(1, 601):
            solved = np.zeros(rows + 2, dtype=int)
            solved[[0, -1]] = 1  # the sentinels
            for mid, left_ref, right_ref in engine._splits(rows):
                assert all(not a.flags.writeable for a in (mid, left_ref, right_ref)), rows
                assert solved[left_ref].all() and solved[right_ref].all(), rows
                assert (left_ref <= mid).all() and (mid + 1 < right_ref).all(), rows
                solved[mid + 1] += 1
            assert (solved == 1).all(), rows
        assert len(engine._splits(552)) == 5 and len(engine._splits(1999)) == 6
        assert engine._splits(552) is engine._splits(552)

    @pytest.mark.parametrize("shape", ["float", "dyadic", "zero-mass", "tied"])
    @pytest.mark.parametrize("length", [700, 1024])
    def test_matches_the_dense_branch(self, shape, length, monkeypatch):
        # every layer's values and choices: so the values and cutoffs of
        # bound and the rows of capacity_values, which read them
        lad = parity_ladder(length, shape)
        for n in (2, 3, 8, 32):
            for kind in (engine.LOWER, engine.UPPER):
                fast, slow = (
                    [[layer.tolist() for layer in table[1:]]
                     for table in (fill.values, fill.choices)]
                    for fill in (solve_with(b, monkeypatch, engine.Fill, lad, (n,), kind, None)
                                 for b in ("monotone", "dense"))
                )
                assert fast == slow, (n, kind)

    @staticmethod
    def near_tie_ladders(length: int):
        """Levels 1-3 ulps apart above 1.0, and equally spaced levels on a
        0.1 grid shifted by 1e-15 per level, with seeded masses."""
        rng = np.random.default_rng(length)
        for c in (1, 2, 3):
            w = rng.uniform(0.1, 1.0, length)
            yield [1.0 + i * c * 2.0**-52 for i in range(length)], (w / w.sum()).tolist()
        levels = [round(0.1 * i, 1) + 1e-15 * i for i in range(length)]
        yield levels, [1 / length] * length

    @pytest.mark.parametrize("length", [MONO, 700])
    def test_near_tie_ladders(self, length, monkeypatch):
        for levels, masses in self.near_tie_ladders(length):
            lad = ValueLadder(levels, masses)
            for n in (3, 8, 20):
                for kind in (engine.LOWER, engine.UPPER):
                    value, cuts = solve_with("monotone", monkeypatch, engine._dp_solve, lad, n, kind)
                    dense, _ = solve_with("dense", monkeypatch, engine._dp_solve, lad, n, kind)
                    tol = engine.TIE_TOL * (1 + abs(dense))
                    assert len(cuts) < n, (n, kind)
                    assert abs(engine.coarse_value(cuts, lad, kind) - value) <= tol, (n, kind)
                    assert abs(value - dense) <= tol, (n, kind)


class TestTopLayer:
    """_fill solves its top layer only at the start ``lo``, the one entry that
    every query reads. On every branch that entry equals row 0 of the same
    layer filled in full, as the layer below the top of a fill one capacity
    higher, and every layer below the top is unchanged."""

    @staticmethod
    def ladder(length: int, shape: str) -> ValueLadder:
        if shape != "zero-top":
            return parity_ladder(length, shape)
        # no mass above the lowest levels, so closing the first block ties
        # with cutting it at every later end
        masses = [0.0] * length
        masses[0] = 0.5
        masses[(length - 1) // 2] += 0.5
        return ValueLadder([float(i) for i in range(length)], masses)

    @pytest.mark.parametrize("branch", list(BRANCHES))
    @pytest.mark.parametrize("shape", ["float", "tied", "zero-mass", "zero-top"])
    def test_top_layer_is_row_zero_of_the_full_layer(self, branch, shape, monkeypatch):
        for length in (2, 5, 24, 41):
            lad = self.ladder(length, shape)
            pref = engine._prefix_masses(lad.level_masses)
            for lo in (0, 1):
                size = length - lo
                for n in sorted({2, 3, size - 1, size, size + 2}):
                    blocks = min(n, size)
                    if blocks < 1:
                        continue
                    for upper in (False, True):
                        top, full = (
                            solve_with(branch, monkeypatch, engine._fill,
                                       lad.levels, pref, lo, length - 1, b, upper)
                            for b in (blocks, blocks + 1)
                        )
                        case = (length, lo, n, upper)
                        assert (len(top[0][-1]), len(top[1][-1])) == (1, 1), case
                        assert repr(float(top[0][-1][0])) == repr(float(full[0][blocks][0])), case
                        assert int(top[1][-1][0]) == int(full[1][blocks][0]), case
                        for b in range(1, blocks):
                            assert list(map(repr, top[0][b])) == list(map(repr, full[0][b])), case
                            assert list(top[1][b]) == list(full[1][b]), case


class TestOptimumSets:
    """``optimum_sets`` reads every capacity's optimum set from one fill at
    the largest; on every branch each set equals ``optimum_set`` at that
    capacity alone, tuple order included."""

    @pytest.mark.parametrize("branch", list(BRANCHES))
    @pytest.mark.parametrize("shape", ["float", "dyadic", "tied", "zero-mass"])
    def test_match_one_capacity_at_a_time(self, branch, shape, monkeypatch):
        for length in (2, 7, 24, 41):
            lad = parity_ladder(length, shape)
            for interval in (None, (1, length - 2)):
                if interval and interval[0] > interval[1]:
                    continue
                for n in (1, 2, 4):
                    for kind in (engine.LOWER, engine.UPPER):
                        for caps in ((n, n + 1), (n + 1, n), (3, n, 3)):
                            got = solve_with(branch, monkeypatch, engine.optimum_sets,
                                             lad, caps, kind, interval)
                            want = tuple(
                                solve_with(branch, monkeypatch, engine.optimum_set,
                                           lad, c, kind, interval)
                                for c in caps
                            )
                            assert got == want, (length, interval, caps, kind)

    def test_too_large_sets_raise_per_capacity(self):
        # all mass on level 0: every vector is optimal, and at N = 6 there
        # are more than MAX_ORACLE_VECTORS of them
        lad = ValueLadder([float(i) for i in range(60)], [1.0] + [0.0] * 59)
        small = tuple(engine.optimum_set(lad, n, engine.LOWER) for n in (1, 2))
        assert engine.optimum_sets(lad, (1, 2), engine.LOWER) == small
        for caps in ((6,), (1, 6), (6, 1), (2, 6, 1)):
            with pytest.raises(OracleTooLargeError, match="too many optimal cutoff vectors"):
                engine.optimum_sets(lad, caps, engine.LOWER)

    @pytest.mark.parametrize("caps, kind, message", [
        ((2, 0, -1), engine.LOWER, "capacity must be a positive integer, got 0"),
        ((2.5, 0), engine.LOWER, "capacity must be a positive integer, got 2.5"),
        ((0,), "middle", "kind must be"),
        ((), engine.LOWER, "capacities must not be empty"),
    ])
    def test_bad_input_raises_the_first_error(self, caps, kind, message):
        with pytest.raises((InvalidCapacityError, ValueError), match=message):
            engine.optimum_sets(parity_ladder(7, "float"), caps, kind)


class TestFillReaders:
    """Each reader of a ``Fill`` at each capacity b up to the fill's own
    gives, on every branch, what a fill at b gives: values bit for bit, then
    cutoffs, optimum sets and top-block starts. So a library call may read
    every capacity it needs from one fill at the largest."""

    @staticmethod
    def readings(fill, b):
        try:
            sets = fill.optimum_sets((b,))
        except OracleTooLargeError as err:
            sets = str(err)
        return (
            fill.value(b).hex(),
            [v.hex() for v in fill.capacity_values(b)],
            fill.cutoffs(b),
            sets,
            fill.top_block_starts(b),
        )

    @pytest.mark.parametrize("branch", list(BRANCHES))
    @pytest.mark.parametrize("shape", ["float", "tied", "zero-mass"])
    def test_every_capacity_reads_as_its_own_fill(self, branch, shape, monkeypatch):
        for length in (2, 7, 20):
            lad = parity_ladder(length, shape)
            for interval in (None, (1, length - 1)):
                size = length - (interval is not None)
                for n in sorted({1, 2, size - 1, size, size + 2} - {0}):
                    for kind in (engine.LOWER, engine.UPPER):
                        fills = [
                            solve_with(branch, monkeypatch, engine.Fill, lad, (b,), kind, interval)
                            for b in range(1, n + 1)
                        ]
                        for b, own in enumerate(fills, 1):
                            case = (length, interval, n, b, kind)
                            assert self.readings(fills[-1], b) == self.readings(own, b), case

    def test_a_capacity_above_the_fill_is_named(self):
        fill = engine.Fill(parity_ladder(7, "float"), (2,), engine.LOWER, (0, 5))
        readers = (fill.value, fill.cutoffs, fill.capacity_values, fill.top_block_starts,
                   lambda n: fill.optimum_sets((n,)))
        for reader in readers:
            for n in (3, 6, 9):
                with pytest.raises(ValueError, match=f"capacity {n} exceeds the fill's 2$"):
                    reader(n)
        # at the interval length and above, a full fill reads its top layer
        full = engine.Fill(parity_ladder(7, "float"), (6,), engine.LOWER, (0, 5))
        assert full.value(9) == full.value(6) and full.cutoffs(9) == full.cutoffs(6)


def square_dense_fill(levels, pref, lo: int, hi: int, n_blocks: int, upper: bool):
    """Reference: the dense branch of ``engine._fill`` as one L x L cell
    matrix, with the infinite sentinel below the diagonal, and a fresh
    L x (L - 1) candidate array for every capacity layer. Each layer is the
    dense layer as it was written before the close was folded into the
    search: the best end first, then ``stop >= best`` (``<=`` for the upper
    bound) and two ``np.where`` to let the close win a tie."""
    length = hi - lo + 1
    lvl = np.asarray(levels[lo : hi + 1], dtype=float)
    pre = np.asarray(pref[lo : hi + 2], dtype=float)
    stop = (pre[-1] - pre[:-1]) * (lvl[-1] if upper else lvl)
    if n_blocks == 1:
        return [None, stop[:1]], [None, np.full(1, -1)]
    values, choices = [None, stop], [None, np.full(length, -1)]
    cellmat = pre[None, 1:] - pre[:-1, None]
    cellmat *= lvl[None, :] if upper else lvl[:, None]
    idx = np.arange(length)
    cellmat[idx[:, None] > idx[None, :]] = np.inf if upper else -np.inf
    for _ in range(3, n_blocks + 1):
        cand = cellmat[:, :-1] + values[-1][None, 1:]
        arg = (np.argmin if upper else np.argmax)(cand, axis=1)
        best = cand[idx, arg]
        close = (stop <= best) if upper else (stop >= best)
        values.append(np.where(close, stop, best))
        choices.append(np.where(close, -1, arg + lo))
    cand = (pre[1:-1] - pre[0]) * (lvl[:-1] if upper else lvl[0]) + values[-1][1:]
    arg = (np.argmin if upper else np.argmax)(cand)
    best = cand[arg : arg + 1]
    close = (stop[:1] <= best) if upper else (stop[:1] >= best)
    values.append(np.where(close, stop[:1], best))
    choices.append(np.where(close, -1, arg + lo))
    return values, choices


def fill_bits(table) -> list:
    """The layers of a fill's values as int64 bit patterns (so -0.0 != 0.0)
    or of its choices, as lists."""
    return [np.asarray(layer).view(np.int64).tolist() for layer in table[1:]]


def near_tie_ladder(length: int) -> ValueLadder:
    """Levels 1-3 ulps apart above 1.0 with seeded masses."""
    rng = np.random.default_rng(length)
    w = rng.uniform(0.1, 1.0, length)
    c = 1 + length % 3
    return ValueLadder([1.0 + i * c * 2.0**-52 for i in range(length)], (w / w.sum()).tolist())


class TestFoldedLayer:
    """The dense layers with the close folded in as column 0 give the values
    (bit for bit) and choices of the unfolded layer of ``square_dense_fill``,
    which compares the close with the best end after the search, over
    single-block (18-129 levels) and multi-block (130-511) layouts."""

    @staticmethod
    def check(lad, lo, n, upper):
        pref = engine._prefix_masses(lad.level_masses)
        args = (lad.levels, pref, lo, len(lad) - 1, n, upper)
        (v, c), (rv, rc) = engine._fill(*args), square_dense_fill(*args)
        assert fill_bits(v) == fill_bits(rv), (lad.levels, lad.level_masses, lo, n, upper)
        assert fill_bits(c) == fill_bits(rc), (lad.levels, lad.level_masses, lo, n, upper)

    @given(grid_ladders(st.one_of(st.integers(19, 129), st.integers(130, 511))),
           st.integers(2, 9), st.booleans(), st.sampled_from([0, 1]))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_unfolded_layer(self, lad, n, upper, lo):
        self.check(lad, lo, n, upper)

    @pytest.mark.parametrize("batch", [16, engine._BATCH_BYTES], ids=["one-row", "one-block"])
    def test_signed_zero_ladders(self, batch, monkeypatch):
        # a -0.0 close keeps its sign through the -0.0 next value, in one
        # block and in blocks of one row, where each block sets its own
        monkeypatch.setattr(engine, "_NUMPY_DP_THRESHOLD", 2)
        monkeypatch.setattr(engine, "_BATCH_BYTES", batch)
        for lad in signed_zero_ladders():
            for n in range(2, len(lad) + 1):
                for upper in (False, True):
                    self.check(lad, 0, n, upper)


class TestDenseRowBlocks:
    """The dense branch fills the upper triangle in row blocks in a reused
    per-thread workspace: every layer's values (bit for bit) and choices
    equal those of the square-matrix fill, for any block height, after
    fills of other lengths, and in several threads at once."""

    SHAPES = ("float", "tied", "zero-mass", "near-tie")

    @staticmethod
    def ladder(length: int, shape: str) -> ValueLadder:
        return near_tie_ladder(length) if shape == "near-tie" else parity_ladder(length, shape)

    @staticmethod
    def check(lad, lo, capacities):
        pref = engine._prefix_masses(lad.level_masses)
        hi = len(lad) - 1
        for n in sorted({min(n, hi - lo + 1) for n in capacities}):
            for upper in (False, True):
                args = (lad.levels, pref, lo, hi, n, upper)
                (v, c), (rv, rc) = engine._fill(*args), square_dense_fill(*args)
                assert fill_bits(v) == fill_bits(rv), (len(lad), lo, n, upper)
                assert fill_bits(c) == fill_bits(rc), (len(lad), lo, n, upper)

    @pytest.mark.parametrize("length", [18, 40, 64, 128, 129, 200, 256, 257, 361, 511])
    def test_matches_the_square_fill(self, length):
        for shape in self.SHAPES:
            lad = self.ladder(length, shape)
            # a full-capacity fill runs L - 2 layers: the longest ladders run one
            full = (length, length + 2) if length >= 256 else (length - 1, length, length + 2)
            self.check(lad, 0, (2, 3, 8, *full))
            self.check(lad, 1, (3, 8))

    @pytest.mark.parametrize("length", [18, 19, 40, 129])
    def test_any_block_height(self, length, monkeypatch):
        # one-row blocks; two-row blocks; L - 2 rows, which leaves one row
        # before row L - 1 for the last block; and the whole triangle at once
        for height in (1, 2, 5, length - 2, length - 1):
            monkeypatch.setattr(engine, "_BATCH_BYTES", 16 * (length - 1) * height)
            for shape in self.SHAPES:
                self.check(self.ladder(length, shape), 0, (2, 3, 8, length))

    def test_workspace_reuse_leaves_earlier_results_alone(self):
        fills = []
        for length in (511, 40, 511):
            lad = parity_ladder(length, "float")
            pref = engine._prefix_masses(lad.level_masses)
            for upper in (False, True):
                args = (lad.levels, pref, 0, length - 1, 8, upper)
                got = engine._fill(*args)
                fills.append((got, [fill_bits(t) for t in got], square_dense_fill(*args)))
        for got, kept, ref in fills:
            assert [fill_bits(t) for t in got] == kept == [fill_bits(t) for t in ref]

    def test_threads_keep_their_own_workspace(self):
        def run_fills(length, out):
            lad = parity_ladder(length, "float")
            pref = engine._prefix_masses(lad.level_masses)
            for i in range(50):
                out.append([fill_bits(t) for t in
                            engine._fill(lad.levels, pref, 0, length - 1, 8, i % 2 == 1)])

        lengths = (361, 200, 257)
        alone = []
        for length in lengths:
            out = []
            run_fills(length, out)
            alone.append(out)
        together = [[] for _ in lengths]
        threads = [threading.Thread(target=run_fills, args=args) for args in zip(lengths, together)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert together == alone


class TestZeroMassLevels:
    def test_lexicographic_tie_break_across_lengths(self):
        # a zero-mass level can be merged for free: the canonical optimum is
        # the lexicographically smallest vector, preferring shorter prefixes
        lad = ValueLadder([0.0, 1.0, 2.0], [0.5, 0.0, 0.5])
        res = siminf(lad, 3)
        oracle = engine.brute_force_bound(lad, 3, "lower")
        assert res.value == oracle.bound.value == 1.0
        assert res.cutoffs.cuts == oracle.optima[0]

    def test_all_zero_mass_belief_rejected(self):
        with pytest.raises(DegenerateBeliefError):
            Belief([0.0, 0.0])

    def test_pull_back_upper_violation(self):
        act = DiscreteAct(list("abz"), [1.0, 2.0, 9.0])
        bel = Belief([0.5, 0.5, 0.0])
        res = simsup(build_ladder(act, bel), 1)
        pb = pull_back(res, act, bel)
        # the zero-mass state z lies above every bound value
        assert pb.violations == ("z",)
        assert pb.act.values[2] == 2.0


class TestPartitionPathLarger:
    def test_ground_ten_various_sizes(self):
        rng = np.random.default_rng(99)
        ground = list(range(10))
        for n in (2, 3, 5):
            for _ in range(60):
                tau = random_partition(rng, ground, n)
                tau_prime = random_partition(rng, ground, n)
                path = partition_path(tau, tau_prime)
                check_path(tau, tau_prime, path)
                pieces = common_refinement(tau, tau_prime)
                assert len(path) <= len(pieces) ** 2 + 1


class TestCliErrors:
    def test_compare_requires_shared_belief(self, tmp_path, capsys):
        a = {"states": [0, 1], "values": [1.0, 2.0], "masses": [0.5, 0.5]}
        b = {"states": [0, 1], "values": [2.0, 1.0], "masses": [0.4, 0.6]}
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        assert run(["compare", "--in", str(pa), "--in2", str(pb), "--N", "2"]) == 1

    def test_malformed_record(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"states": [0, 1], "values": [1.0]}))
        assert run(["bounds", "--in", str(path), "--N", "2"]) == 1


LADDER = ValueLadder([1.0, 2.0, 3.0, 4.0, 5.0], [0.2] * 5)
CAPLESS = InsuranceContract(0.05, 0.3, 0.75, None, 2.0)
LOSSES = LossModel.uniform(1.0, 20)
ACT = DiscreteAct((0, 1, 2), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: statics.capacity_profile(LADDER, 1, "lower"),
                 ValueError, "n_max must be at least 2", id="capacity_profile-n_max"),
    pytest.param(lambda: statics.supermodular_coarse_holds(LADDER, (1,), (1, 2)),
                 AlignmentError, "cutoff vectors must have equal length",
                 id="supermodular_coarse_holds-lengths"),
    pytest.param(lambda: statics.increasing_differences_holds(LADDER, 0, 3, 4, (1,), (1, 2)),
                 AlignmentError, "cutoff vectors must have equal length",
                 id="increasing_differences_holds-lengths"),
    pytest.param(lambda: statics.increasing_differences_holds(LADDER, 0, 3, 4, (1,), (2,)),
                 PreconditionError, "last cutoff of the high vector must be >=",
                 id="increasing_differences_holds-last-cutoff"),
    pytest.param(lambda: statics.increasing_differences_holds(LADDER, 0, 4, 3, (2,), (1,)),
                 PreconditionError, "hi_small must not exceed hi_big",
                 id="increasing_differences_holds-intervals"),
    pytest.param(lambda: statics.mlr_cutoff_monotonicity(
                     LADDER, statics.mlr_shift([0.5, 0.5], [1.0, 2.0]), 2),
                 AlignmentError, "shift does not align with the ladder",
                 id="mlr_cutoff_monotonicity-shift"),
    pytest.param(lambda: engine.coarse_value((0,), LADDER, "lower"),
                 ValueError, "cutoffs (0,) invalid for range [0, 4]", id="coarse_value-cutoffs"),
    pytest.param(lambda: pull_back(bound(LADDER, 2, "lower"), ACT, Belief([0.2, 0.3, 0.5])),
                 PreconditionError, "bound does not match the act/belief ladder",
                 id="pull_back-other-ladder"),
    pytest.param(lambda: sensitivity(CAPLESS, LOSSES, CRRAUtility(2.0), 3, "deductible", 0.01,
                                     side="forward"),
                 ValueError, "unknown side 'forward'", id="sensitivity-side"),
    pytest.param(lambda: wtp(CAPLESS, LOSSES, CRRAUtility(2.0), 3, "lower_deductible", -0.1),
                 ValueError, "delta must be non-negative", id="wtp-negative-delta"),
    pytest.param(lambda: wtp(CAPLESS, LOSSES, CRRAUtility(2.0), 3, "raise_coverage", 0.1),
                 ValueError, "unknown improvement 'raise_coverage'", id="wtp-improvement"),
    pytest.param(lambda: dominated_pair(CAPLESS, 0.3, LOSSES, CRRAUtility(2.0), 3),
                 ValueError, "target deductible must lie below the base deductible",
                 id="dominated_pair-target"),
    pytest.param(lambda: coarsen_act(ACT, 1.0, 2.0, "true_mean"),
                 PreconditionError, "true_mean mode needs the true belief",
                 id="coarsen_act-no-belief"),
    pytest.param(lambda: coarsen_act(ACT, 1.0, 2.0, "true_mean",
                                     true_belief=Belief([0.0, 0.0, 1.0])),
                 PreconditionError, "merged cell has zero true mass",
                 id="coarsen_act-zero-mass"),
    pytest.param(lambda: coarsen_act(ACT, 1.0, 2.0, "empirical_mean"),
                 PreconditionError, "empirical_mean mode needs a dataset",
                 id="coarsen_act-no-data"),
])
def test_input_check_raises_its_documented_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
