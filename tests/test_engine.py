"""Partition-engine tests: ladder construction, DP bounds vs the exhaustive
oracle, pull-back, perceived distributions, and structural invariants."""

import json
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_bounds.acts import (
    Belief,
    DiscreteAct,
    ValueLadder,
    build_ladder,
    negate_ladder,
)
from coarse_bounds import engine
from coarse_bounds.engine import (
    TIE_TOL,
    BoundResult,
    CutoffVector,
    Fill,
    blocks_from_cuts,
    bound,
    bound_values,
    brute_force_bound,
    capacity_values,
    cell_value,
    coarse_value,
    enumerate_cut_vectors,
    optimum_set,
    perceived_distribution,
    pull_back,
    siminf,
    simsup,
)
from coarse_bounds.errors import (
    AlignmentError,
    InvalidCapacityError,
    OracleTooLargeError,
)

from util import count_layout_builds, dyadic_ladder, float_ladder

UNIFORM4 = ValueLadder([1.0, 2.0, 3.0, 4.0], [0.25] * 4)
GOLDEN = Path(__file__).parent / "data" / "golden_bounds.json"


def golden_ladder(length: int) -> ValueLadder:
    """Seeded float ladder whose bounds are stored in ``GOLDEN``."""
    rng = random.Random(length)
    levels = [x - 5.0 for x in accumulate(rng.uniform(0.01, 1.0) for _ in range(length))]
    w = [rng.uniform(0.1, 1.0) for _ in range(length)]
    total = sum(w)
    masses = [x / total for x in w]
    masses[masses.index(max(masses))] += 1.0 - sum(masses)
    return ValueLadder(levels, masses)


class TestBuildLadder:
    def test_groups_by_value(self):
        act = DiscreteAct(["a", "b", "c"], [3.0, 1.0, 3.0])
        bel = Belief([0.5, 0.25, 0.25])
        lad = build_ladder(act, bel)
        assert lad.levels == (1.0, 3.0)
        assert lad.level_masses == (0.25, 0.75)

    def test_constant_act_single_level(self):
        act = DiscreteAct(["a", "b"], [7.0, 7.0])
        lad = build_ladder(act, Belief([0.3, 0.7]))
        assert lad.levels == (7.0,)
        assert lad.level_masses == (1.0,)

    def test_distinct_values_pass_through(self):
        act = DiscreteAct(list("abcd"), [1.0, 2.0, 3.0, 4.0])
        lad = build_ladder(act, Belief([0.25] * 4))
        assert lad.levels == (1.0, 2.0, 3.0, 4.0)
        assert lad.level_masses == (0.25,) * 4

    def test_zero_mass_states_excluded(self):
        act = DiscreteAct(list("abc"), [1.0, 5.0, 9.0])
        lad = build_ladder(act, Belief([0.5, 0.0, 0.5]))
        assert lad.levels == (1.0, 9.0)

    def test_mismatched_lengths_raise(self):
        act = DiscreteAct(["a", "b"], [1.0, 2.0])
        with pytest.raises(AlignmentError):
            build_ladder(act, Belief([1.0]))

    @pytest.mark.parametrize("size", [100_000, 300_000])
    def test_large_uniform_belief_accepted(self, size):
        # the plain float sum of [1/size] * size drifts past MASS_TOL
        masses = [1 / size] * size
        assert len(Belief(masses)) == size
        assert len(ValueLadder(range(size), masses)) == size

    @pytest.mark.parametrize("levels, masses", [
        ([1.0, 2.0], [math.nan, 1.0]),
        ([math.nan], [1.0]),
        ([1.0, math.nan, 3.0], [0.25, 0.5, 0.25]),
        ([1.0, math.inf], [0.5, 0.5]),
        ([-math.inf], [1.0]),
    ], ids=["nan-mass", "lone-nan-level", "inner-nan-level", "inf-level", "-inf-level"])
    def test_non_finite_ladder_rejected(self, levels, masses):
        with pytest.raises(ValueError):
            ValueLadder(levels, masses)

    @pytest.mark.parametrize("make, message", [
        (lambda: ValueLadder([2.0, 1.0], [0.5, 0.5]), "ladder levels must be strictly ascending"),
        (lambda: ValueLadder([1.0, math.nan, 3.0], [0.25, 0.5, 0.25]),
         "ladder levels must be finite, got nan"),
        (lambda: ValueLadder([2.0, 1.0, math.inf], [0.25, 0.5, 0.25]),
         "ladder levels must be finite, got inf"),
        (lambda: DiscreteAct(("a", "b"), [1.0, -math.inf]), "act values must be finite, got -inf"),
        (lambda: ValueLadder([1.0, 2.0], [-0.5, 1.5]), "ladder masses must be non-negative"),
        (lambda: ValueLadder([1.0, 2.0], [0.5, 0.25]), "ladder masses must sum to 1"),
        (lambda: Belief([0.5, math.nan]), "belief masses must be finite and non-negative"),
        (lambda: Belief([0.5, 0.25]), "belief masses sum to 0.75, not 1"),
    ])
    def test_rejection_messages(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

    def test_bad_belief_rejected(self):
        with pytest.raises(ValueError):
            Belief([0.5, 0.4])
        with pytest.raises(ValueError):
            Belief([-0.1, 1.1])

    def test_duplicate_state_ids_rejected(self):
        with pytest.raises(AlignmentError):
            DiscreteAct(["a", "a"], [1.0, 2.0])


class TestBounds:
    def test_uniform4_lower_n2(self):
        res = siminf(UNIFORM4, 2)
        assert res.value == 2.0
        assert res.cutoffs.cuts == (2,)
        assert res.bound_values == (1.0, 1.0, 3.0, 3.0)
        assert not res.exact

    def test_uniform4_upper_n2(self):
        res = simsup(UNIFORM4, 2)
        assert res.value == 3.0
        assert res.cutoffs.cuts == (2,)
        assert res.bound_values == (2.0, 2.0, 4.0, 4.0)

    def test_single_level_any_capacity(self):
        lad = ValueLadder([7.0], [1.0])
        for n in (1, 2, 5):
            res = siminf(lad, n)
            assert res.value == 7.0 and res.exact

    def test_exact_when_capacity_covers_levels(self):
        res = siminf(UNIFORM4, 4)
        assert res.exact
        assert res.value == pytest.approx(2.5, abs=0)
        assert simsup(UNIFORM4, 7).value == pytest.approx(2.5, abs=0)

    def test_capacity_one_takes_global_extreme(self):
        lad = ValueLadder([0.0, 10.0], [0.9, 0.1])
        assert siminf(lad, 1).value == 0.0
        assert simsup(lad, 1).value == 10.0

    def test_invalid_capacity(self):
        with pytest.raises(InvalidCapacityError):
            siminf(UNIFORM4, 0)
        with pytest.raises(InvalidCapacityError):
            simsup(UNIFORM4, -1)

    def test_lexicographic_tie_break_three_way(self):
        # N=3 on the uniform 4-ladder: (1,2), (1,3), (2,3) all reach 2.25.
        oracle = brute_force_bound(UNIFORM4, 3, "lower")
        assert oracle.optima == ((1, 2), (1, 3), (2, 3))
        assert siminf(UNIFORM4, 3).cutoffs.cuts == (1, 2)
        assert siminf(UNIFORM4, 3).value == 2.25

    def test_three_level_enumeration_example(self):
        lad = ValueLadder([0.0, 1.0, 10.0], [1 / 3, 1 / 3, 1 / 3])
        res = siminf(lad, 2)
        # cuts at 1 -> 0*(1/3) + 1*(2/3); cuts at 2 -> 0*(2/3) + 10*(1/3)
        assert res.value == pytest.approx(10 / 3, rel=1e-15)
        assert res.cutoffs.cuts == (2,)


class TestGoldenBounds:
    """Values and cutoffs captured from the engine before its DP fill
    recorded choices (commit 5f978c8; L <= 300) and before it had a
    monotone search (commit 803233f; L = 512, 1000); all three fill branches
    must keep them."""

    def test_matches_captured_outputs(self):
        cases = json.loads(GOLDEN.read_text())
        assert len(cases) == 56
        ladders = {}
        for case in cases:
            lad = ladders.setdefault(case["length"], golden_ladder(case["length"]))
            res = bound(lad, case["n"], case["kind"])
            assert res.value == case["value"], case
            assert res.cutoffs.cuts == tuple(case["cuts"]), case


class TestLongLadderMemory:
    def test_no_square_matrix(self):
        # one 4096 x 4096 float64 candidate matrix alone would take 134 MB
        lad = golden_ladder(4096)
        tracemalloc.start()
        try:
            for kind in ("lower", "upper"):
                bound(lad, 8, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_one_block_builds_no_square_matrix(self):
        # one 511 x 511 float64 candidate matrix alone would take 2 MB
        lad = golden_ladder(511)
        tracemalloc.start()
        try:
            for kind in ("lower", "upper"):
                bound(lad, 1, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**10

    def test_repeated_dense_fill_reuses_its_workspace(self):
        # after one fill of this length the thread's workspace, row-block
        # layout and corner masks are in place, so a fill allocates only
        # its O(N L) values and choices
        lad = golden_ladder(511)
        bound(lad, 8, "lower")
        tracemalloc.start()
        try:
            for kind in ("lower", "upper"):
                bound(lad, 8, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**10

    def test_first_dense_fill_of_a_thread(self):
        # the workspace of a new thread holds the upper triangle and one
        # block of candidates: less than one 511 x 511 float64 matrix
        lad = golden_ladder(511)
        results = []
        tracemalloc.start()
        try:
            worker = threading.Thread(target=lambda: results.append(bound(lad, 8, "lower")))
            worker.start()
            worker.join(timeout=60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not worker.is_alive()
        assert results == [bound(lad, 8, "lower")]
        assert peak < 511 * 511 * 8


def batch_rows(length: int, rows: str, seed: int):
    """(distinct rows, masses) sharing one mass vector: 7 sorted float rows
    with positive masses, or 7 integer-level rows with masses k/2^10, some 0."""
    rng = np.random.default_rng(seed)
    if rows == "float":
        levels = np.sort(rng.uniform(-10.0, 10.0, size=(7, length)), axis=1)
        w = rng.uniform(0.05, 1.0, size=length)
        masses = (w / w.sum()).tolist()
        masses[int(np.argmax(masses))] += 1.0 - math.fsum(masses)
        return levels, masses
    levels = np.sort(
        [rng.choice(np.arange(-2 * length, 2 * length + 1), size=length, replace=False)
         for _ in range(7)], axis=1,
    ).astype(float)
    cuts = np.sort(rng.integers(0, 1025, size=length - 1))
    masses = (np.diff(np.concatenate(([0], cuts, [1024]))) / 1024).tolist()
    return levels, masses


def raised(call):
    """(type, message) of the error ``call`` raises, or None."""
    try:
        call()
    except Exception as err:  # any error: the caller compares type and message
        return type(err), str(err)
    return None


REJECTED = [
    ([[1.0, 2.0], [2.0, 1.0]], [0.5, 0.5], 2, "lower"),
    ([[2.0, 1.0], [1.0, 2.0]], [0.5, 0.5], 2, "lower"),
    ([[1.0, 2.0], [1.0, 1.0]], [0.5, 0.5], 2, "lower"),
    ([[1.0, 2.0], [1.0, math.nan]], [0.5, 0.5], 2, "lower"),
    ([[1.0, 2.0], [1.0, math.inf]], [0.5, 0.5], 2, "lower"),
    ([[1.0], [math.nan]], [1.0], 2, "lower"),
    ([[1.0], [-math.inf]], [1.0], 2, "upper"),
    ([[1.0, 2.0]], [0.5, math.nan], 2, "lower"),
    ([[1.0, 2.0]], [-0.5, 1.5], 2, "lower"),
    ([[1.0, 2.0]], [0.5, 0.25], 2, "lower"),
    ([[1.0, 2.0]], [1.0], 2, "lower"),
    ([[]], [], 2, "lower"),
    ([[1.0, 2.0]], [0.5, 0.5], 0, "lower"),
    ([[1.0, 2.0]], [0.5, 0.5], 2.5, "upper"),
    ([[1.0, 2.0]], [0.5, 0.5], True, "lower"),
    ([[1.0, 2.0]], [0.5, 0.5], 2, "middle"),
    # the order of the per-row calls: row 0's ladder (its levels, then
    # the masses), the kind, the capacity, then each later row in turn
    ([[2.0, 1.0]], [0.5, math.nan], 2, "lower"),
    ([[1.0, 2.0]], [0.5, 0.75], 0, "lower"),
    ([[math.nan, 1.0]], [0.5, 0.5], 2, "middle"),
    ([[1.0, 2.0], [2.0, 1.0]], [0.5, 0.5], 2, "middle"),
    ([[1.0, 2.0], [1.0, math.nan]], [0.5, 0.5], 0, "lower"),
    ([[1.0, 2.0], [1.0, math.inf], [2.0, 1.0]], [0.5, 0.5], 2, "lower"),
    ([[1.0, 2.0], [2.0, 1.0], [1.0, math.inf]], [0.5, 0.5], 2, "upper"),
]
REJECTED_IDS = [
    "descending", "descending-first", "tied", "nan-level", "inf-level", "lone-nan",
    "lone-minus-inf", "nan-mass", "negative-mass", "mass-sum", "misaligned", "empty",
    "zero-capacity", "fractional-capacity", "bool-capacity", "bad-kind",
    "first-row-before-masses", "masses-before-capacity", "first-row-before-kind",
    "kind-before-later-row", "capacity-before-later-row", "finite-row-before-later",
    "ascending-row-before-later",
]


class TestBoundValues:
    """``bound_values`` equals ``bound(ValueLadder(row, masses), n, kind).value``
    bit for bit in every fill branch, at 1 row, one block of rows and one
    block plus one, and raises what those calls raise."""

    @pytest.mark.parametrize("rows", ["float", "dyadic"])
    @pytest.mark.parametrize("length", [1, 2, 5, 39, 40, 41, 120, 511, 512])
    def test_matches_bound(self, length, rows):
        distinct, masses = batch_rows(length, rows, seed=length)
        per_block = max(1, engine._BATCH_BYTES // (16 * length * max(1, length - 1)))
        # the rows repeat the distinct ones, so the reference solves only those
        pick = np.arange(per_block + 1) % len(distinct)
        caps = {1, 2, 3, length // 2 + 1, length - 1, length, length + 2}
        if length > 200:  # full capacity there takes seconds per row
            caps = {1, 2, 3, 8}
        for kind in ("lower", "upper"):
            for n in sorted(c for c in caps if c >= 1):
                ref = [
                    bound(ValueLadder(row, masses), n, kind).value.hex()
                    for row in distinct.tolist()
                ]
                for count in (1, per_block, per_block + 1):
                    got = bound_values(distinct[pick[:count]], masses, n, kind)
                    assert [v.hex() for v in got.tolist()] == [ref[i] for i in pick[:count]], (
                        kind, n, count,
                    )

    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_signed_zero_ties(self, kind):
        # a -0.0 and a 0.0 candidate tie; the smallest block end must win, as in bound
        for levels, masses in [
            ([-1.0, -0.0, 1.0], [0.0, 0.5, 0.5]),
            ([-1.0, 0.0, 1.0], [0.5, 0.5, 0.0]),
            ([-2.0, -0.0, 3.0], [0.5, 0.5, 0.0]),
        ]:
            for n in (1, 2, 3):
                want = bound(ValueLadder(levels, masses), n, kind).value
                assert bound_values([levels], masses, n, kind)[0].hex() == want.hex()

    @pytest.mark.parametrize("rows, masses, n, kind", REJECTED, ids=REJECTED_IDS)
    def test_rejects_what_bound_rejects(self, rows, masses, n, kind):
        want = raised(lambda: [bound(ValueLadder(row, masses), n, kind) for row in rows])
        assert want is not None
        assert raised(lambda: bound_values(rows, masses, n, kind)) == want

    @pytest.mark.parametrize("rows", [[1.0, 2.0], np.empty((0, 2))], ids=["one-dimensional", "no-rows"])
    def test_rows_must_form_a_matrix(self, rows):
        with pytest.raises(ValueError, match="levels must be an"):
            bound_values(rows, [0.5, 0.5], 2, "lower")

    @pytest.mark.parametrize("length", [2, 40, 512])
    def test_masses_may_be_a_one_shot_iterable(self, monkeypatch, length):
        # the first call for the masses checks them and the second finds
        # them kept; each reads them once
        monkeypatch.setattr(engine, "_last_layout", (None, None))
        distinct, masses = batch_rows(length, "float", seed=length)
        for kind in ("lower", "upper"):
            want = [bound(ValueLadder(row, masses), 3, kind).value.hex() for row in distinct.tolist()]
            for _ in range(2):
                got = bound_values(distinct, iter(masses), 3, kind)
                assert [v.hex() for v in got.tolist()] == want, kind

    @pytest.mark.parametrize("rows, masses, n, kind", REJECTED, ids=REJECTED_IDS)
    def test_rejects_what_bound_rejects_after_a_hit(self, monkeypatch, rows, masses, n, kind):
        # uniform masses of the same length and then these masses are read
        # first, so the layout of these masses, when they are valid, is the
        # kept one and they are not checked again
        monkeypatch.setattr(engine, "_last_layout", (None, None))
        length = len(rows[0])
        uniform = [1 / length] * length if length else []
        for warm in (uniform, masses):
            raised(lambda: bound_values([np.arange(length, dtype=float)], warm, 2, "lower"))
        valid = raised(lambda: ValueLadder(range(length), masses)) is None
        assert (engine._last_layout[0] == (tuple(map(float, masses)), length)) == valid
        want = raised(lambda: [bound(ValueLadder(row, masses), n, kind) for row in rows])
        assert want is not None
        assert raised(lambda: bound_values(rows, masses, n, kind)) == want


class TestMassLayoutCache:
    """``bound_values`` keeps the layout of the last mass vector it read and
    builds a layout only when the masses change, with the values of
    ``bound`` bit for bit either way."""

    @staticmethod
    def check(rows, masses, n, kind):
        got = bound_values(rows, masses, n, kind)
        want = [bound(ValueLadder(row, masses), n, kind).value.hex() for row in rows.tolist()]
        assert [v.hex() for v in got.tolist()] == want, (n, kind)

    @pytest.mark.parametrize("length", [1, 2, 20, 40, 200])
    def test_hits_and_misses_match_bound(self, monkeypatch, length):
        built = count_layout_builds(monkeypatch)
        first, masses_a = batch_rows(length, "float", seed=length)
        second, masses_b = batch_rows(length, "dyadic", seed=length + 1)
        # the same masses again, then two mass vectors interleaved
        calls = [(first, masses_a)] * 2 + [(second, masses_b), (first, masses_a)] * 2
        for i, (rows, masses) in enumerate(calls):
            for n, kind in ((1, "lower"), (2, "upper"), (3, "lower"), (8, "upper")):
                self.check(rows, masses, n, kind)
            assert engine._last_layout[0] == (tuple(masses), length)
            # one build per change of the masses
            assert len(built) == 1 + sum(a != b for (_, a), (_, b) in zip(calls, calls[1 : i + 1]))

    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_masses_that_differ_in_a_zero_sign_share_a_layout(self, monkeypatch, kind):
        built = count_layout_builds(monkeypatch)
        rows = np.array([[-2.0, -1.0, -0.0, 1.0, 3.0], [-1.0, -0.5, 0.0, 0.5, 1.0]])
        for masses in ([0.0, 0.25, 0.25, 0.5, 0.0], [-0.0, 0.25, 0.25, 0.5, -0.0],
                       [0.0, 0.25, 0.25, 0.5, -0.0]):
            for n in (1, 2, 3, 5):
                self.check(rows, masses, n, kind)
        assert len(built) == 1

    def test_cached_arrays_are_read_only(self, monkeypatch):
        monkeypatch.setattr(engine, "_last_layout", (None, None))
        rows, masses = batch_rows(40, "float", seed=3)
        bound_values(rows, masses, 3, "lower")
        _, layout = engine._last_layout
        for array in layout:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_cache_stays_within_its_byte_cap(self, monkeypatch):
        # a layout at 511 levels exceeds the cap and is not kept, so the
        # last one that fits stays
        monkeypatch.setattr(engine, "_last_layout", (None, None))
        calls = [batch_rows(length, "float", seed=seed)
                 for seed, length in enumerate([511, 300, 200, 511, 200, 40, 200, 300, 511])]
        tracemalloc.start()
        try:
            for rows, masses in calls:
                bound_values(rows[:1], masses, 3, "lower")
                resident, _ = tracemalloc.get_traced_memory()
                assert resident <= engine._LAYOUT_CACHE_BYTES
        finally:
            tracemalloc.stop()
        kept, layout = engine._last_layout
        assert kept == (tuple(calls[-2][1]), 300)
        assert sum(a.nbytes for a in layout) + 32 * 300 <= engine._LAYOUT_CACHE_BYTES

    def test_cache_keeps_the_last_mass_vector(self, monkeypatch):
        monkeypatch.setattr(engine, "_last_layout", (None, None))
        for seed in range(4):
            rows, masses = batch_rows(5, "float", seed=seed)
            bound_values(rows, masses, 2, "lower")
            assert engine._last_layout[0] == (tuple(masses), 5)

    def test_threads_share_the_cache(self, monkeypatch):
        # more threads than cores, each cycling through mass vectors that
        # replace each other's layout, with switches between few bytecodes
        monkeypatch.setattr(engine, "_last_layout", (None, None))
        calls = [batch_rows(20, "float", seed=seed) for seed in range(8)]
        want = [bound_values(rows[:2], masses, 3, "lower").tolist() for rows, masses in calls]
        failures, done = [], []

        def work(offset):
            try:
                for i in range(400):
                    k = (i * (offset + 1) + offset) % len(calls)
                    rows, masses = calls[k]
                    if bound_values(rows[:2], masses, 3, "lower").tolist() != want[k]:
                        failures.append((offset, i))
                done.append(offset)
            except Exception as err:  # any error: the test reports it
                failures.append(repr(err))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert failures == [] and sorted(done) == [0, 1, 2, 3]
        # the kept pair is whole: one call's key with that key's layout
        kept, layout = engine._last_layout
        assert kept in [(tuple(masses), 20) for _, masses in calls]
        for array, rebuilt in zip(layout, engine._mass_layout(kept)):
            assert np.array_equal(array, rebuilt)


class TestBoundValuesMemory:
    @pytest.mark.parametrize("n", [1, 2])
    def test_top_layer_alone_builds_no_cell_array(self, n):
        # no layer below the top runs, and the top reads only the blocks that
        # start at level 0: the 39 x 10 x 40 cells and candidates of all
        # starts would take 244 KiB
        distinct, masses = batch_rows(40, "float", seed=40)
        rows = distinct[np.arange(10) % len(distinct)]
        bound_values(rows, masses, n, "lower")
        tracemalloc.start()
        try:
            for kind in ("lower", "upper"):
                bound_values(rows, masses, n, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10


class TestTopBlockStarts:
    def test_dyadic_oracle_parity(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            lad = dyadic_ladder(rng)
            n = int(rng.integers(1, 6))
            for kind in ("lower", "upper"):
                optima = brute_force_bound(lad, n, kind).optima
                expected = sorted({o[-1] if o else 0 for o in optima})
                assert Fill(lad, (n,), kind, None).top_block_starts(n) == expected

    def test_uniform4_ties(self):
        # N=3 optima (1,2), (1,3), (2,3): top blocks start at 2 or 3
        assert Fill(UNIFORM4, (3,), "lower", None).top_block_starts(3) == [2, 3]
        assert Fill(UNIFORM4, (1,), "upper", None).top_block_starts(1) == [0]


def zero_mass_ladder(rng: np.random.Generator) -> ValueLadder:
    """Dyadic ladder with about a third of its masses zero."""
    length = int(rng.integers(2, 13))
    levels = sorted(rng.choice(np.arange(-16, 17), size=length, replace=False).tolist())
    weights = rng.integers(1, 9, size=length) * (rng.random(length) > 0.35)
    denom = 1 << int(weights.sum()).bit_length()
    weights[int(rng.integers(length))] += denom - weights.sum()
    return ValueLadder([float(v) for v in levels], (weights / denom).tolist())


class TestOptimumSet:
    def test_dyadic_oracle_parity(self):
        rng = np.random.default_rng(601)
        for _ in range(300):
            lad = dyadic_ladder(rng, max_levels=16)
            n = int(rng.integers(1, 7))
            for kind in ("lower", "upper"):
                assert optimum_set(lad, n, kind) == brute_force_bound(lad, n, kind).optima

    def test_float_oracle_parity(self):
        rng = np.random.default_rng(602)
        for _ in range(300):
            lad = float_ladder(rng)
            n = int(rng.integers(1, 7))
            for kind in ("lower", "upper"):
                assert optimum_set(lad, n, kind) == brute_force_bound(lad, n, kind).optima

    def test_zero_mass_oracle_parity(self):
        rng = np.random.default_rng(603)
        for _ in range(300):
            lad = zero_mass_ladder(rng)
            n = int(rng.integers(1, 7))
            for kind in ("lower", "upper"):
                assert optimum_set(lad, n, kind) == brute_force_bound(lad, n, kind).optima

    def test_interval_matches_exhaustive_loop(self):
        rng = np.random.default_rng(604)
        for _ in range(200):
            lad = dyadic_ladder(rng)
            n = int(rng.integers(1, 6))
            lo = int(rng.integers(len(lad)))
            hi = int(rng.integers(lo, len(lad)))
            for kind in ("lower", "upper"):
                values = {}
                for rel in enumerate_cut_vectors(hi - lo + 1, n):
                    cuts = tuple(c + lo for c in rel)
                    edges = [lo, *cuts, hi + 1]
                    values[cuts] = sum(
                        cell_value((a, b - 1), lad, kind) for a, b in zip(edges, edges[1:])
                    )
                best = (min if kind == "upper" else max)(values.values())
                expected = tuple(sorted(c for c, v in values.items() if v == best))
                assert optimum_set(lad, n, kind, (lo, hi)) == expected

    def test_interval_capacity_values_match_exhaustive_loop(self):
        rng = np.random.default_rng(605)
        for _ in range(100):
            lad = dyadic_ladder(rng)
            n = int(rng.integers(1, 6))
            lo = int(rng.integers(len(lad)))
            hi = int(rng.integers(lo, len(lad)))
            for kind in ("lower", "upper"):
                expected = []
                for b in range(1, n + 1):
                    values = []
                    for rel in enumerate_cut_vectors(hi - lo + 1, b):
                        edges = [lo, *(c + lo for c in rel), hi + 1]
                        values.append(sum(
                            cell_value((x, y - 1), lad, kind) for x, y in zip(edges, edges[1:])
                        ))
                    expected.append((min if kind == "upper" else max)(values))
                assert capacity_values(lad, n, kind, (lo, hi)) == tuple(expected)

    def test_relative_tie_tolerance(self):
        # both cuts value 0.6 * 2**40 in real arithmetic; rounded, they differ
        # by more than TIE_TOL absolute but within TIE_TOL relative
        lad = ValueLadder([0.0, 2.0**40, 2.0**41], [0.4, 0.3, 0.3])
        one, two = (coarse_value(cuts, lad, "lower") for cuts in ((1,), (2,)))
        assert TIE_TOL < abs(one - two) <= TIE_TOL * max(abs(one), abs(two))
        assert optimum_set(lad, 2, "lower") == ((1,), (2,))
        assert Fill(lad, (2,), "lower", None).top_block_starts(2) == [1, 2]

    def test_absolute_tie_tolerance(self):
        # the three vectors value 0, 6e-14 and 6.3e-14: apart by far more
        # than TIE_TOL relative, but all within TIE_TOL absolute
        lad = ValueLadder([0.0, 1e-13, 2.1e-13], [0.4, 0.3, 0.3])
        values = [coarse_value(cuts, lad, "lower") for cuts in ((), (1,), (2,))]
        assert TIE_TOL * max(values) < max(values) - min(values) <= TIE_TOL
        assert optimum_set(lad, 2, "lower") == ((), (1,), (2,))
        assert Fill(lad, (2,), "lower", None).top_block_starts(2) == [0, 1, 2]

    @pytest.mark.parametrize("interval", [(2, 1), (0, 4), (-1, 2)])
    def test_invalid_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="invalid interval"):
            optimum_set(UNIFORM4, 2, "lower", interval)

    def test_all_vectors_optimal_and_guard(self):
        # all mass on level 0: every partition has lower value 0
        def point_mass(length):
            return ValueLadder([float(i) for i in range(length)], [1.0] + [0.0] * (length - 1))

        lad = point_mass(20)
        opt = optimum_set(lad, 4, "lower")
        assert len(opt) == 1160
        assert opt == brute_force_bound(lad, 4, "lower").optima
        with pytest.raises(OracleTooLargeError):
            optimum_set(point_mass(60), 6, "lower")

    def test_top_block_starts_list_no_optima(self):
        # 847,660,528 optimal vectors; each top-block start is checked against
        # the best partition of the levels below it
        length, n = 150, 40
        lad = ValueLadder([float(i) for i in range(1, length + 1)], [1.0 / length] * length)
        with pytest.raises(OracleTooLargeError):
            optimum_set(lad, n, "lower")
        best = bound(lad, n, "lower").value
        top = [cell_value((0, length - 1), lad, "lower")] + [
            cell_value((s, length - 1), lad, "lower")
            + capacity_values(lad, n - 1, "lower", (0, s - 1))[-1]
            for s in range(1, length)
        ]
        expected = [s for s, v in enumerate(top) if abs(v - best) <= TIE_TOL * (1 + abs(best))]
        assert Fill(lad, (n,), "lower", None).top_block_starts(n) == expected == [146, 147]


class TestCellAndCoarseValue:
    def test_whole_ladder_lower(self):
        assert cell_value((0, 3), UNIFORM4, "lower") == 1.0

    def test_single_level(self):
        assert cell_value((2, 2), UNIFORM4, "lower") == 3.0 * 0.25

    def test_middle_block(self):
        assert cell_value((1, 2), UNIFORM4, "lower") == 2.0 * 0.5

    def test_empty_or_bad_block_raises(self):
        with pytest.raises(ValueError):
            cell_value((2, 1), UNIFORM4, "lower")
        with pytest.raises(ValueError):
            cell_value((0, 9), UNIFORM4, "lower")

    def test_coarse_value_consistency_with_optimum(self):
        res = siminf(UNIFORM4, 2)
        assert coarse_value(res.cutoffs, UNIFORM4, "lower") == res.value

    def test_no_cuts_equals_whole_cell(self):
        assert coarse_value((), UNIFORM4, "lower") == cell_value((0, 3), UNIFORM4, "lower")

    def test_random_cuts_never_beat_optimum(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lad = float_ladder(rng, max_levels=9)
            n = int(rng.integers(1, 5))
            opt = siminf(lad, n).value
            n_cuts = int(rng.integers(0, min(n, len(lad))))
            if n_cuts:
                cuts = sorted(
                    rng.choice(np.arange(1, len(lad)), size=min(n_cuts, len(lad) - 1), replace=False).tolist()
                )
            else:
                cuts = []
            assert coarse_value(cuts, lad, "lower") <= opt + 1e-12


class TestOracleAgreement:
    def test_dyadic_exact(self):
        rng = np.random.default_rng(123)
        for _ in range(400):
            lad = dyadic_ladder(rng)
            n = int(rng.integers(1, 6))
            for kind in ("lower", "upper"):
                dp = bound(lad, n, kind)
                oracle = brute_force_bound(lad, n, kind)
                assert dp.value == oracle.bound.value
                assert dp.cutoffs.cuts == oracle.optima[0]

    def test_float_tolerance(self):
        rng = np.random.default_rng(321)
        for _ in range(400):
            lad = float_ladder(rng)
            n = int(rng.integers(1, 6))
            for kind in ("lower", "upper"):
                dp = bound(lad, n, kind)
                oracle = brute_force_bound(lad, n, kind)
                assert dp.value == pytest.approx(oracle.bound.value, rel=1e-12, abs=1e-12)

    def test_numpy_and_python_paths_agree(self):
        rng = np.random.default_rng(11)
        levels = np.sort(rng.uniform(-5, 5, size=60))
        w = rng.uniform(0.1, 1, size=60)
        lad = ValueLadder(levels.tolist(), (w / w.sum()).tolist())
        small = ValueLadder(lad.levels[:12], [m / sum(lad.level_masses[:12]) for m in lad.level_masses[:12]])
        # the long ladder exercises the vectorized fill; values must match a
        # direct enumeration on a short prefix-restricted instance
        res = siminf(lad, 4)
        assert coarse_value(res.cutoffs, lad, "lower") == res.value
        res_small = siminf(small, 3)
        oracle_small = brute_force_bound(small, 3, "lower")
        assert res_small.value == pytest.approx(oracle_small.bound.value, rel=1e-12)

    def test_oracle_guard(self):
        lad = ValueLadder(list(range(30)), [1 / 30] * 30)
        with pytest.raises(OracleTooLargeError):
            brute_force_bound(lad, 3, "lower")


def plain_oracle(ladder: ValueLadder, n: int, kind: str):
    """The oracle's definition as a loop: ``coarse_value`` of every vector of
    ``enumerate_cut_vectors``, keeping the first best value and exact ties."""
    upper = kind == "upper"
    best, optima = None, []
    for cuts in enumerate_cut_vectors(len(ladder), n):
        val = coarse_value(cuts, ladder, kind)
        if best is None or ((val < best) if upper else (val > best)):
            best, optima = val, [cuts]
        elif val == best:
            optima.append(cuts)
    return best, tuple(sorted(optima))


def exact_ladder(rng: np.random.Generator, length: int, low: int = -16) -> ValueLadder:
    """``length`` distinct integer levels from ``low`` up and masses k/2^10,
    some of them zero."""
    levels = sorted(rng.choice(np.arange(low, low + 2 * length + 1), size=length, replace=False))
    cuts = np.sort(rng.integers(0, 1025, size=length - 1))
    masses = np.diff(np.concatenate(([0], cuts, [1024]))) / 1024
    return ValueLadder([float(v) for v in levels], masses.tolist())


def oracle_edge_ladders() -> list:
    rng = np.random.default_rng(612)
    point = ValueLadder([float(i) for i in range(10)], [1.0] + [0.0] * 9)
    top_heavy = ValueLadder([float(i - 5) for i in range(10)], [0.0] * 9 + [1.0])
    # all mass on the level 0.0: every empty-mass cell is a signed zero
    zeros = ValueLadder([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 0.0, 1.0, 0.0, 0.0])
    huge = ValueLadder([-1.7e308, -1e308, -1.0, 0.0, 1e308, 1.7e308], [1 / 6] * 6)
    near_max = ValueLadder([1.7e308 - i * 1e294 for i in range(8, 0, -1)], [0.125] * 8)
    near_min = ValueLadder([-1.7e308 + i * 1e294 for i in range(8)], [0.125] * 8)
    return (
        [dyadic_ladder(rng, max_levels=10) for _ in range(4)]
        + [zero_mass_ladder(rng) for _ in range(4)]
        + [exact_ladder(rng, length, low=-length) for length in (6, 9)]
        + [point, top_heavy, zeros, huge, near_max, near_min]
    )


class TestOraclePlainDefinition:
    """``brute_force_bound`` equals the loop over the plain definition: the
    value bit for bit, every optimal vector and the bound built on the first."""

    @staticmethod
    def check(lad: ValueLadder, n: int, kind: str):
        value, optima = plain_oracle(lad, n, kind)
        res = brute_force_bound(lad, n, kind)
        assert res.bound.value.hex() == value.hex()
        assert res.optima == optima
        upper = kind == "upper"
        reps = tuple(
            lad.levels[hi if upper else lo]
            for lo, hi in blocks_from_cuts(optima[0], len(lad))
            for _ in range(lo, hi + 1)
        )
        assert res.bound == BoundResult(kind, CutoffVector(optima[0]), reps, value, len(lad) <= n)

    @pytest.mark.parametrize("index", range(len(oracle_edge_ladders())))
    def test_every_capacity(self, index):
        lad = oracle_edge_ladders()[index]
        for n in range(1, len(lad) + 1):
            for kind in ("lower", "upper"):
                self.check(lad, n, kind)

    def test_point_mass_ladder(self):
        # the ladder of test_all_vectors_optimal_and_guard: 1160 optima
        lad = ValueLadder([float(i) for i in range(20)], [1.0] + [0.0] * 19)
        for kind in ("lower", "upper"):
            self.check(lad, 4, kind)
        assert len(brute_force_bound(lad, 4, "lower").optima) == 1160

    def test_chunk_boundaries(self, monkeypatch):
        # 7-row chunks: the best total and its ties span many chunks
        monkeypatch.setattr(engine, "_EDGE_CHUNK_ROWS", 7)
        monkeypatch.setattr(engine, "_edge_tables", {})
        for lad in oracle_edge_ladders():
            for n in range(1, len(lad) + 1):
                for kind in ("lower", "upper"):
                    self.check(lad, n, kind)
        self.check(ValueLadder([float(i) for i in range(20)], [1.0] + [0.0] * 19), 4, "lower")


class TestOracleMemory:
    def test_streamed_enumeration_stays_bounded(self, monkeypatch):
        # 198,440 vectors in 25 chunks: the table with its cell indices takes
        # 14.5 MB, more than the cache keeps, so it is streamed
        monkeypatch.setattr(engine, "_edge_tables", {})
        rng = np.random.default_rng(613)
        lad = float_ladder(rng, max_levels=22, min_levels=22)
        tracemalloc.start()
        try:
            brute_force_bound(lad, 8, "lower")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert engine._edge_tables == {}
        exact = exact_ladder(rng, 22)
        for kind in ("lower", "upper"):
            assert brute_force_bound(exact, 8, kind).bound.value == bound(exact, 8, kind).value

    def test_cache_keeps_its_byte_bound(self, monkeypatch):
        # at 17 levels the tables of N = 7, 8, 9 take 0.95, 1.9 and 3.2 MB and
        # that of N = 10 4.6 MB: caching N = 9 drops the older tables, and
        # N = 10 is streamed
        monkeypatch.setattr(engine, "_edge_tables", {})
        lad = exact_ladder(np.random.default_rng(614), 17)
        results = {}
        for n in (7, 8, 9, 10):
            results[n] = brute_force_bound(lad, n, "upper")
            assert engine._edge_cache_bytes() <= engine._EDGE_CACHE_BYTES == 4 * 2**20
        assert list(engine._edge_tables) == [(17, 9)]
        monkeypatch.setattr(engine, "_EDGE_CACHE_BYTES", 0)
        monkeypatch.setattr(engine, "_edge_tables", {})
        for n, cached in results.items():
            assert brute_force_bound(lad, n, "upper") == cached
        assert engine._edge_tables == {}


def exact_suffix_dp(levels, units, n: int, kind: str) -> tuple:
    """``(value, cuts)``: the optimal bound of integer ``levels`` with
    integer mass ``units``, in those units, and its canonical cutoffs, by a
    suffix DP in exact integer arithmetic. At every block start it closes
    the block when closing is optimal, and otherwise takes the smallest
    optimal block end."""
    upper = kind == "upper"
    length = len(levels)
    lvl = np.array(levels, dtype=np.int64)
    pref = np.concatenate(([0], np.cumsum(units))).astype(np.int64)
    close = (pref[-1] - pref[:-1]) * (lvl[-1] if upper else lvl)
    values, choices = [None, close], [None, np.full(length, -1)]
    for _ in range(2, n + 1):
        value, choice = close.copy(), np.full(length, -1)
        for start in range(length - 1):
            ends = np.arange(start, length - 1)
            cand = (pref[ends + 1] - pref[start]) * (lvl[ends] if upper else lvl[start])
            cand += values[-1][ends + 1]
            best = cand.min() if upper else cand.max()
            if (best < close[start]) if upper else (best > close[start]):
                value[start], choice[start] = best, ends[np.argmax(cand == best)]
        values.append(value)
        choices.append(choice)
    cuts, start, b = [], 0, n
    while (end := int(choices[b][start])) >= 0:
        cuts.append(end + 1)
        start, b = end + 1, b - 1
    return int(values[n][0]), tuple(cuts)


class TestExactSuffixDp:
    """``bound`` against :func:`exact_suffix_dp` past the oracle's size
    guard, at sizes that select each branch of the fill. The levels are
    distinct integers in [-2048, 2048] and the masses k/2^12 with distinct
    cuts, so every cell and every sum of cells is exact in floats. Random
    ladders seldom tie; consecutive levels with equal masses (the last one
    taking the remainder) tie at hundreds of states, which tests the tie
    rule."""

    @pytest.mark.parametrize("ladder", ["random", "even"])
    @pytest.mark.parametrize("kind", ["lower", "upper"])
    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("length", [17, 18, 40, 200, 511, 512, 600])
    def test_value_and_cutoffs(self, length, n, kind, ladder):
        if ladder == "random":
            rng = np.random.default_rng(length * 10 + n)
            levels = np.sort(rng.choice(np.arange(-2048, 2049), size=length, replace=False))
            cuts = np.sort(rng.choice(np.arange(1, 4096), size=length - 1, replace=False))
            units = np.diff(np.concatenate(([0], cuts, [4096])))
        else:
            levels = np.arange(length) - length // 2
            units = np.full(length, 4096 // length)
            units[-1] += 4096 - units.sum()
        lad = ValueLadder(levels.astype(float).tolist(), (units / 4096).tolist())
        value, cutoffs = exact_suffix_dp(levels.tolist(), units.tolist(), n, kind)
        res = bound(lad, n, kind)
        assert res.value == value / 4096
        assert res.cutoffs.cuts == cutoffs


def exact_optimum_set(levels, masses, n: int, kind: str) -> tuple:
    """``(value, optima, gap)``: the optimal bound of the ladder in exact
    rational arithmetic, every cutoff vector that attains it, sorted, and
    the distance from it to the best value of any other vector (None when
    no other vector exists), by a suffix DP over ``Fraction`` that keeps the
    best two distinct values of every state. Reads the float inputs
    exactly and no engine code."""
    upper = kind == "upper"
    pick = min if upper else max
    lvl = [Fraction(v) for v in levels]
    pref = list(accumulate(map(Fraction, masses), initial=Fraction(0)))
    last = len(lvl) - 1

    def cell(lo, hi):
        return lvl[hi if upper else lo] * (pref[hi + 1] - pref[lo])

    # best[b][j] and second[b][j] are the best two distinct values of
    # levels[j..] in at most b blocks, and moves[b][j] the moves (-1 for
    # the close, else the block end) that attain best[b][j]
    best = [None, [cell(j, last) for j in range(last + 1)]]
    second, moves = [None, [None] * (last + 1)], [None, [[-1]] * (last + 1)]
    for _ in range(2, n + 1):
        row, row2, row_moves = [], [], []
        for j in range(last + 1):
            cands = [(-1, cell(j, last), None)]
            for e in range(j, last):
                runner_up = second[-1][e + 1]
                cands.append((e, cell(j, e) + best[-1][e + 1],
                              None if runner_up is None else cell(j, e) + runner_up))
            top = pick(v for _, v, _ in cands)
            rest = [v for c in cands for v in c[1:] if v is not None and v != top]
            row.append(top)
            row2.append(pick(rest) if rest else None)
            row_moves.append([e for e, v, _ in cands if v == top])
        best.append(row)
        second.append(row2)
        moves.append(row_moves)
    optima = []

    def walk(j, b, cuts):
        for e in moves[b][j]:
            if e < 0:
                optima.append(cuts)
            else:
                walk(e + 1, b - 1, cuts + (e + 1,))

    walk(0, n, ())
    runner_up = second[n][0]
    return best[n][0], sorted(optima), None if runner_up is None else abs(best[n][0] - runner_up)


class TestExactOptimumSet:
    """``optimum_set`` on float ladders against :func:`exact_optimum_set`:
    the set holds every exactly optimal vector. Levels are positive;
    ``random`` ladders have random levels and masses, ``even`` ones equally
    spaced levels and equal masses 1/L, which tie exactly in real
    arithmetic while their rounded prefix sums do not. Scaled by 2^40,
    where the exact optimum is unique up to ``TIE_TOL`` (every other vector
    lies farther from it than the tolerance), only the relative part of the
    tolerance covers the rounding. Scaled by 2^-40 the absolute part ties
    every vector within 1e-12 of the optimum."""

    @pytest.mark.parametrize("scale", [-40, 0, 40])
    @pytest.mark.parametrize("shape", ["random", "even"])
    @pytest.mark.parametrize("length", [5, 12, 17, 18, 33, 60])
    def test_contains_the_exact_optima(self, length, shape, scale):
        rng = np.random.default_rng(length * 100 + scale)
        if shape == "even":
            levels, masses = [float(i) for i in range(1, length + 1)], [1 / length] * length
        else:
            levels = np.cumsum(rng.uniform(0.05, 1.0, length)).tolist()
            w = rng.uniform(0.2, 1.0, length)
            masses = (w / w.sum()).tolist()
            masses[-1] = 1.0 - math.fsum(masses[:-1])
        lad = ValueLadder([math.ldexp(v, scale) for v in levels], masses)
        unique = 0
        # scaled down, nearly every vector ties: N <= 3 keeps the sets small
        capacities = (2, 3) if scale < 0 else (2, 3, 4, 6)
        for n in capacities:
            for kind in ("lower", "upper"):
                value, optima, gap = exact_optimum_set(lad.levels, lad.level_masses, n, kind)
                unique += gap is None or gap > Fraction(TIE_TOL) * (1 + abs(value))
                got = optimum_set(lad, n, kind)
                assert set(optima) <= set(got), (n, kind, optima, got)
        assert unique == (0 if scale < 0 else 2 * len(capacities))


class TestStructuralInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sandwich_duality_monotone(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(150):
            dyadic = bool(rng.integers(0, 2))
            lad = dyadic_ladder(rng) if dyadic else float_ladder(rng)
            expect = lad.expectation()
            prev_lo, prev_hi = -math.inf, math.inf
            for n in range(1, 7):
                lo = siminf(lad, n)
                hi = simsup(lad, n)
                assert lo.value <= expect + 1e-12
                assert hi.value >= expect - 1e-12
                assert lo.value >= prev_lo - 1e-12
                assert hi.value <= prev_hi + 1e-12
                prev_lo, prev_hi = lo.value, hi.value
                dual = -siminf(negate_ladder(lad), n).value
                if dyadic:
                    assert hi.value == dual
                else:
                    assert hi.value == pytest.approx(dual, rel=1e-12, abs=1e-12)
                if len(lad) <= n:
                    assert lo.exact and hi.exact
                    if dyadic:
                        assert lo.value == expect
                    else:
                        assert lo.value == pytest.approx(expect, rel=1e-12)

    def test_bound_values_dominate_statewise(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lad = float_ladder(rng)
            n = int(rng.integers(1, 5))
            lo = siminf(lad, n)
            hi = simsup(lad, n)
            assert all(b <= v for b, v in zip(lo.bound_values, lad.levels))
            assert all(b >= v for b, v in zip(hi.bound_values, lad.levels))
            assert len(set(lo.bound_values)) <= n
            assert len(set(hi.bound_values)) <= n

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_oracle_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        lad = dyadic_ladder(rng, max_levels=9)
        n = int(rng.integers(1, 6))
        for kind in ("lower", "upper"):
            assert bound(lad, n, kind).value == brute_force_bound(lad, n, kind).bound.value


def scan_pull_back(result: BoundResult, act: DiscreteAct, belief: Belief):
    """``pull_back`` as it was written before its bisection, with one list
    scan per kind for the zero-mass states: the reference for it."""
    ladder = build_ladder(act, belief)
    upper = result.kind == "upper"
    level_index = {v: i for i, v in enumerate(ladder.levels)}
    distinct_bounds = sorted(set(result.bound_values))
    values = []
    violations = []
    for sid, v, m in zip(act.state_ids, act.values, belief.masses):
        if m > 0.0:
            values.append(result.bound_values[level_index[v]])
            continue
        if upper:
            feasible = [b for b in distinct_bounds if b >= v]
            if feasible:
                values.append(feasible[0])
            else:
                values.append(distinct_bounds[-1])
                violations.append(sid)
        else:
            feasible = [b for b in distinct_bounds if b <= v]
            if feasible:
                values.append(feasible[-1])
            else:
                values.append(distinct_bounds[0])
                violations.append(sid)
    return values, tuple(violations)


class TestPullBack:
    def test_matches_the_list_scans(self):
        # payoffs from a pool holding both signed zeros, so that repr tells
        # which zero a state got, plus random floats; about a third of the
        # states are null, so some sit outside every bound
        rng = np.random.default_rng(53)
        pool = [-0.0, 0.0, -2.5, -1.0, 0.5, 1.0, 3.0]
        for _ in range(1500):
            k = int(rng.integers(1, 9))
            values = [pool[i] if rng.random() < 0.7 else float(rng.uniform(-4, 4))
                      for i in rng.integers(0, len(pool), size=k)]
            w = rng.uniform(0.1, 1.0, size=k) * (rng.random(k) > 0.35)
            w[int(rng.integers(0, k))] = 1.0
            masses = (w / w.sum()).tolist()
            big = max(range(k), key=lambda i: masses[i])
            masses[big] += 1.0 - sum(masses)
            act, bel = DiscreteAct(range(k), values), Belief(masses)
            n = int(rng.integers(1, 4))
            for kind in ("lower", "upper"):
                result = bound(build_ladder(act, bel), n, kind)
                got = pull_back(result, act, bel)
                want_values, want_violations = scan_pull_back(result, act, bel)
                assert list(map(repr, got.act.values)) == list(map(repr, want_values))
                assert got.violations == want_violations

    def test_exact_bound_reproduces_act(self):
        act = DiscreteAct(list("abcd"), [1.0, 2.0, 3.0, 4.0])
        bel = Belief([0.25] * 4)
        res = siminf(build_ladder(act, bel), 4)
        pb = pull_back(res, act, bel)
        assert pb.act.values == act.values
        assert pb.violations == ()

    def test_block_minima(self):
        act = DiscreteAct(list("abcd"), [1.0, 2.0, 3.0, 4.0])
        bel = Belief([0.25] * 4)
        res = siminf(build_ladder(act, bel), 2)
        pb = pull_back(res, act, bel)
        assert pb.act.values == (1.0, 1.0, 3.0, 3.0)

    def test_zero_mass_state_violation_flagged(self):
        act = DiscreteAct(list("abcz"), [2.0, 3.0, 4.0, 0.5])
        bel = Belief([0.3, 0.4, 0.3, 0.0])
        res = siminf(build_ladder(act, bel), 2)
        pb = pull_back(res, act, bel)
        # state z sits below every bound value: flagged, assigned the minimum
        assert pb.violations == ("z",)
        assert pb.act.values[3] == min(res.bound_values)

    def test_zero_mass_state_dominated_when_possible(self):
        act = DiscreteAct(list("abcz"), [2.0, 3.0, 4.0, 3.5])
        bel = Belief([0.3, 0.4, 0.3, 0.0])
        res = siminf(build_ladder(act, bel), 2)
        pb = pull_back(res, act, bel)
        assert pb.violations == ()
        assert pb.act.values[3] <= 3.5

    def test_statewise_dominance_on_positive_mass(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            act = DiscreteAct(range(k), rng.uniform(-5, 5, size=k).tolist())
            w = rng.uniform(0, 1, size=k)
            w[int(rng.integers(0, k))] = 0.0
            if w.sum() == 0:
                continue
            masses = (w / w.sum()).tolist()
            big = max(range(k), key=lambda i: masses[i])
            masses[big] += 1.0 - sum(masses)
            bel = Belief(masses)
            n = int(rng.integers(1, 4))
            lo = pull_back(siminf(build_ladder(act, bel), n), act, bel)
            hi = pull_back(simsup(build_ladder(act, bel), n), act, bel)
            for v, lv, hv, m in zip(act.values, lo.act.values, hi.act.values, bel.masses):
                if m > 0:
                    assert lv <= v <= hv


class TestPerceivedDistribution:
    def test_uniform4_cautious(self):
        pd = perceived_distribution(UNIFORM4, 2, "cautious")
        assert pd.support == (1.0, 3.0)
        assert pd.masses == (0.5, 0.5)
        assert pd.expectation() == siminf(UNIFORM4, 2).value

    def test_uniform4_reckless(self):
        pd = perceived_distribution(UNIFORM4, 2, "reckless")
        assert pd.support == (2.0, 4.0)
        assert pd.expectation() == simsup(UNIFORM4, 2).value

    def test_full_capacity_recovers_ladder(self):
        pd = perceived_distribution(UNIFORM4, 4, "cautious")
        assert pd.support == UNIFORM4.levels
        assert pd.masses == UNIFORM4.level_masses

    def test_constant_act_point_mass(self):
        lad = ValueLadder([3.0], [1.0])
        pd = perceived_distribution(lad, 3, "reckless")
        assert pd.support == (3.0,) and pd.masses == (1.0,)

    def test_fosd_and_convergence(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            lad = float_ladder(rng, max_levels=10)
            grid = sorted(lad.levels)
            prev = -math.inf
            for m in range(1, len(lad) + 1):
                pc = perceived_distribution(lad, m, "cautious")
                pr = perceived_distribution(lad, m, "reckless")
                for x in grid:
                    ladder_cdf = sum(
                        mm for v, mm in zip(lad.levels, lad.level_masses) if v <= x
                    )
                    assert pc.cdf(x) >= ladder_cdf - 1e-12
                    assert pr.cdf(x) <= ladder_cdf + 1e-12
                assert pc.expectation() >= prev - 1e-12
                prev = pc.expectation()
            assert prev == pytest.approx(lad.expectation(), rel=1e-12, abs=1e-12)


class TestCutoffVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            CutoffVector([2, 2])

    @pytest.mark.parametrize("cut", [1.5, math.inf, -math.inf, math.nan])
    def test_non_integral_cutoff_rejected(self, cut):
        # 1.5 used to be truncated to 1, and inf to raise a bare OverflowError
        with pytest.raises(ValueError) as err:
            CutoffVector([0, cut])
        assert str(err.value) == f"cutoffs must be integers, got {(0, cut)!r}"

    def test_integral_cutoffs_pass(self):
        cuts = CutoffVector([1.0, np.int64(2), np.float64(4.0)]).cuts
        assert cuts == (1, 2, 4) and all(type(c) is int for c in cuts)

    def test_blocks_from_cuts(self):
        assert blocks_from_cuts((2,), 4) == [(0, 1), (2, 3)]
        assert blocks_from_cuts((), 3) == [(0, 2)]
