"""Preference-engine tests: comparison rule, completions, well-understoodness,
mixtures, comonotonicity, and the relation's order properties."""

from itertools import product

import numpy as np
import pytest

from coarse_bounds.acts import Belief, DiscreteAct, build_ladder
from coarse_bounds.engine import bound
from coarse_bounds.errors import AlignmentError
from coarse_bounds.preferences import (
    Attitude,
    PreferenceVerdict,
    Provenance,
    Verdict,
    are_comonotone,
    is_well_understood,
    mix,
    simple_bounds_compare,
    statewise_dominates,
    value,
    verdict_of,
)

UNIFORM4_ACT = DiscreteAct(list("abcd"), [1.0, 2.0, 3.0, 4.0])
UNIFORM4_BELIEF = Belief([0.25] * 4)


def random_pair(rng, k):
    f = DiscreteAct(range(k), rng.uniform(-5, 5, size=k).tolist())
    g = DiscreteAct(range(k), rng.uniform(-5, 5, size=k).tolist())
    w = rng.uniform(0.1, 1.0, size=k)
    masses = (w / w.sum()).tolist()
    masses[int(np.argmax(masses))] += 1.0 - sum(masses)
    return f, g, Belief(masses)


class TestStatewiseDominance:
    def test_reflexive(self):
        assert statewise_dominates(UNIFORM4_ACT, UNIFORM4_ACT)

    def test_shifted(self):
        g = DiscreteAct(list("abcd"), [v + 1 for v in UNIFORM4_ACT.values])
        assert statewise_dominates(g, UNIFORM4_ACT)
        assert not statewise_dominates(UNIFORM4_ACT, g)

    def test_crossing(self):
        g = DiscreteAct(list("abcd"), [4.0, 3.0, 2.0, 1.0])
        assert not statewise_dominates(UNIFORM4_ACT, g)
        assert not statewise_dominates(g, UNIFORM4_ACT)

    def test_zero_mass_states_still_count(self):
        f = DiscreteAct(["a", "b"], [1.0, 5.0])
        g = DiscreteAct(["a", "b"], [1.0, 6.0])
        # dominance ignores the belief entirely
        assert statewise_dominates(g, f)
        assert not statewise_dominates(f, g)

    def test_state_mismatch(self):
        with pytest.raises(AlignmentError):
            statewise_dominates(UNIFORM4_ACT, DiscreteAct(list("abce"), [1, 2, 3, 4]))


class TestValue:
    def test_constant_act(self):
        f = DiscreteAct(["a", "b"], [3.0, 3.0])
        bel = Belief([0.5, 0.5])
        for att in (Attitude.CAUTIOUS, Attitude.RECKLESS):
            assert value(f, bel, 1, att) == 3.0

    def test_uniform4_frozen_values(self):
        assert value(UNIFORM4_ACT, UNIFORM4_BELIEF, 2, Attitude.CAUTIOUS) == 2.0
        assert value(UNIFORM4_ACT, UNIFORM4_BELIEF, 2, Attitude.RECKLESS) == 3.0

    def test_sandwich(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            f, _, bel = random_pair(rng, int(rng.integers(2, 8)))
            expect = sum(v * m for v, m in zip(f.values, bel.masses))
            n = int(rng.integers(1, 4))
            assert value(f, bel, n, Attitude.CAUTIOUS) <= expect + 1e-12
            assert value(f, bel, n, Attitude.RECKLESS) >= expect - 1e-12


class TestWellUnderstood:
    def test_constant(self):
        f = DiscreteAct(["a", "b"], [2.0, 2.0])
        assert is_well_understood(f, Belief([0.5, 0.5]), 1)

    def test_three_values_capacity_two(self):
        f = DiscreteAct(list("abc"), [1.0, 2.0, 3.0])
        assert not is_well_understood(f, Belief([1 / 3] * 3), 2)

    def test_null_state_value_ignored(self):
        f = DiscreteAct(list("abc"), [1.0, 2.0, 3.0])
        assert is_well_understood(f, Belief([0.5, 0.5, 0.0]), 2)


class TestMix:
    def test_endpoints(self):
        f, g = UNIFORM4_ACT, DiscreteAct(list("abcd"), [4.0, 3.0, 2.0, 1.0])
        assert mix(f, g, 1.0).values == f.values
        assert mix(f, g, 0.0).values == g.values

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            mix(UNIFORM4_ACT, UNIFORM4_ACT, 1.5)

    def test_binary_mix_partition(self):
        f = DiscreteAct(list("abcd"), [0.0, 0.0, 1.0, 1.0])
        g = DiscreteAct(list("abcd"), [2.0, 2.0, 5.0, 5.0])
        assert len(set(mix(f, g, 0.5).values)) == 2
        h = DiscreteAct(list("abcd"), [2.0, 5.0, 5.0, 5.0])
        assert len(set(mix(f, h, 0.5).values)) > 2


class TestComonotone:
    def test_self(self):
        assert are_comonotone(UNIFORM4_ACT, UNIFORM4_ACT)

    def test_negation(self):
        g = DiscreteAct(list("abcd"), [-v for v in UNIFORM4_ACT.values])
        assert not are_comonotone(UNIFORM4_ACT, g)

    def test_constant_with_anything(self):
        c = DiscreteAct(list("abcd"), [7.0] * 4)
        assert are_comonotone(UNIFORM4_ACT, c)
        assert are_comonotone(c, UNIFORM4_ACT)

    def test_belief_restriction(self):
        f = DiscreteAct(list("abc"), [1.0, 2.0, 3.0])
        g = DiscreteAct(list("abc"), [1.0, 5.0, 0.0])
        assert not are_comonotone(f, g)
        assert are_comonotone(f, g, Belief([0.5, 0.5, 0.0]))

    def test_sort_based_path_matches_quadratic(self):
        # small-integer values tie often; k = 1500 has over 10^6 state pairs
        rng = np.random.default_rng(9)

        def pairwise(f_vals, g_vals, masses):
            a, b = f_vals[masses > 0], g_vals[masses > 0]
            return not np.any(np.subtract.outer(a, a) * np.subtract.outer(b, b) < 0)

        cases = [(int(rng.integers(2, 9)), 4) for _ in range(50)]
        cases += [(1500, 4)] * 10 + [(1500, 60)] * 10
        outcomes = set()
        for k, span in cases:
            f_vals = rng.integers(-span, span + 1, size=k).astype(float)
            g_vals = rng.integers(-span, span + 1, size=k).astype(float)
            if k > 8 and rng.random() < 0.5:
                # a monotone image of f with one entry nudged by -1, 0 or 1
                g_vals = f_vals // 3
                g_vals[rng.integers(0, k)] += rng.integers(-1, 2)
            f = DiscreteAct(range(k), f_vals.tolist())
            g = DiscreteAct(range(k), g_vals.tolist())
            assert are_comonotone(f, g) == pairwise(f_vals, g_vals, np.ones(k))
            masses = rng.uniform(0.0, 1.0, size=k) * (rng.random(k) < 0.7)
            masses[0] = 1.0
            belief = Belief((masses / masses.sum()).tolist())
            expected = pairwise(f_vals, g_vals, np.asarray(belief.masses))
            assert are_comonotone(f, g, belief) == expected
            outcomes.add((k > 8, expected))
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


class TestCompare:
    def test_constants(self):
        f = DiscreteAct(["a"], [5.0])
        g = DiscreteAct(["a"], [3.0])
        res = simple_bounds_compare(f, g, Belief([1.0]), 1)
        assert res.verdict is Verdict.STRICTLY_PREFERS_F
        assert res.provenance is Provenance.BY_BOTH

    def test_equal_expectation_simple_acts(self):
        f = DiscreteAct(list("ab"), [0.0, 4.0])
        g = DiscreteAct(list("ab"), [3.0, 1.0])
        res = simple_bounds_compare(f, g, Belief([0.5, 0.5]), 2)
        assert res.verdict is Verdict.INDIFFERENT
        assert res.provenance is Provenance.BY_BOUNDS

    def test_identical_complex_acts_by_dominance(self):
        f = DiscreteAct(list("abc"), [0.0, 1.0, 5.0])
        res = simple_bounds_compare(f, f, Belief([1 / 3] * 3), 2)
        assert res.verdict is Verdict.INDIFFERENT
        assert res.provenance is Provenance.BY_DOMINANCE

    def test_crossing_binary_acts_and_their_mixtures(self):
        # two mirrored binary bets on halves of a 100-point grid: exactly
        # understood at capacity 2 and equal in expectation, so indifferent;
        # mixing each with the convex payoff 10*x^2 breaks comparability
        grid = 100
        omega = [(i + 0.5) / grid for i in range(grid)]
        f = DiscreteAct(range(grid), [0.0 if w < 0.5 else 1.0 for w in omega])
        g = DiscreteAct(range(grid), [1.0 if w < 0.5 else 0.0 for w in omega])
        h = DiscreteAct(range(grid), [10.0 * w * w for w in omega])
        bel = Belief([1.0 / grid] * grid)
        assert simple_bounds_compare(f, g, bel, 2).verdict is Verdict.INDIFFERENT
        mf, mg = mix(f, h, 0.5), mix(g, h, 0.5)
        res = simple_bounds_compare(mf, mg, bel, 2)
        assert res.verdict is Verdict.INCOMPARABLE
        # both bound inequalities fail, in both directions
        lmf, lmg = build_ladder(mf, bel), build_ladder(mg, bel)
        assert bound(lmf, 2, "lower").value < bound(lmg, 2, "upper").value
        assert bound(lmg, 2, "lower").value < bound(lmf, 2, "upper").value

    def test_incomparable_never_by_dominance(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            f, g, bel = random_pair(rng, int(rng.integers(2, 8)))
            res = simple_bounds_compare(f, g, bel, int(rng.integers(1, 4)))
            if res.verdict is Verdict.INCOMPARABLE:
                assert res.provenance is Provenance.BY_BOUNDS


def branch_verdict(f_dom, g_dom, f_bounds, g_bounds) -> PreferenceVerdict:
    """The verdict and provenance branches as ``simple_bounds_compare`` wrote
    them out before the rule became ``verdict_of``: the reference for it."""
    fw = f_dom or f_bounds
    bw = g_dom or g_bounds
    if fw and bw:
        verdict = Verdict.INDIFFERENT
    elif fw:
        verdict = Verdict.STRICTLY_PREFERS_F
    elif bw:
        verdict = Verdict.STRICTLY_PREFERS_G
    else:
        verdict = Verdict.INCOMPARABLE
    if verdict is Verdict.INCOMPARABLE:
        provenance = Provenance.BY_BOUNDS
    else:
        dom_support = (fw and f_dom) or (bw and g_dom)
        bounds_support = (fw and f_bounds) or (bw and g_bounds)
        if dom_support and bounds_support:
            provenance = Provenance.BY_BOTH
        elif dom_support:
            provenance = Provenance.BY_DOMINANCE
        else:
            provenance = Provenance.BY_BOUNDS
    return PreferenceVerdict(verdict, provenance)


class TestVerdictOf:
    @pytest.mark.parametrize("evidence", list(product((False, True), repeat=4)),
                             ids=lambda e: "".join("FT"[x] for x in e))
    def test_matches_the_branch_reference(self, evidence):
        assert verdict_of(*evidence) == branch_verdict(*evidence)


class TestRelationOrderProperties:
    def test_reflexivity_and_transitivity(self):
        rng = np.random.default_rng(77)
        triples = 10_000
        violations = 0
        for _ in range(triples):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 4))
            acts = []
            w = rng.uniform(0.1, 1.0, size=k)
            masses = (w / w.sum()).tolist()
            masses[int(np.argmax(masses))] += 1.0 - sum(masses)
            bel = Belief(masses)
            # narrow value range makes non-trivial verdict patterns common
            for _ in range(3):
                acts.append(DiscreteAct(range(k), rng.uniform(0, 2.5, size=k).tolist()))
            bounds = {}
            for idx, a in enumerate(acts):
                lad = build_ladder(a, bel)
                bounds[idx] = (bound(lad, n, "lower").value, bound(lad, n, "upper").value)

            def weakly(i, j):
                dom = all(x >= y for x, y in zip(acts[i].values, acts[j].values))
                return dom or bounds[i][0] >= bounds[j][1]

            for i in range(3):
                if not weakly(i, i):
                    # reflexivity: dominance always holds on the diagonal
                    violations += 1
            for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                if weakly(i, j) and weakly(j, l) and not weakly(i, l):
                    violations += 1
        assert violations == 0
