"""CRRA utility: ``apply`` over a sequence equals the scalar call on each
element bit for bit, and raises what those calls raise."""

import math

import numpy as np
import pytest

from coarse_bounds.applications.crra import CRRAUtility
from coarse_bounds.errors import CoarseBoundsError, NonPositiveWealthError

GAMMAS = (0.0, 0.5, 1.0, 2.0, 3.0)
_rng = np.random.default_rng(5)
# mantissas in [1, 10) at every decimal exponent from -300 to 299, then wealth
# near 1, where numpy's array log and power differ from the scalar call on
# about one input in two hundred
WEALTH = (
    (_rng.uniform(1.0, 10.0, 2400) * 10.0 ** np.repeat(np.arange(-300, 300), 4)).tolist()
    + _rng.uniform(0.5, 2.0, 2000).tolist()
)


def scalar_calls(u, xs):
    """The per-element reference, or the type and message of what it raised."""
    try:
        return [u(x) for x in xs]
    except (ValueError, OverflowError) as err:
        return type(err), str(err)


def apply_calls(u, xs):
    try:
        return u.apply(xs)
    except (ValueError, OverflowError) as err:
        return type(err), str(err)


def hexes(values):
    return [float.hex(v) for v in values]


class TestApply:
    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("as_numpy", [False, True], ids=["float", "float64"])
    def test_bitwise_equal_to_scalar_calls(self, gamma, as_numpy):
        u = CRRAUtility(gamma)
        xs = [np.float64(x) for x in WEALTH] if as_numpy else WEALTH
        with np.errstate(over="ignore"):
            if not as_numpy:
                # Python's float power raises where the result overflows
                xs = [x for x in xs if not isinstance(scalar_calls(u, [x]), tuple)]
            expected = [u(x) for x in xs]
            got = u.apply(xs)
        assert len(xs) >= 3000
        assert hexes(got) == hexes(expected)
        assert [type(v) for v in got] == [type(v) for v in expected]

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_tuple_and_empty_inputs(self, gamma):
        u = CRRAUtility(gamma)
        xs = tuple(WEALTH[1200:1240])
        assert hexes(u.apply(xs)) == hexes(u(x) for x in xs)
        assert u.apply([]) == []

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("xs", [
        [1.0, 2.0, -0.5, 0.0, 3.0],
        [0.0, -1.0],
        [2.0, -0.0],
        [float("nan"), 1.0, -2.0],
        [np.float64(1.5), np.float64(-0.25)],
        [-math.inf, 1.0],
    ], ids=["middle", "zero-first", "negative-zero", "after-nan", "float64", "minus-inf"])
    def test_first_non_positive_element_is_named(self, gamma, xs):
        u = CRRAUtility(gamma)
        expected = scalar_calls(u, xs)
        assert expected[0] is NonPositiveWealthError
        assert apply_calls(u, xs) == expected
        bad = next(x for x in xs if x <= 0)
        assert expected[1] == f"CRRA utility needs positive wealth, got {bad!r}"

    def test_wealth_error_is_a_package_value_error(self):
        assert issubclass(NonPositiveWealthError, CoarseBoundsError)
        assert issubclass(NonPositiveWealthError, ValueError)
        with pytest.raises(NonPositiveWealthError, match="marginal utility"):
            CRRAUtility(2.0).marginal(0.0)

    @pytest.mark.parametrize("xs, error", [
        ([1e-200], OverflowError),
        ([1.0, 1e-200, 2.0], OverflowError),
        ([1.0, 1e-200, -1.0], OverflowError),
        ([1.0, -1.0, 1e-200], NonPositiveWealthError),
    ], ids=["alone", "middle", "before-non-positive", "after-non-positive"])
    def test_overflow_is_raised_where_the_scalar_calls_raise_it(self, xs, error):
        u = CRRAUtility(3.0)
        expected = scalar_calls(u, xs)
        assert expected[0] is error
        assert apply_calls(u, xs) == expected
        if error is OverflowError:
            assert expected[1] == "CRRA utility with gamma=3.0 overflows at wealth 1e-200"

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_nan_passes_through(self, gamma):
        u = CRRAUtility(gamma)
        xs = [2.0, float("nan"), 0.5, math.inf]
        got = u.apply(xs)
        assert hexes(got) == hexes(scalar_calls(u, xs))
        assert math.isnan(got[1])
