"""Tests for triangular fuzzy numbers and interval arithmetic."""

import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyheat.fuzzy import (
    AlphaLevels,
    Interval,
    IntervalDivisionError,
    TriangularFuzzyNumber,
    alpha_cut,
    membership,
    tfn_from_tolerance,
)

TOL = 1e-12


def enumerate_endpoints(op, x, y):
    """Independent oracle: apply ``op`` to all four endpoint pairs."""
    results = [op(u, v) for u in (x.lo, x.hi) for v in (y.lo, y.hi)]
    return min(results), max(results)


# --- constructors and invariants -----------------------------------------


def test_interval_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_tfn_rejects_unordered_points():
    with pytest.raises(ValueError):
        TriangularFuzzyNumber(1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        TriangularFuzzyNumber(0.0, 2.0, 1.0)


def test_crisp_tfn_is_degenerate():
    t = TriangularFuzzyNumber.crisp(5.0)
    assert (t.a_l, t.a_m, t.a_r) == (5.0, 5.0, 5.0)
    assert membership(t, 5.0) == 1.0
    assert membership(t, 5.0 + 1e-9) == 0.0


def test_alpha_levels_validation():
    with pytest.raises(ValueError):
        AlphaLevels((0.0,))
    with pytest.raises(ValueError):
        AlphaLevels((0.0, 0.5))  # missing 1
    with pytest.raises(ValueError):
        AlphaLevels((0.1, 1.0))  # missing 0
    with pytest.raises(ValueError):
        AlphaLevels((0.0, 0.5, 0.5, 1.0))  # not strictly increasing


def test_alpha_levels_uniform():
    levels = AlphaLevels.uniform(11)
    assert len(levels) == 11
    assert levels.levels[0] == 0.0 and levels.levels[-1] == 1.0
    assert levels.levels[5] == pytest.approx(0.5, abs=TOL)
    with pytest.raises(ValueError):
        AlphaLevels.uniform(1)


# --- membership -----------------------------------------------------------


def test_membership_left_leg_midpoint():
    assert membership(TriangularFuzzyNumber(0, 1, 2), 0.5) == pytest.approx(0.5, abs=TOL)


def test_membership_outside_support():
    assert membership(TriangularFuzzyNumber(0, 1, 2), 3.0) == 0.0
    assert membership(TriangularFuzzyNumber(0, 1, 2), -0.1) == 0.0


def test_membership_modal_normality():
    assert membership(TriangularFuzzyNumber(0, 1, 2), 1.0) == 1.0


def test_membership_degenerate_legs_no_division_error():
    left_step = TriangularFuzzyNumber(1.0, 1.0, 2.0)
    assert membership(left_step, 1.0) == 1.0
    assert membership(left_step, 1.5) == pytest.approx(0.5, abs=TOL)
    right_step = TriangularFuzzyNumber(0.0, 1.0, 1.0)
    assert membership(right_step, 1.0) == 1.0
    assert membership(right_step, 0.5) == pytest.approx(0.5, abs=TOL)
    point = TriangularFuzzyNumber(1.0, 1.0, 1.0)
    assert membership(point, 1.0) == 1.0
    assert membership(point, 0.999) == 0.0


# --- alpha cuts -----------------------------------------------------------


def test_alpha_cut_endpoints():
    t = TriangularFuzzyNumber(1.14, 1.2, 1.26)
    cut = alpha_cut(t, 0.0)
    assert cut.lo == 1.14 and cut.hi == 1.26


def test_alpha_cut_modal_collapse():
    t = TriangularFuzzyNumber(1.14, 1.2, 1.26)
    cut = alpha_cut(t, 1.0)
    assert cut.lo == 1.2 and cut.hi == 1.2


def test_alpha_cut_linear_interpolation():
    cut = alpha_cut(TriangularFuzzyNumber(1.14, 1.2, 1.26), 0.5)
    assert cut.lo == pytest.approx(1.17, abs=TOL)
    assert cut.hi == pytest.approx(1.23, abs=TOL)


def test_alpha_cut_stays_inside_its_legs():
    """Exactly, with no tolerance: rounding of the convex combinations
    must not push a bound past ``a_l``, ``a_m`` or ``a_r``.  Zero-width
    legs and fully crisp numbers are drawn too."""
    rng = random.Random(7)
    for _ in range(20_000):
        a_l, a_m, a_r = sorted(rng.uniform(-10.0, 10.0) for _ in range(3))
        legs = rng.randrange(4)
        if legs & 1:
            a_m = a_l
        if legs & 2:
            a_r = a_m
        t = TriangularFuzzyNumber(a_l, a_m, a_r)
        alpha = rng.random()
        cut = alpha_cut(t, alpha)
        assert a_l <= cut.lo <= a_m <= cut.hi <= a_r, (t, alpha, cut)


def test_alpha_cut_rejects_out_of_range():
    t = TriangularFuzzyNumber(0, 1, 2)
    with pytest.raises(ValueError):
        alpha_cut(t, -0.01)
    with pytest.raises(ValueError):
        alpha_cut(t, 1.01)


# --- tolerance construction -----------------------------------------------


def test_tfn_from_tolerance_five_percent():
    t = tfn_from_tolerance(1.2, 0.05)
    assert t.a_l == pytest.approx(1.14, abs=TOL)
    assert t.a_m == 1.2
    assert t.a_r == pytest.approx(1.26, abs=TOL)


def test_tfn_from_tolerance_heat_rate():
    t = tfn_from_tolerance(2.0, 0.05)
    assert t.a_l == pytest.approx(1.9, abs=TOL)
    assert t.a_m == 2.0
    assert t.a_r == pytest.approx(2.1, abs=TOL)


def test_tfn_from_tolerance_crisp():
    assert tfn_from_tolerance(5.0, 0.0) == TriangularFuzzyNumber(5.0, 5.0, 5.0)


def test_tfn_from_tolerance_negative_nominal_swaps_endpoints():
    t = tfn_from_tolerance(-2.0, 0.1)
    assert t.a_l == pytest.approx(-2.2, abs=TOL)
    assert t.a_r == pytest.approx(-1.8, abs=TOL)


def test_tfn_from_tolerance_rejects_negative_pct():
    with pytest.raises(ValueError):
        tfn_from_tolerance(1.0, -0.1)


# --- interval arithmetic ---------------------------------------------------


def test_interval_add_endpoint_sums():
    assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)


def test_interval_mul_matches_endpoint_enumeration():
    x, y = Interval(-1, 2), Interval(3, 4)
    lo, hi = enumerate_endpoints(lambda u, v: u * v, x, y)
    got = x * y
    assert (got.lo, got.hi) == (lo, hi) == (-4.0, 8.0)


def test_interval_div_matches_endpoint_enumeration():
    x, y = Interval(2, 4), Interval(1, 2)
    lo, hi = enumerate_endpoints(lambda u, v: u / v, x, y)
    got = x / y
    assert (got.lo, got.hi) == (lo, hi) == (1.0, 4.0)


def test_interval_div_rejects_zero_straddle():
    with pytest.raises(IntervalDivisionError):
        Interval(1, 2) / Interval(-1, 1)
    with pytest.raises(IntervalDivisionError):
        Interval(1, 2) / Interval(0, 1)


def test_interval_scale():
    assert 2.0 * Interval(1, 3) == Interval(2, 6)
    assert -1.0 * Interval(1, 3) == Interval(-3, -1)
    assert 0.0 * Interval(1, 3) == Interval(0, 0)


def test_interval_operators_delegate():
    assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)
    assert Interval(3, 4) - Interval(1, 2) == Interval(1, 3)
    assert Interval(1, 2) * Interval(3, 4) == Interval(3, 8)
    assert Interval(2, 4) / Interval(1, 2) == Interval(1, 4)
    assert 2.0 * Interval(1, 3) == Interval(2, 6)


# --- properties ------------------------------------------------------------

finite = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


@st.composite
def intervals(draw):
    a, b = draw(finite), draw(finite)
    return Interval(min(a, b), max(a, b))


@st.composite
def nonzero_intervals(draw):
    """Intervals bounded away from zero, for division."""
    a = draw(st.floats(min_value=0.5, max_value=30.0))
    b = draw(st.floats(min_value=0.5, max_value=30.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    lo, hi = min(a, b), max(a, b)
    return Interval(sign * hi, sign * lo) if sign < 0 else Interval(lo, hi)


@st.composite
def scaled_tfns(draw):
    """TFNs whose legs are comparable to their magnitude, so leg-ratio
    round trips stay inside an absolute 1e-12 tolerance."""
    a_l = draw(st.floats(min_value=-10.0, max_value=10.0))
    left = draw(st.floats(min_value=0.5, max_value=5.0))
    right = draw(st.floats(min_value=0.5, max_value=5.0))
    return TriangularFuzzyNumber(a_l, a_l + left, a_l + left + right)


# Each applies to two intervals and to two reals alike.
OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


@given(x=intervals(), y=intervals(), pads=st.tuples(*[st.floats(0, 5)] * 4))
def test_inclusion_monotonicity(x, y, pads):
    """Widening the operands can only widen the result."""
    x_wide = Interval(x.lo - pads[0], x.hi + pads[1])
    y_wide = Interval(y.lo - pads[2], y.hi + pads[3])
    for name in ("add", "sub", "mul"):
        op = OPS[name]
        assert op(x_wide, y_wide).contains_interval(op(x, y), tol=TOL), name


@given(x=intervals(), y=nonzero_intervals(), pads=st.tuples(*[st.floats(0, 5)] * 3))
def test_inclusion_monotonicity_div(x, y, pads):
    x_wide = Interval(x.lo - pads[0], x.hi + pads[1])
    # Widen the denominator away from zero to keep it sign-definite.
    if y.lo > 0:
        y_wide = Interval(y.lo, y.hi + pads[2])
    else:
        y_wide = Interval(y.lo - pads[2], y.hi)
    assert (x_wide / y_wide).contains_interval(x / y, tol=TOL)


@given(
    x=intervals(),
    y=nonzero_intervals(),
    fracs=st.tuples(st.floats(0, 1), st.floats(0, 1)),
)
def test_point_containment(x, y, fracs):
    """Any pointwise result lies inside the interval result."""
    u = x.lo + fracs[0] * (x.hi - x.lo)
    v = y.lo + fracs[1] * (y.hi - y.lo)
    for name in ("add", "sub", "mul"):
        op = OPS[name]
        assert op(x, y).contains(op(u, v), tol=TOL), name
    assert (x / y).contains(u / v, tol=TOL)


@given(a=finite, b=st.floats(min_value=0.5, max_value=30.0), sign=st.sampled_from([-1.0, 1.0]))
def test_degenerate_intervals_match_real_arithmetic(a, b, sign):
    x = Interval.point(a)
    y = Interval.point(sign * b)
    assert x + y == Interval.point(a + sign * b)
    assert x - y == Interval.point(a - sign * b)
    assert x * y == Interval.point(a * (sign * b))
    assert x / y == Interval.point(a / (sign * b))


@given(t=scaled_tfns(), a1=st.floats(0, 1), a2=st.floats(0, 1))
def test_alpha_cut_nesting(t, a1, a2):
    lo_alpha, hi_alpha = min(a1, a2), max(a1, a2)
    outer = alpha_cut(t, lo_alpha)
    inner = alpha_cut(t, hi_alpha)
    assert outer.contains_interval(inner, tol=TOL)


@given(t=scaled_tfns(), alpha=st.floats(0.01, 1.0))
def test_membership_round_trip_at_cut_endpoints(t, alpha):
    cut = alpha_cut(t, alpha)
    assert membership(t, cut.lo) == pytest.approx(alpha, abs=TOL)
    assert membership(t, cut.hi) == pytest.approx(alpha, abs=TOL)


@given(t=scaled_tfns())
def test_support_and_modal_cut(t):
    assert alpha_cut(t, 0.0) == t.support
    top = alpha_cut(t, 1.0)
    assert top.lo == top.hi == t.a_m
