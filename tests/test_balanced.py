"""Unit tests for the log-balanced scaled arithmetic."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soliton_pole_lab._balanced import Scaled, balanced_sum


def as_complex(s: Scaled) -> complex:
    return s.mant * cmath.exp(s.log)


small = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_balanced_sum_matches_direct_small_exponents() -> None:
    terms = [(1.5 + 0.5j, 0.3 + 1.0j), (-2.0, -0.7 + 0.2j), (0.25j, 1.1)]
    got = balanced_sum(terms)
    want = sum(c * cmath.exp(w) for c, w in terms)
    assert abs(got.value() - want) < 1e-14 * abs(want)


def test_balanced_sum_huge_exponent_no_overflow() -> None:
    # e^2000 alone would overflow a double; the balanced form keeps it.
    s = balanced_sum([(1.0, 2000.0), (1.0, 0.0)])
    assert math.isclose(s.log_abs(), 2000.0, rel_tol=1e-12)
    with pytest.raises(OverflowError):
        s.value()


def test_balanced_sum_exact_cancellation() -> None:
    s = balanced_sum([(1.0, 800.0), (-1.0, 800.0)])
    # The mantissa cancels but the norm remembers the term size.
    assert s.relative() < 1e-15
    assert s.norm > 0.0


def test_balanced_sum_empty_and_zero_coeffs() -> None:
    assert balanced_sum([]).value() == 0j
    assert balanced_sum([(0.0, 5000.0)]).value() == 0j
    assert balanced_sum([]).log_abs() == -math.inf


def test_relative_is_backward_error_scale() -> None:
    # 1 + (-1) + 1e-18*e^0: relative residual ~ 5e-19 wrt term norm 2.
    s = balanced_sum([(1.0, 0.0), (-1.0, 0.0), (1e-18, 0.0)])
    assert s.relative() == pytest.approx(1e-18 / 2.0, rel=1e-6)


@given(a=small, b=small, c=small, d=small)
@settings(max_examples=60, deadline=None)
def test_mul_matches_complex(a: float, b: float, c: float, d: float) -> None:
    x = Scaled(complex(a, b), 0.7)
    y = Scaled(complex(c, d), -0.4)
    got = as_complex(x * y)
    want = as_complex(x) * as_complex(y)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


@given(a=small, b=small, c=small, d=small)
@settings(max_examples=60, deadline=None)
def test_add_matches_complex(a: float, b: float, c: float, d: float) -> None:
    x = Scaled(complex(a, b), 1.3)
    y = Scaled(complex(c, d), -2.1)
    got = as_complex(x + y)
    want = as_complex(x) + as_complex(y)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_add_widely_separated_scales() -> None:
    x = Scaled(1.0 + 0j, 1000.0)
    y = Scaled(1.0 + 0j, -1000.0)
    s = x + y
    assert math.isclose(s.log_abs(), 1000.0)
    assert s.mant == pytest.approx(1.0)


def test_neg_and_sub() -> None:
    x = Scaled(2.0 + 1.0j, 3.0)
    assert as_complex(-x) == -as_complex(x)
    d = x - x
    assert d.relative() < 1e-15


def test_ratio_plain_and_extreme() -> None:
    x = Scaled(3.0 + 0j, 10.0)
    y = Scaled(1.5 + 0j, 10.0)
    assert x.ratio(y) == pytest.approx(2.0)
    # Graceful underflow: e^{-2000} ratio to e^{0} is 0, not an error.
    tiny = Scaled(1.0 + 0j, -2000.0)
    one = Scaled(1.0 + 0j, 0.0)
    assert tiny.ratio(one) == 0j
    with pytest.raises(OverflowError):
        one.ratio(tiny)
    with pytest.raises(ZeroDivisionError):
        one.ratio(Scaled(0j, 0.0))


def test_value_overflow_message_names_exponent() -> None:
    s = Scaled(1.0 + 0j, 5000.0)
    with pytest.raises(OverflowError, match="5000"):
        s.value()
