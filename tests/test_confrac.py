"""Continued fractions and minimal-denominator search, cross-checked two ways."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdenom.confrac import (
    CFExpansion,
    first_pair_between,
    first_rational_between,
    is_first_rational_between,
    sqrt_cf,
)
from sqdenom.exactmath import is_perfect_square

from conftest import (
    brute_first_rational,
    convergent,
    run_length_first_pair,
    stern_brocot_between,
)


def test_sqrt_cf_small_radicands():
    assert sqrt_cf(2) == CFExpansion(1, (2,))
    assert sqrt_cf(3) == CFExpansion(1, (1, 2))
    assert sqrt_cf(7) == CFExpansion(2, (1, 1, 1, 4))
    assert sqrt_cf(13) == CFExpansion(3, (1, 1, 1, 1, 6))
    assert sqrt_cf(14) == CFExpansion(3, (1, 2, 1, 6))


def test_sqrt_cf_perfect_squares_are_finite():
    assert sqrt_cf(1) == CFExpansion(1, ())
    assert sqrt_cf(49) == CFExpansion(7, ())
    assert str(sqrt_cf(49)) == "[7]"


def test_sqrt_cf_991_and_992():
    cf = sqrt_cf(991)
    assert cf.a0 == 31
    assert cf.body[:4] == (2, 12, 10, 2)
    assert len(cf.body) == 60
    assert cf.body[-1] == 62
    assert sqrt_cf(992) == CFExpansion(31, (2, 62))
    assert str(sqrt_cf(992)) == "[31; (2, 62)]"


def test_sqrt_cf_str_and_terms():
    assert str(sqrt_cf(2)) == "[1; (2)]"


def test_sqrt_cf_validation():
    with pytest.raises(ValueError):
        sqrt_cf(0)
    with pytest.raises(ValueError):
        sqrt_cf(-3)


def test_period_ends_with_doubled_lead():
    # classical structure: the last partial quotient of the period is 2*a0
    for d in range(2, 3000):
        if is_perfect_square(d) is None:
            cf = sqrt_cf(d)
            assert cf.body[-1] == 2 * cf.a0, d


def test_period_detection_terminates():
    for d in range(2, 10001):
        cf = sqrt_cf(d)
        if is_perfect_square(d) is None:
            assert cf.periodic and len(cf.body) >= 1


def test_convergents_of_sqrt2():
    cf = sqrt_cf(2)
    expected = [Fraction(1), Fraction(3, 2), Fraction(7, 5), Fraction(17, 12), Fraction(41, 29)]
    assert [convergent(cf, j) for j in range(5)] == expected


def test_convergent_index_errors():
    with pytest.raises(IndexError):
        convergent(sqrt_cf(2), -1)
    assert convergent(sqrt_cf(49), 0) == 7
    with pytest.raises(IndexError):
        convergent(sqrt_cf(49), 1)


def test_convergent_accuracy():
    # |p/q - sqrt(d)| < 1/q^2, equivalently q*|p^2 - d*q^2| < p + q*sqrt(d)
    for d in range(2, 200):
        if is_perfect_square(d) is not None:
            continue
        cf = sqrt_cf(d)
        for j in range(9):
            f = convergent(cf, j)
            p, q = f.numerator, f.denominator
            lhs = q * abs(p * p - d * q * q) - p
            assert lhs < 0 or lhs * lhs < q * q * d, (d, j)


def test_first_rational_between_examples():
    assert first_rational_between(991, 992) == Fraction(850, 27)
    assert first_rational_between(8, 9) == Fraction(17, 6)
    assert first_rational_between(2, 3) == Fraction(3, 2)
    assert first_rational_between(4, 5) == Fraction(11, 5)
    assert first_rational_between(0, 1) == Fraction(1, 2)
    assert first_rational_between(1, 4) == Fraction(3, 2)
    # several integers qualify: smallest numerator wins
    assert first_rational_between(0, 9) == Fraction(1)


def test_first_rational_validation():
    for bad in [(5, 5), (9, 2), (-1, 4)]:
        with pytest.raises(ValueError):
            first_rational_between(*bad)
        with pytest.raises(ValueError):
            stern_brocot_between(*bad)


def test_expansion_rule_agrees_with_mediant_descent():
    for a in range(1, 301):
        if is_perfect_square(a) is None and is_perfect_square(a + 1) is None:
            assert first_rational_between(a, a + 1) == stern_brocot_between(a, a + 1), a


def test_first_rational_is_denominator_minimal():
    for a in range(0, 301):
        f = first_rational_between(a, a + 1)
        assert a < f * f < a + 1
        assert f == brute_first_rational(a, a + 1), a


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=400), st.integers(min_value=1, max_value=60))
def test_first_rational_general_intervals(x, gap):
    y = x + gap
    f = first_rational_between(x, y)
    assert x < f * f < y
    assert f == brute_first_rational(x, y, s_limit=500)


_radicands = st.one_of(
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=0, max_value=70).map(lambda n: n * n),
)


@settings(max_examples=300, deadline=None)
@given(_radicands, _radicands)
def test_kernel_matches_mediant_descent(x, y):
    # squares at either end and x = 0 are drawn often by _radicands
    if x == y:
        return
    x, y = min(x, y), max(x, y)
    t, s = first_pair_between(x, y)
    assert Fraction(t, s) == stern_brocot_between(x, y), (x, y)
    assert run_length_first_pair(x, y) == (t, s), (x, y)
    assert is_first_rational_between(x, y, t, s), (x, y)


_huge_ends = st.one_of(
    st.integers(min_value=0, max_value=10**300),
    st.integers(min_value=0, max_value=10**150).map(lambda n: n * n),
)
_huge_intervals = st.one_of(
    st.tuples(_huge_ends, _huge_ends).filter(lambda e: e[0] != e[1]).map(sorted),
    # narrow intervals, with a square at the lower or the upper end
    st.tuples(_huge_ends, st.integers(min_value=1, max_value=100)).map(
        lambda e: (e[0], e[0] + e[1])
    ),
    st.tuples(_huge_ends, st.integers(min_value=1, max_value=100)).filter(
        lambda e: e[0] >= e[1]
    ).map(lambda e: (e[0] - e[1], e[0])),
)


@settings(max_examples=300, deadline=None)
@given(_huge_intervals)
def test_kernel_matches_run_length_descent(interval):
    x, y = interval
    assert first_pair_between(x, y) == run_length_first_pair(x, y), (x, y)


def test_kernel_edge_intervals():
    assert first_pair_between(0, 1) == (1, 2)
    assert first_pair_between(0, 2) == (1, 1)
    assert first_pair_between(4, 9) == (5, 2)
    assert first_pair_between(1, 16) == (2, 1)
    for bad in [(5, 5), (9, 2), (-1, 4), (0, -1)]:
        with pytest.raises(ValueError):
            first_pair_between(*bad)


def test_certificate_rejects_wrong_answers():
    # first_rational_between(991, 992) == 850/27
    assert is_first_rational_between(991, 992, 850, 27)
    for t, s in [(1700, 54), (851, 27), (850, 28), (63, 2), (32, 1), (0, 1), (850, 0)]:
        assert not is_first_rational_between(991, 992, t, s), (t, s)
    # inside, but not of least denominator: the interval also holds 3/2
    assert Fraction(8, 5) ** 2 < 3 and not is_first_rational_between(2, 3, 8, 5)
    # several integers inside: only the smallest is first
    assert is_first_rational_between(0, 9, 1, 1)
    assert not is_first_rational_between(0, 9, 2, 1)
