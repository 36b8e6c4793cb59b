"""Exact integer and surd arithmetic against independent numeric oracles."""

from math import floor, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdenom.exactmath import (
    Surd,
    is_perfect_square,
    surd_cmp,
)

from conftest import cmp_int_vs_sum_sqrt, dec_surd_value, dec_sqrt, floor_surd


def test_isqrt_spot_values():
    assert isqrt(0) == 0
    assert isqrt(1) == 1
    assert isqrt(3) == 1
    assert isqrt(2889756) == 1699
    assert isqrt(2890000) == 1700


def test_isqrt_brackets_every_small_value():
    for n in range(0, 20000):
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


@given(st.integers(min_value=0, max_value=10**40))
def test_isqrt_brackets_large_values(n):
    r = isqrt(n)
    assert r * r <= n < (r + 1) * (r + 1)


def test_is_perfect_square():
    assert is_perfect_square(0) == 0
    assert is_perfect_square(1) == 1
    assert is_perfect_square(4) == 2
    assert is_perfect_square(2890000) == 1700
    assert is_perfect_square(2) is None
    assert is_perfect_square(8) is None
    assert is_perfect_square(2889999) is None
    assert is_perfect_square(-4) is None


def test_surd_forms_compare_by_value():
    # a perfect-square radicand, a square factor in the radicand and a
    # common factor all leave the value, and so equality, unchanged
    assert Surd(2, 1, 9, 5) == Surd(1)
    assert Surd(0, 1, 8) == Surd(0, 2, 2)
    assert Surd(4, 2, 18, 6) == Surd(2, 3, 2, 3)
    assert Surd(6, 0, 0, 4) == Surd(3, 0, 0, 2)


def test_surd_validation():
    with pytest.raises(ValueError):
        Surd(1, 0, 0, 0)
    with pytest.raises(ValueError):
        Surd(1, 0, 0, -2)
    with pytest.raises(ValueError):
        Surd(1, -1, 2)
    with pytest.raises(ValueError):
        Surd(1, 1, -2)


def test_surd_is_not_hashable():
    with pytest.raises(TypeError):
        hash(Surd(1))


def test_surd_repr_and_infinity():
    assert repr(Surd(5)) == "Surd(5)"
    assert repr(Surd(1, 0, 0, 2)) == "Surd(1/2)"
    assert repr(Surd(3, 1, 8)) == "Surd((3+1*sqrt(8))/1)"


def test_floor_surd_examples():
    assert floor_surd(Surd(2, 1, 9, 5)) == 1
    assert floor_surd(Surd(3, 1, 8)) == 5
    assert floor_surd(Surd(0, 2, 2)) == 2
    assert floor_surd(Surd(0, 1, 2)) == 1
    assert floor_surd(Surd(7)) == 7
    # negative integer part rounds toward minus infinity
    assert floor_surd(Surd(-7, 1, 2, 3)) == -2


@given(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=1000),
)
def test_floor_surd_bracket(p, q, d, r):
    # f*r <= p + q*sqrt(d) < (f+1)*r, checked in pure integers
    f = floor_surd(Surd(p, q, d, r))
    lo = f * r - p
    assert lo <= 0 or lo * lo <= q * q * d
    hi = (f + 1) * r - p
    assert hi > 0 and hi * hi > q * q * d


@settings(max_examples=300)
@given(
    st.integers(min_value=-(10**5), max_value=10**5),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=10**5),
    st.integers(min_value=1, max_value=500),
)
def test_floor_surd_matches_decimal(p, q, d, r):
    assert floor_surd(Surd(p, q, d, r)) == floor(dec_surd_value(p, q, d, r))


def test_surd_cmp_examples():
    assert surd_cmp(Surd(0, 1, 8), Surd(0, 2, 2)) == 0
    assert surd_cmp(Surd(3, 2, 2), Surd(6)) == -1
    assert surd_cmp(Surd(1, 1, 2, 2), Surd(2)) == -1
    assert surd_cmp(Surd(0, 1, 3), Surd(0, 1, 2)) == 1
    assert surd_cmp(Surd(-1, 1, 2), Surd(1, 0, 0, 2)) == -1
    assert surd_cmp(Surd(5), Surd(5)) == 0


def test_surd_comparison_operators():
    assert Surd(0, 1, 8) == Surd(0, 2, 2)
    assert Surd(1, 1, 2, 2) < Surd(2)
    assert Surd(2) > Surd(1, 1, 2, 2)
    assert Surd(3) <= Surd(3) <= Surd(0, 1, 10)
    assert Surd(3) != Surd(0, 1, 10)
    vals = [Surd(3, 2, 2), Surd(0), Surd(0, 1, 2), Surd(5), Surd(1, 1, 2, 2)]
    assert sorted(vals) == [vals[1], vals[4], vals[2], vals[3], vals[0]]


_small_surds = st.builds(
    Surd,
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=1, max_value=20),
)


@settings(max_examples=400)
@given(_small_surds, _small_surds)
def test_surd_cmp_antisymmetric_and_matches_decimal(x, y):
    c = surd_cmp(x, y)
    assert c == -surd_cmp(y, x)
    assert surd_cmp(x, x) == 0
    vx = dec_surd_value(x.p, x.q, x.d, x.r, prec=60)
    vy = dec_surd_value(y.p, y.q, y.d, y.r, prec=60)
    diff = vx - vy
    # distinct values at these sizes differ by far more than 1e-30
    if abs(diff) < 10**-30:
        assert c == 0
    else:
        assert c == (1 if diff > 0 else -1)


def test_cmp_int_vs_sum_sqrt_examples():
    # sqrt(8) + sqrt(9) = 5.828...
    assert cmp_int_vs_sum_sqrt(6, 1, 8) == 1
    assert cmp_int_vs_sum_sqrt(5, 1, 8) == -1
    # sqrt(2) + sqrt(3) = 3.146...
    assert cmp_int_vs_sum_sqrt(3, 1, 2) == -1
    assert cmp_int_vs_sum_sqrt(4, 1, 2) == 1
    assert cmp_int_vs_sum_sqrt(12, 2, 8) == 1
    assert cmp_int_vs_sum_sqrt(11, 2, 8) == -1
    assert cmp_int_vs_sum_sqrt(0, 1, 1) == -1


def test_cmp_int_vs_sum_sqrt_validation():
    with pytest.raises(ValueError):
        cmp_int_vs_sum_sqrt(5, 1, 0)
    with pytest.raises(ValueError):
        cmp_int_vs_sum_sqrt(5, 0, 8)
    with pytest.raises(ValueError):
        cmp_int_vs_sum_sqrt(-1, 1, 8)


@settings(max_examples=300)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=1, max_value=10**6),
)
def test_cmp_int_vs_sum_sqrt_matches_decimal(s, k, a):
    diff = s - k * (dec_sqrt(a, 60) + dec_sqrt(a + 1, 60))
    # the sum of roots is irrational, so the sign is never ambiguous
    assert cmp_int_vs_sum_sqrt(s, k, a) == (1 if diff > 0 else -1)
