"""Continued fractions and minimal-denominator search, cross-checked two ways."""

import sys
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqdenom import analysis, confrac, sigmacore
from sqdenom.confrac import (
    CFExpansion,
    _first_pair_in_frame,
    _parents_outside,
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


_N = 10**150  # the branch edges of the kernel's entry at about 10^300


@settings(max_examples=300, deadline=None)
@given(_huge_intervals)
@example((_N * _N, (_N + 1) ** 2))  # both ends rational: (2n + 1)/2
@example((_N * _N + 5, (_N + 1) ** 2))  # the lower end 1/1
@example((_N * _N + 5, (_N + 1) ** 2 + 1))  # the integer n + 1 inside
@example((0, 1))
def test_kernel_matches_run_length_descent(interval):
    x, y = interval
    assert first_pair_between(x, y) == run_length_first_pair(x, y), (x, y)


def test_kernel_edge_intervals():
    assert first_pair_between(0, 1) == (1, 2)
    assert first_pair_between(0, 2) == (1, 1)
    assert first_pair_between(4, 9) == (5, 2)
    assert first_pair_between(1, 16) == (2, 1)
    assert first_pair_between(_N * _N, (_N + 1) ** 2) == (2 * _N + 1, 2)
    assert first_pair_between(_N * _N + 5, (_N + 1) ** 2 + 1) == (_N + 1, 1)
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


def test_parents_outside_certifies_only_the_first_rational():
    # every (t, s, p, q) with s <= 6 on every interval of radicands up to
    # 10: it passes only for the first rational and a p/q with
    # t*q - s*p = +-1, and for s >= 2 for every such p/q; at s = 1 the
    # -1/0 on the left fails
    for y in range(1, 11):
        for x in range(y):
            want = first_pair_between(x, y)
            for s in range(1, 7):
                for t in range(1, 4 * s + 1):
                    for q in range(s + 1):
                        ps = range(-1, t + 2)
                        passed = {p for p in ps if _parents_outside(x, y, t, s, p, q)}
                        if (t, s) != want:
                            assert not passed, (x, y, t, s, q)
                            continue
                        parents = {p for p in ps if t * q - s * p in (1, -1)}
                        assert passed <= parents and (s == 1 or passed == parents), (
                            x, y, t, s, q)
            t, s = want
            b = pow(t, -1, s) if s > 1 else 1
            a = (t * b - 1) // s
            assert _parents_outside(x, y, t, s, a, b), (x, y)
            assert _parents_outside(x, y, t, s, t - a, s - b), (x, y)


# every a >= 0 up to 10^300, half of them at the edges n^2 + {0, 1, n - 1,
# n, 2n} of a square interval
_frame_a = st.one_of(
    st.integers(min_value=0, max_value=10**300),
    st.builds(lambda n, e: n * n + (0, 1, n - 1, n, 2 * n)[e],
              st.one_of(st.integers(min_value=1, max_value=1000),
                        st.integers(min_value=1, max_value=10**150)),
              st.integers(min_value=0, max_value=4)),
)


def _frame_interval(n, u, v):
    """(x, y) with n^2 <= x < y <= (n+1)^2 from any offsets u and v."""
    u %= 2 * n + 1
    return n * n + u, n * n + u + 1 + v % (2 * n + 1 - u)


# as u, offset 0 puts x at n^2; as v, -1 puts y at (n+1)^2
_offsets = st.one_of(st.sampled_from((0, 1, -1)), st.integers(min_value=0, max_value=10**301))
# every interval with no integer inside, up to 10^300: (a, a + 1), or
# any x < y in one frame n^2 <= x < y <= (n+1)^2
_frame_intervals = st.one_of(
    _frame_a.map(lambda a: (a, a + 1)),
    st.builds(_frame_interval,
              st.one_of(st.integers(min_value=0, max_value=1000),
                        st.integers(min_value=0, max_value=10**150)),
              _offsets, _offsets),
)


@settings(max_examples=300, deadline=None)
@given(_frame_intervals)
@example((0, 1))  # both ends rational: 1/1 below, 1/0 above
@example((1, 2))  # x = n^2, the upper end 1/0
@example((2, 3))  # n = 1, b = 1
@example((3, 4))  # y = m^2, the lower end 1/1
@example((5, 7))  # n = 2, both ends irrational
@example((4, 9))  # the whole frame: 5/2
@example((10**200, 10**200 + 1))  # x = n^2
@example((10**200 + 1, 10**200 + 2))  # b = 1
@example((10**200 + 2 * 10**100 - 1, 10**200 + 2 * 10**100))  # y = m^2 - 1
@example((10**200 + 2 * 10**100, 10**200 + 2 * 10**100 + 1))  # y = m^2
@example((10**200 + 3, 10**200 + 2 * 10**100 + 1))  # 1/1 below, x inside
def test_kernel_in_frame_hands_back_a_parent(interval):
    # entered past its first level, the kernel finds the run-length
    # oracle's pair, and its last convergent is one parent: both parents
    # certify it
    x, y = interval
    n = isqrt(x)
    assert x < y <= (n + 1) ** 2, interval
    t, s, p, q = _first_pair_in_frame(x, y, n, x - n * n, y - n * n)
    assert (t, s) == run_length_first_pair(x, y), interval
    assert t * q - s * p in (1, -1) and 0 <= q <= s, interval
    assert _parents_outside(x, y, t, s, p, q), interval
    assert _parents_outside(x, y, t, s, t - p, s - q), interval
    assert not _parents_outside(x, y, t + 1, s, p, q), interval


def test_first_rational_between_counts_its_work(monkeypatch):
    # one isqrt, for the floor n of sqrt(x), and one descent, or none when
    # n + 1 lies inside; and every descent the kernel's callers start comes
    # from one call site, in _first_pair_in_frame
    calls = Counter()
    sites = set()
    descend = confrac._descend

    def counted_descend(*args):
        caller = sys._getframe(1)
        sites.add((caller.f_code.co_name, caller.f_lineno))
        calls["descend"] += 1
        return descend(*args)

    def counted_isqrt(v):
        calls["isqrt"] += 1
        return isqrt(v)

    monkeypatch.setattr(confrac, "isqrt", counted_isqrt)
    monkeypatch.setattr(confrac, "_descend", counted_descend)
    n = _N
    cases = [(x, y) for y in range(1, 61) for x in range(y)] + [
        (n * n, (n + 1) ** 2), (n * n + 5, (n + 1) ** 2), (n * n + 5, (n + 1) ** 2 + 1),
        (n * n - 1, n * n), (n * n, n * n + 1), (n * n + 7, n * n + 8)]
    for x, y in cases:
        calls.clear()
        first_rational_between(x, y)
        assert calls["isqrt"] == 1, (x, y)
        assert calls["descend"] == (0 if (isqrt(x) + 1) ** 2 < y else 1), (x, y)
    for a in list(range(200)) + [n * n + e for e in (-1, 0, 1, n - 1, n, 2 * n)]:
        sigmacore.sigma(a)
        sigmacore.certified_first_pair(a)
    for a in range(200):
        sigmacore.min_k(a)
    list(analysis._sweep_rows(1, 300))
    list(analysis._sweep_rows(n * n - 2, n * n + 2))
    assert len(sites) == 1 and {name for name, _ in sites} == {"_first_pair_in_frame"}, sites
