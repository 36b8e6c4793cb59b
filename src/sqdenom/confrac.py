"""Continued fractions of square roots and the first rational in an interval.

sqrt(d) has the periodic expansion [a0; p1, ..., pk, p1, ...] computed by the
classical (m, den) recurrence; the period ends at the first partial quotient
equal to 2*a0.

first_pair_between is the one runtime route to the smallest-denominator
rational in an open interval (sqrt(x), sqrt(y)).  It runs the
simplest-rational recursion: if the least integer above the lower end lies
below the upper end, that integer is the answer; otherwise both ends share
their integer part, which becomes the next partial quotient, and the search
continues on the reciprocals of the fractional parts.  Each endpoint stays
an exact (p + sqrt(d))/r, with d = 0 for a square end, so every level costs
one floor and one exact sign test on integers of O(log d) bits.  Convergent
denominators grow at least like Fibonacci numbers, so the depth is
O(log s); for (sqrt(a), sqrt(a+1)) that is O(log a), and 2-3 levels on the
families n^2, n^2-1, n^2+n-1 and n^2+7.  Stern-Brocot mediant descent, one
step per mediant and so O(sqrt(a)) along the integer spine, is the
independent oracle and lives in the tests.  sqrt_cf builds a whole period,
which can have about sqrt(d) terms, and serves direct expansion queries
only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .exactmath import _sign_linear, isqrt

__all__ = [
    "CFExpansion",
    "sqrt_cf",
    "first_pair_between",
    "first_rational_between",
    "is_first_rational_between",
]


class CFExpansion(NamedTuple):
    """[a0; body] with the body repeating forever.

    A perfect-square radicand yields the finite expansion [a0] with an
    empty body; every other expansion is periodic.
    """

    a0: int
    body: tuple[int, ...]

    @property
    def periodic(self) -> bool:
        return bool(self.body)

    def __str__(self) -> str:
        if not self.body:
            return f"[{self.a0}]"
        inner = ", ".join(str(t) for t in self.body)
        return f"[{self.a0}; ({inner})]"


def sqrt_cf(d: int) -> CFExpansion:
    """Continued fraction of sqrt(d).

    m' = den*a - m, den' = (d - m'^2)/den, a' = (a0 + m')//den'; all
    divisions are exact.  Every complete quotient (m + sqrt(d))/den after
    the first is reduced, so 0 < m <= a0 and sqrt(d) - m < den; hence
    a = 2*a0 exactly when den = 1 (which forces m = a0), and a <= a0
    otherwise.  den = 1 happens exactly at the end of each period
    (Khinchin, Continued Fractions), so the walk stops after the first
    partial quotient equal to 2*a0.
    """
    if d < 1:
        raise ValueError("radicand must be >= 1")
    a0 = isqrt(d)
    if a0 * a0 == d:
        return CFExpansion(a0, ())
    body = []
    m, den, a = 0, 1, a0
    while a != 2 * a0:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        body.append(a)
    return CFExpansion(a0, tuple(body))


def _root(d: int) -> tuple[int, int, int, int]:
    """sqrt(d) as an endpoint (p, r, d, isqrt(d)) worth (p + sqrt(d))/r.

    A perfect square folds into the rational (root, 1, 0, 0), so a nonzero
    d always carries an irrational root.
    """
    u = isqrt(d)
    if u * u == d:
        return (u, 1, 0, 0)
    return (0, 1, d, u)


def _reciprocal(e: tuple[int, int, int, int], fl: int):
    """1/(e - fl) for an endpoint e >= fl.

    A rational end p/r steps to r/(p - fl*r), as in Euclid's algorithm; at
    e == fl that is r/0 with r > 0, which the sign test in
    first_pair_between ranks above every integer, so it stands for
    +infinity and is never floored (it only ever becomes the upper end).  An
    irrational end (p + sqrt(d))/r with P = p - fl*r steps to
    (-P + sqrt(d))/R with R = (d - P^2)/r: the division is exact because r
    divides d - p^2, and R > 0 because -sqrt(d) < P < sqrt(d) (the end
    exceeds fl, and p < sqrt(d) holds from the start on).  Both invariants
    carry over to (-P, R), so |p| < sqrt(d) and r < 2*sqrt(d) throughout.
    """
    p, r, d, u = e
    p -= fl * r
    if d == 0:
        return (r, p, 0, 0)
    return (-p, (d - p * p) // r, d, u)


def first_pair_between(x_radicand: int, y_radicand: int) -> tuple[int, int]:
    """(t, s) with t/s the smallest-denominator rational in (sqrt(x), sqrt(y)).

    Denominator ties (possible only among integers) resolve to the smaller
    numerator.  t and s are coprime.  Every floor is isqrt arithmetic and
    every comparison an exact sign test, so no float is consulted.
    """
    dx, dy = x_radicand, y_radicand
    if dx < 0 or dy < 0:
        raise ValueError("radicands must be nonnegative")
    if dx >= dy:
        raise ValueError("empty interval: need x < y")
    lo, hi = _root(dx), _root(dy)
    # convergent recurrence seeds: t_{-2}/s_{-2} = 0/1, t_{-1}/s_{-1} = 1/0
    t0, s0, t1, s1 = 0, 1, 1, 0
    while True:
        p, r, _d, u = lo
        fl = (p + u) // r  # as in floor_surd: no integer in (p + u, p + sqrt(d)]
        m = fl + 1
        if _sign_linear(hi[0] - m * hi[1], 1, hi[2]) > 0:
            return m * t1 + t0, m * s1 + s0
        t0, t1 = t1, fl * t1 + t0
        s0, s1 = s1, fl * s1 + s0
        lo, hi = _reciprocal(hi, fl), _reciprocal(lo, fl)


def first_rational_between(x_radicand: int, y_radicand: int) -> Fraction:
    """Smallest-denominator rational in the open interval (sqrt(x), sqrt(y)).

    Denominator ties (possible only among integers) resolve to the smaller
    numerator.  Either endpoint radicand may be a perfect square.
    """
    return Fraction(*first_pair_between(x_radicand, y_radicand))


def stern_brocot_between(x_radicand: int, y_radicand: int) -> Fraction:
    """first_rational_between under the name bench/spans.py traces.

    It exists only for that lookup; the benchmark change that drops the
    name from SPANNED deletes it.  The mediant descent is a test oracle.
    """
    return first_rational_between(x_radicand, y_radicand)


def is_first_rational_between(x_radicand: int, y_radicand: int, t: int, s: int) -> bool:
    """Whether t/s is what first_rational_between(x, y) must return.

    Stern-Brocot certificate in O(log s): t/s lies strictly inside
    (sqrt(x), sqrt(y)) and both of its Stern-Brocot parents lie outside.
    The left parent is (t*b - 1)/s over b = t^-1 mod s (b = 1 when s = 1),
    the right one (t - that)/(s - b).  Every rational strictly between the
    parents other than t/s has a denominator above s, and for s = 1 the
    left parent t - 1 being outside makes t the smallest integer inside.
    """
    dx, dy = x_radicand, y_radicand
    if t < 1 or s < 1 or gcd(t, s) != 1:
        return False
    if not dx * s * s < t * t < dy * s * s:
        return False
    b = pow(t, -1, s) if s > 1 else 1
    a = (t * b - 1) // s
    c, d = t - a, s - b
    return a * a <= dx * b * b and c * c >= dy * d * d
