"""Continued fractions of square roots and the first rational in an interval.

sqrt(d) has the periodic expansion [a0; p1, ..., pk, p1, ...] computed by the
classical (m, den) recurrence; the period ends at the first partial quotient
equal to 2*a0.

_first_pair_in_frame is the one route to the first rational in an interval
(sqrt(x), sqrt(y)) with no integer inside: given the floor n = isqrt(x)
that both roots share, it enters the simplest-rational recursion past its
first level.  sigma and every sweep row enter it with (x, y) = (a, a+1),
and first_rational_between whenever n + 1 lies outside.  The recursion: if
the least integer above the lower end lies below the upper end, that
integer is the answer; otherwise both ends share their integer part, which
becomes the next partial quotient, and the search continues on the
reciprocals of the fractional parts.  Each endpoint stays an exact
(p + sqrt(d))/r, with d = 0 for a rational end, so every level costs one
floor and one exact sign test on integers of O(log d) bits.  Convergent
denominators grow at least like Fibonacci numbers, so the depth is
O(log s); for (sqrt(a), sqrt(a+1)) that is O(log a), and 2-3 levels on the
families n^2, n^2-1, n^2+n-1 and n^2+7.  It takes back the last convergent
too, one Stern-Brocot parent of the answer, which certifies it
(_parents_outside) with no modular inverse.  Stern-Brocot mediant descent,
one step per mediant and so O(sqrt(a)) along the integer spine, is the
independent oracle and lives in the tests.  sqrt_cf builds a whole period,
which can have about sqrt(d) terms, and serves direct expansion queries
only.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .exactmath import isqrt

if TYPE_CHECKING:
    from fractions import Fraction

# The most period terms sqrt_cf builds: a period can have about sqrt(d) terms,
# and 10^6 of them take about a third of a second, at d near 10^12.
SQRT_CF_MAX_TERMS = 10**6

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
    partial quotient equal to 2*a0, or raises ValueError past
    SQRT_CF_MAX_TERMS terms.
    """
    if d < 1:
        raise ValueError("radicand must be >= 1")
    a0 = isqrt(d)
    if a0 * a0 == d:
        return CFExpansion(a0, ())
    body = []
    m, den, a = 0, 1, a0
    for _ in range(SQRT_CF_MAX_TERMS):
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        body.append(a)
        if a == 2 * a0:
            return CFExpansion(a0, tuple(body))
    raise ValueError(f"the period of sqrt({d}) has over {SQRT_CF_MAX_TERMS} terms")


def _descend(lp, lr, ld, lu, hp, hr, hd, hu, t0, s0, t1, s1):
    """The simplest-rational recursion from the ends (lp + sqrt(ld))/lr <
    (hp + sqrt(hd))/hr, lu = isqrt(ld) and hu = isqrt(hd), and the
    convergents t0/s0 and t1/s1 taken so far.  Returns (t, s, t1, s1): the
    answer and the last convergent.  t/s = (m*t1 + t0)/(m*s1 + s0) with
    m >= 1, so t*s1 - s*t1 = t0*s1 - s0*t1 = +-1 and 0 <= s1 <= s: t1/s1 is
    one Stern-Brocot parent of t/s.
    """
    while True:
        fl = (lp + lu) // lr  # exact floor: no integer in (p + u, p + sqrt(d)]
        # hi - fl = (ph + sqrt(hd))/hr, and fl + 1 lies below hi iff
        # k + sqrt(hd) > 0 with k = ph - hr: the exact sign test of
        # exactmath._sign_linear(k, 1, hd), written out
        ph = hp - fl * hr
        k = ph - hr
        if (k > 0) if hd == 0 else (k >= 0 or hd > k * k):
            m = fl + 1
            return m * t1 + t0, m * s1 + s0, t1, s1
        t0, t1 = t1, fl * t1 + t0
        s0, s1 = s1, fl * s1 + s0
        # Both ends step to 1/(end - fl) and swap, so the new lower end
        # comes from hi.  A rational end p/r steps to r/(p - fl*r), as in
        # Euclid's algorithm; at end == fl that is r/0 with r > 0, which
        # the sign test above passes (k = r > 0), so it stands for
        # +infinity and is never floored: it only ever becomes the upper
        # end.  An irrational end (p + sqrt(d))/r with P = p - fl*r steps
        # to (-P + sqrt(d))/R with R = (d - P^2)/r.  The division is exact
        # because r divides d - p^2, and R > 0 because
        # -sqrt(d) < P < sqrt(d): the end exceeds fl, and p < sqrt(d)
        # holds from the start on.  Both invariants carry over to (-P, R),
        # so |p| < sqrt(d) and r < 2*sqrt(d) throughout.
        pl = lp - fl * lr
        if ld:
            pl, rl = -pl, (ld - pl * pl) // lr
        else:
            pl, rl = lr, pl
        if hd:
            lp, lr = -ph, (hd - ph * ph) // hr
        else:
            lp, lr = hr, ph
        hp, hr = pl, rl
        ld, lu, hd, hu = hd, hu, ld, lu


def first_pair_between(x_radicand: int, y_radicand: int) -> tuple[int, int]:
    """(t, s) with t/s the smallest-denominator rational in (sqrt(x), sqrt(y)).

    Denominator ties (possible only among integers) resolve to the smaller
    numerator.  t and s are coprime.  One isqrt gives n = isqrt(x): n + 1
    is the answer if it lies inside, and otherwise the kernel is entered in
    n's frame.  Every floor is isqrt arithmetic and every comparison an
    exact sign test, so no float is consulted.
    """
    x, y = x_radicand, y_radicand
    if x < 0 or y < 0:
        raise ValueError("radicands must be nonnegative")
    if x >= y:
        raise ValueError("empty interval: need x < y")
    n = isqrt(x)
    m = n + 1
    if m * m < y:  # m is the least integer above sqrt(x)
        return m, 1
    nn = n * n
    return _first_pair_in_frame(x, y, n, x - nn, y - nn)[:2]


def _first_pair_in_frame(x: int, y: int, n: int, rx: int, ry: int) -> tuple[int, int, int, int]:
    """(t, s, p, q) for (sqrt(x), sqrt(y)) with n = isqrt(x) and
    x < y <= (n+1)^2, in the frame rx = x - n^2, ry = y - n^2: the first
    rational t/s and the last convergent p/q, one Stern-Brocot parent of it.

    No integer lies inside, so the first level takes the floor n and leaves
    the ends 1/(sqrt(y) - n) = (n + sqrt(y))/ry and 1/(sqrt(x) - n) =
    (n + sqrt(x))/rx with the convergents n/1 and 1/0.  The descent starts
    there, with no isqrt and no first level.  At y = (n+1)^2 (ry = 2n + 1)
    the lower end is exactly 1/1, and at x = n^2 (rx = 0) the upper end is
    1/0, +infinity; (0, 1) is both, and gives 1/2 with parent 0/1.
    """
    lp = lu = hp = hu = n
    if ry > n + n:  # y = (n+1)^2: the lower end is 1/1
        lp, ry, y, lu = 1, 1, 0, 0
    if not rx:  # x = n^2: the upper end is 1/0
        hp, x, hu = 1, 0, 0
    return _descend(lp, ry, y, lu, hp, rx, x, hu, 1, 0, n, 1)


def first_rational_between(x_radicand: int, y_radicand: int) -> Fraction:
    """Smallest-denominator rational in the open interval (sqrt(x), sqrt(y)).

    Denominator ties (possible only among integers) resolve to the smaller
    numerator.  Either endpoint radicand may be a perfect square.
    """
    import fractions  # a plain import: "from ... import" costs about 1 us a call

    return fractions.Fraction(*first_pair_between(x_radicand, y_radicand))


def stern_brocot_between(x_radicand: int, y_radicand: int) -> Fraction:
    """first_rational_between under the name bench/spans.py traces.

    It exists only for that lookup; the benchmark change that drops the
    name from SPANNED deletes it.  The mediant descent is a test oracle.
    """
    return first_rational_between(x_radicand, y_radicand)


def is_first_rational_between(x_radicand: int, y_radicand: int, t: int, s: int) -> bool:
    """Whether t/s is what first_rational_between(x, y) must return.

    Stern-Brocot certificate in O(log s) (_parents_outside), with the left
    parent (t*b - 1)/s over b = t^-1 mod s (b = 1 when s = 1).
    """
    if t < 1 or s < 1 or gcd(t, s) != 1:
        return False
    b = pow(t, -1, s) if s > 1 else 1
    return _parents_outside(x_radicand, y_radicand, t, s, (t * b - 1) // s, b)


def _parents_outside(dx: int, dy: int, t: int, s: int, p: int, q: int) -> bool:
    """Whether t/s lies strictly inside (sqrt(dx), sqrt(dy)) and p/q is one
    of its Stern-Brocot parents with both parents outside: then t/s is
    first_rational_between(dx, dy).

    p/q is a parent when t*q - s*p = +-1 and 0 <= q <= s; the other parent
    is (t - p)/(s - q), and the one of sign +1 is on the left.  Two
    fractions L < R with det 1 are Farey neighbours: every rational
    strictly between them is (i*L + j*R) over i*L_q + j*R_q, with i, j >= 1
    (Concrete Mathematics, 4.5).  So with both parents outside, every
    rational inside other than t/s has a denominator above s.  A parent
    with q = 0 is 1/0 on the right, which leaves t the smallest integer
    inside, or -1/0 on the left, which fails the left test.  For s >= 2 the
    q that pass are b and s - b with b = t^-1 mod s, so this is the test
    is_first_rational_between makes with its own parent.
    """
    if t < 1 or s < 1 or not 0 <= q <= s:
        return False
    det = t * q - s * p
    if det == 1:
        lp, lq, rp, rq = p, q, t - p, s - q
    elif det == -1:
        lp, lq, rp, rq = t - p, s - q, p, q
    else:
        return False
    ss = s * s
    return (dx * ss < t * t < dy * ss
            and lp * lp <= dx * lq * lq and rp * rp >= dy * rq * rq)
