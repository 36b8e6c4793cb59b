"""Shared numeric oracles for the test suite.

These deliberately avoid the library's own code paths: decimal square
roots at high precision for sign checks, a plain denominator-first scan
for minimal fractions, a t-by-t walk for witness counts, a square-twice
integer test for s against k*(sqrt(a) + sqrt(a+1)), convergents
folded from the partial quotients of an expansion, a per-(a, k) scan
for the first witness-count decrement, a per-k scan of the zero
windows that compares every window's ends, plain and run-length
Stern-Brocot descents for the first rational between two square roots,
and the closed form of the least curve index.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import cycle, islice
from math import isqrt

from sqdenom.exactmath import Surd, surd_cmp
from sqdenom.sigmacore import ZeroWindow


def dec_sqrt(n, prec=80):
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(n).sqrt()


def dec_surd_value(p, q, d, r, prec=80):
    with localcontext() as ctx:
        ctx.prec = prec
        return (Decimal(p) + Decimal(q) * Decimal(d).sqrt()) / Decimal(r)


def brute_first_rational(x_rad, y_rad, s_limit=10000):
    """First fraction in (sqrt(x_rad), sqrt(y_rad)) by denominator, then
    numerator.  The first hit is automatically in lowest terms."""
    for s in range(1, s_limit + 1):
        lo = x_rad * s * s
        hi = y_rad * s * s
        t = isqrt(lo) + 1
        if t * t < hi:
            return Fraction(t, s)
    raise AssertionError(f"no fraction below denominator {s_limit}")


def stern_brocot_between(x_radicand, y_radicand):
    """Mediant descent to the first fraction inside (sqrt(x), sqrt(y)).

    Each branch decision compares the mediant p/q against an endpoint
    exactly via p*p versus d*q*q.  The first mediant strictly inside the
    interval is the unique minimal-denominator fraction, except along the
    integer spine where it is the smallest integer in the interval.  One
    step per mediant, so O(sqrt(x)) steps along that spine.
    """
    dx, dy = x_radicand, y_radicand
    if dx < 0 or dy < 0:
        raise ValueError("radicands must be nonnegative")
    if dx >= dy:
        raise ValueError("empty interval: need x < y")
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 0
    while True:
        p, q = lo_n + hi_n, lo_d + hi_d
        if p * p <= dx * q * q:
            lo_n, lo_d = p, q
        elif p * p >= dy * q * q:
            hi_n, hi_d = p, q
        else:
            return Fraction(p, q)


def tau_brute(a, s):
    """Oracle for tau: walk t upward, both strictness checks explicit."""
    if a < 0:
        raise ValueError("a must be >= 0")
    if s < 1:
        raise ValueError("s must be >= 1")
    lo = s * s * a
    hi = s * s * (a + 1)
    t = isqrt(lo) + 1
    count = 0
    while t * t < hi:
        if t * t > lo:
            count += 1
        t += 1
    return count


def first_decrement(a, k, s_max):
    """Oracle for one conjecture1_search entry: the smallest s <= s_max with
    tau(a, s) = k and tau(a, s+1) = k-1, scanning from s = 1 for this k
    alone; None when there is none."""
    prev = tau_brute(a, 1)
    for s in range(1, s_max + 1):
        cur = tau_brute(a, s + 1)
        if prev == k and cur == k - 1:
            return s
        prev = cur
    return None


def cmp_int_vs_sum_sqrt(s, k, a):
    """Exact sign of s - k*(sqrt(a) + sqrt(a+1)).

    Never zero: a*a + a lies strictly between consecutive squares for
    a >= 1, so the sum of roots is irrational.  Squaring once reduces the
    question to s*s versus k*k*(2a+1) + 2*k*k*sqrt(a*a+a); squaring again
    settles it in integers.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if s < 0:
        raise ValueError("s must be nonnegative")
    lhs = s * s - k * k * (2 * a + 1)
    if lhs <= 0:
        return -1
    return 1 if lhs * lhs > 4 * k**4 * (a * a + a) else -1


def convergent(cf, j):
    """p_j/q_j of a CFExpansion from its first j+1 partial quotients,
    walking a periodic body cyclically (coprime by construction)."""
    if j < 0:
        raise IndexError("convergent index must be nonnegative")
    if not cf.periodic and j > len(cf.body):
        raise IndexError("convergent index beyond a finite expansion")
    p_prev, q_prev = 1, 0
    p, q = cf.a0, 1
    for t in islice(cycle(cf.body), j):
        p, p_prev = t * p + p_prev, p
        q, q_prev = t * q + q_prev, q
    return Fraction(p, q)


def zero_windows_scan(a, k_max):
    """Oracle for zero_windows: build both ends of every (k, side) window
    for k <= k_max and keep those with lo <= hi, left before right."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    n = isqrt(a)
    b = a - n * n
    m = n + 1
    c = m * m - a
    zero = Surd(0)
    sides = (
        ("left-crowding", n, a, b, a + 1, b + 1),
        ("right-crowding", m, a + 1, c - 1, a, c),
    )
    out = []
    for k in range(k_max + 1):
        for side, base, rad_lo, den_lo, rad_hi, den_hi in sides:
            if k == 0:
                lo = zero
            elif den_lo == 0:
                continue
            else:
                lo = Surd(k * base, k, rad_lo, den_lo)
            hi = Surd((k + 1) * base, k + 1, rad_hi, den_hi)
            if surd_cmp(lo, hi) <= 0:
                out.append(ZeroWindow(k, lo, hi, side))
    return out


def _last_true(pred):
    """Largest j >= 1 with pred(j), for pred true at 1 and true exactly on
    an initial run: double until it fails, then bisect."""
    lo, hi = 1, 2
    while pred(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def run_length_first_pair(x, y):
    """Oracle for first_pair_between: Stern-Brocot descent to the first
    mediant p/q strictly inside (sqrt(x), sqrt(y)), deciding each step by
    p^2 against x*q^2 or y*q^2 in integers.

    Consecutive equal turns add the same parent again and again, and the
    test stays true along a run and false after it, so each run is one
    doubling-then-bisection search.  The number of runs is the length of
    the answer's continued fraction, so the descent is logarithmic where
    plain mediant descent is O(sqrt(x)) along the integer spine.
    """
    if x < 0 or y <= x:
        raise ValueError("need 0 <= x < y")
    a, b, c, d = 0, 1, 1, 0  # lo = a/b, hi = c/d
    while True:
        p, q = a + c, b + d
        if p * p <= x * q * q:
            j = _last_true(lambda j: (a + j * c) ** 2 <= x * (b + j * d) ** 2)
            a, b = a + j * c, b + j * d
        elif p * p >= y * q * q:
            j = _last_true(lambda j: (c + j * a) ** 2 >= y * (d + j * b) ** 2)
            c, d = c + j * a, d + j * b
        else:
            return p, q

