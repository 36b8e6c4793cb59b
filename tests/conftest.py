"""Shared numeric oracles for the test suite.

These deliberately avoid the library's own code paths: decimal square
roots at high precision for sign checks, a plain denominator-first scan
for minimal fractions, a t-by-t walk for witness counts, a square-twice
integer test for s against k*(sqrt(a) + sqrt(a+1)), convergents
folded from the partial quotients of an expansion, a per-(a, k) scan
for the first witness-count decrement, a per-k scan of the zero
windows that compares every window's ends, plain and run-length
Stern-Brocot descents for the first rational between two square roots,
a sweep row built value by value from the public point functions,
per-a off-bound and curve-index walks over sigma, sigma_lower and min_k,
a symmetry walk that compares two point sigma calls per offset,
the curve index in closed form from two isqrt calls,
a checked tau profile over s, and the bounding curves sigma_l and sigma_r
as exact surds with the surd floor that sigma_k is checked against.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import cycle, islice
from math import isqrt
from typing import NamedTuple

from sqdenom.analysis import SweepRecord
from sqdenom.exactmath import Surd, surd_cmp
from sqdenom.sigmacore import (
    ConsistencyError,
    ZeroWindow,
    certified_first_pair,
    min_k,
    sigma,
    sigma_k,
    sigma_lower,
    sigma_upper,
    tau,
)


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


def sweep_record(a):
    """Oracle for one sweep row, a >= 1: each value from its own point
    function, each working out a's frame afresh.  The pair is the certified
    kernel's, sigma_1 and the upper bound come from sigma_lower and
    sigma_upper, and the curve index is the closed form's candidate, kept
    only when sigma_k shows it to be the least k on sigma's curve."""
    t, s = certified_first_pair(a)
    s1 = sigma_lower(a)
    upper = sigma_upper(a)
    if not s1 <= s <= upper:
        raise ConsistencyError(f"bounds violated at a={a}")
    k = closed_form_curve_index(a, s)
    if not (k == 1 or sigma_k(a, k - 1) < s):
        raise ConsistencyError(f"no curve index k <= {s} matches sigma({a})")
    return SweepRecord(a, s, s1, upper, s == s1, k, t)


def closed_form_curve_index(a, s):
    """min_k(a) in closed form from s = sigma(a), checked by one sigma_k: with j = s - 1,
    k*sigma_l(a) = k/(sqrt(a+1) - n) and k*sigma_r(a) = k/(m - sqrt(a)), so
    the least k whose larger floor reaches j is
    min(ceil(j*sqrt(a+1)) - j*n, j*m - floor(j*sqrt(a))), two isqrt calls
    (ceil(sqrt(X)) = isqrt(X - 1) + 1 for X >= 1).  That k has
    sigma_k(a) >= s and sigma_k(a, k-1) < s, so it is the one match exactly
    when sigma_k(a, k) = s.  s < 2 leaves no curve (sigma_k >= k + 1 >= 2)
    and would give isqrt(-1) at j = 0."""
    if s >= 2:
        n, j = isqrt(a), s - 1
        k = min(isqrt(j * j * (a + 1) - 1) + 1 - j * n, j * (n + 1) - isqrt(j * j * a))
        if k >= 1 and sigma_k(a, k) == s:
            return k
    raise ConsistencyError(f"no curve index k <= {s} matches sigma({a})")


def off_bound_points_walk(a_from, a_to):
    """Oracle for off_bound_points: sigma(a) against sigma_lower(a), one
    point call each per a."""
    out = []
    for a in range(a_from, a_to + 1):
        s = sigma(a)
        if s > sigma_lower(a):
            out.append((a, s))
    return out


def symmetry_walk(n_min, n_max, d_max=None, full_range=False):
    """Oracle for symmetry_report's per_n: trough n compares sigma(n(n+1) - d)
    with sigma(n(n+1) + d) for each offset d, two point sigma calls each,
    up to min(d_max, n), n by default, or to n(n+1) - 1 with full_range."""
    per_n = []
    for n in range(n_min, n_max + 1):
        center = n * (n + 1)
        dm = center - 1 if full_range else n if d_max is None else min(d_max, n)
        h = sum(1 for d in range(1, dm + 1) if sigma(center - d) == sigma(center + d))
        per_n.append({"n": n, "center": center, "matches": h, "comparisons": dm})
    return per_n


def k_set_walk(n):
    """Oracle for k_set: min_k's O(k) walk for each n^2 < a < (n+1)^2."""
    return {min_k(a) for a in range(n * n + 1, (n + 1) ** 2)}


class TauProfile(NamedTuple):
    """tau(a, s) for s = 1..s_max, as tau_profile checked it."""

    a: int
    counts: tuple[int, ...]


def tau_profile(a, s_max):
    """tau(a, s) for s = 1..s_max, checked to step by at most 1 and to enter at 1.

    The count before s = 1 is taken as 0, so a first positive count above 1
    is a jump of at least 2, and the step check alone covers the entry.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    counts = tuple(tau(a, s) for s in range(1, s_max + 1))
    for s, (prev, cur) in enumerate(zip((0,) + counts, counts), start=1):
        if abs(cur - prev) > 1:
            raise ValueError(f"tau jump at a={a}, s={s}")
    return TauProfile(a, counts)


def floor_surd(x):
    """floor((p + q*sqrt(d))/r), computed exactly.

    With u = isqrt(q*q*d) write the value as (p + u + theta)/r for some
    theta in [0, 1).  p + u is an integer and the interval (p+u, p+u+theta]
    contains no integer, hence no multiple of r either, so the floor equals
    (p + u) // r.
    """
    return (x.p + isqrt(x.q * x.q * x.d)) // x.r


def sigma_l(a):
    """(n + sqrt(a+1)) / (b+1): the left crowding threshold, always finite."""
    n = isqrt(a)
    return Surd(n, 1, a + 1, a - n * n + 1)


def sigma_r(a):
    """(m + sqrt(a)) / c: the right crowding threshold, always finite."""
    m = isqrt(a) + 1
    return Surd(m, 1, a, m * m - a)
