"""Independent exact checks for the benchmark's outputs.

Nothing here imports sqdenom: every answer the library gives is re-derived
or certified with plain integer arithmetic (math.isqrt, Fraction), so a
bug shared by the library's routes cannot also hide in its check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def tau_count(a: int, s: int) -> int:
    """Number of integers t with s^2*a < t^2 < s^2*(a+1)."""
    return isqrt(s * s * (a + 1) - 1) - isqrt(s * s * a)


def witnesses(a: int, s: int) -> range:
    lo = isqrt(s * s * a) + 1
    return range(lo, lo + tau_count(a, s))


def upper_bound(a: int) -> int:
    """ceil(sqrt(a) + sqrt(a+1)): the largest integer below it squares under 4a+2."""
    return isqrt(4 * a + 2) + 1


def curve(a: int, k: int) -> int:
    """floor(max(k*(n + sqrt(a+1))/(b+1), k*(m + sqrt(a))/c)) + 1."""
    n = isqrt(a)
    b = a - n * n
    m = n + 1
    c = m * m - a
    left = (k * n + isqrt(k * k * (a + 1))) // (b + 1)
    right = (k * m + isqrt(k * k * a)) // c
    return max(left, right) + 1


def _sqrt_cf_terms(d: int):
    """Partial quotients of sqrt(d), generated lazily, for non-square d."""
    a0 = isqrt(d)
    yield a0
    m, q, t = 0, 1, a0
    while True:
        m = q * t - m
        q = (d - m * m) // q
        t = (a0 + m) // q
        yield t


def _simplest_between_irrational_roots(x: int, y: int) -> Fraction:
    """Smallest-denominator rational in (sqrt(x), sqrt(y)), x < y non-squares."""
    p_prev, q_prev, p, q = 0, 1, 1, 0
    for tx, ty in zip(_sqrt_cf_terms(x), _sqrt_cf_terms(y)):
        t = tx if tx == ty else min(tx, ty) + 1
        p, p_prev = t * p + p_prev, p
        q, q_prev = t * q + q_prev, q
        if tx != ty:
            return Fraction(p, q)
    raise AssertionError("unreachable: distinct irrationals differ")


def certify_first(a: int, t: int, s: int) -> bool:
    """Whether t/s is the smallest-denominator rational in (sqrt(a), sqrt(a+1)).

    t/s lies strictly inside, and its Stern-Brocot parents p/q < t/s < p'/q'
    (t*q - s*p = 1, p + p' = t, q + q' = s) lie outside or on the
    endpoints.  Every other fraction strictly between two Farey neighbours
    has a denominator above q + q' = s, so nothing simpler fits.
    """
    if s < 1 or t < 1 or gcd(t, s) != 1 or not (s * s * a < t * t < s * s * (a + 1)):
        return False
    if s == 1:
        p, q = t - 1, 1
    else:
        q = pow(t, -1, s)
        p = (t * q - 1) // s
    p2, q2 = t - p, s - q
    return p * p <= a * q * q and p2 * p2 >= (a + 1) * q2 * q2


def first_square(a: int) -> tuple[int, int]:
    """(t, s) of the first rational t/s with a < (t/s)^2 < a+1, certified."""
    n = isqrt(a)
    if n * n == a:
        t, s = 2 * n * n + n + 1, 2 * n + 1
    elif (n + 1) ** 2 == a + 1:
        t, s = 2 * a + 1, 2 * n + 2
    else:
        f = _simplest_between_irrational_roots(a, a + 1)
        t, s = f.numerator, f.denominator
    if not certify_first(a, t, s):
        raise AssertionError(f"oracle could not certify first square at a={a}")
    return t, s


def min_curve_index(a: int, s: int) -> int:
    """Least k >= 1 with curve(a, k) = s; k > s never matches."""
    for k in range(1, s + 1):
        if curve(a, k) == s:
            return k
    raise AssertionError(f"no curve index matches at a={a}")


def is_min_curve_index(a: int, s: int, k: int) -> bool:
    return k >= 1 and curve(a, k) == s and all(curve(a, j) != s for j in range(1, k))


def brute_sigma(a: int) -> int:
    """Denominator-first scan, the slow way."""
    s = 2
    while tau_count(a, s) == 0:
        s += 1
    return s


def sweep_row(a: int) -> list[int]:
    """One CSV row of `sqdenom sweep`, re-derived by brute force."""
    s = brute_sigma(a)
    s1 = curve(a, 1)
    return [a, s, s1, upper_bound(a), int(s == s1), min_curve_index(a, s), witnesses(a, s)[0]]


# Values u + sqrt(v) with rational u and v >= 0, for zero-window endpoints.

def _is_square_fraction(v: Fraction) -> bool:
    return isqrt(v.numerator) ** 2 == v.numerator and isqrt(v.denominator) ** 2 == v.denominator


def root_value(u: Fraction, v: Fraction) -> tuple[Fraction, Fraction]:
    """Canonical (u, v) for u + sqrt(v): a rational root folds into u."""
    if v and _is_square_fraction(v):
        return u + Fraction(isqrt(v.numerator), isqrt(v.denominator)), Fraction(0)
    return u, v


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sign_plus_root(c: Fraction, e: Fraction, w: Fraction) -> int:
    """Sign of c + e*sqrt(w), w >= 0."""
    if e == 0 or w == 0:
        return _sign(c)
    if c >= 0 and e > 0:
        return 1
    if c <= 0 and e < 0:
        return -1
    # opposite signs: compare c^2 with e^2*w
    return _sign(c) * _sign(c * c - e * e * w)


def root_cmp(x: tuple[Fraction, Fraction], y: tuple[Fraction, Fraction]) -> int:
    """Sign of (u1 + sqrt(v1)) - (u2 + sqrt(v2))."""
    (u1, v1), (u2, v2) = x, y
    d = u1 - u2
    # d + sqrt(v1) versus sqrt(v2) >= 0
    left = _sign_plus_root(d, Fraction(1), v1)
    if left < 0:
        return -1
    if left == 0:
        return -1 if v2 else 0
    # both sides nonnegative: compare squares, d^2 + v1 + 2d*sqrt(v1) - v2
    return _sign_plus_root(d * d + v1 - v2, 2 * d, v1)


def zero_window_values(a: int, k_max: int) -> list[tuple]:
    """(k, side, lo, hi) of every nonempty crowding window, endpoints as root_value pairs.

    Left crowding at offset k: k*(n + sqrt(a))/b <= s <= (k+1)*(n + sqrt(a+1))/(b+1);
    right crowding: k*(m + sqrt(a+1))/(c-1) <= s <= (k+1)*(m + sqrt(a))/c.
    The lower end is 0 at k = 0 and +infinity (window empty) when its
    denominator is 0.
    """
    n = isqrt(a)
    b = a - n * n
    m = n + 1
    c = m * m - a
    zero = (Fraction(0), Fraction(0))

    def end(k, base, rad, den):
        return root_value(Fraction(k * base, den), Fraction(k * k * rad, den * den))

    out = []
    for k in range(k_max + 1):
        for side, base, rad_lo, den_lo, rad_hi, den_hi in (
            ("left-crowding", n, a, b, a + 1, b + 1),
            ("right-crowding", m, a + 1, c - 1, a, c),
        ):
            hi = end(k + 1, base, rad_hi, den_hi)
            if k == 0:
                lo = zero
            elif den_lo == 0:
                continue
            else:
                lo = end(k, base, rad_lo, den_lo)
            if root_cmp(lo, hi) <= 0:
                out.append((k, side, lo, hi))
    return out


def keys_match(expected, actual) -> bool:
    """Every key present in `expected` is present and equal in `actual`.

    Dicts may gain keys; lists must keep their length and match item by item.
    """
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and keys_match(v, actual[k]) for k, v in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(keys_match(e, x) for e, x in zip(expected, actual))
        )
    return type(expected) is type(actual) and expected == actual
