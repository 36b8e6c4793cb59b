"""Locating integer squares between s^2*a and s^2*(a+1).

tau(a, s) counts the integers t with s^2*a < t^2 < s^2*(a+1); sigma(a) is
the least s >= 2 with tau(a, s) > 0, equivalently the denominator of the
first rational whose square lands in (a, a+1) when rationals are ordered by
denominator first.  Everything is phrased in the frame

    n = floor(sqrt(a)),  a = n^2 + b  (0 <= b <= 2n),
    m = n + 1,           a = m^2 - c  (1 <= c <= 2m-1),

which exposes the exact bounding curves

    sigma_l(a) = (n + sqrt(a+1)) / (b+1),
    sigma_r(a) = (m + sqrt(a))   / c,
    sigma_k(a) = floor(max(k*sigma_l, k*sigma_r)) + 1,

with sigma_1(a) <= sigma(a) <= isqrt(4a+2) + 1.

sigma(a) is the denominator that confrac.first_pair_between finds in
(sqrt(a), sqrt(a+1)), in O(log a) exact integer steps.
"""

from __future__ import annotations

from typing import NamedTuple

from .confrac import first_pair_between, is_first_rational_between
from .exactmath import Surd, isqrt, surd_cmp

__all__ = [
    "ConsistencyError",
    "Decomposition",
    "decompose",
    "tau",
    "t_set",
    "sigma",
    "certified_first_pair",
    "sigma_l",
    "sigma_r",
    "sigma_k",
    "sigma_lower",
    "sigma_upper",
    "on_bound_criterion",
    "min_k",
    "ZeroWindow",
    "zero_windows",
]


class ConsistencyError(RuntimeError):
    """An exact internal cross-check failed: a library defect, not bad input."""


class Decomposition(NamedTuple):
    """a = n^2 + b = m^2 - c.  A tuple, not a frozen dataclass, as a tuple
    costs under half as much to make.  sigma_k and min_k build none: each
    works out n, b + 1 and c inline, min_k once per walk."""

    a: int
    n: int
    b: int
    m: int
    c: int


def decompose(a: int) -> Decomposition:
    """Frame a between its neighbouring squares: a = n^2 + b = m^2 - c.

    a = 0 degenerates gracefully to n = b = 0, m = c = 1.
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    n = isqrt(a)
    b = a - n * n
    m = n + 1
    c = m * m - a
    return Decomposition(a, n, b, m, c)


def _check_pair(a: int, s: int) -> None:
    if a < 0:
        raise ValueError("a must be >= 0")
    if s < 1:
        raise ValueError("s must be >= 1")


def tau(a: int, s: int) -> int:
    """Number of integers t with s^2*a < t^2 < s^2*(a+1).

    isqrt(s^2*(a+1) - 1) is the largest t with t^2 < s^2*(a+1), so the
    difference with isqrt(s^2*a) counts the open window whether or not
    either end is a square.
    """
    _check_pair(a, s)
    return isqrt(s * s * (a + 1) - 1) - isqrt(s * s * a)


def t_set(a: int, s: int) -> list[int]:
    """The witnesses themselves: ascending t with s^2*a < t^2 < s^2*(a+1)."""
    _check_pair(a, s)
    return list(range(isqrt(s * s * a) + 1, isqrt(s * s * (a + 1) - 1) + 1))


def sigma_l(a: int) -> Surd:
    """(n + sqrt(a+1)) / (b+1): left crowding threshold, always finite."""
    dc = decompose(a)
    return Surd(dc.n, 1, a + 1, dc.b + 1)


def sigma_r(a: int) -> Surd:
    """(m + sqrt(a)) / c: right crowding threshold, always finite."""
    dc = decompose(a)
    return Surd(dc.m, 1, a, dc.c)


def sigma_k(a: int, k: int) -> int:
    """floor(max(k*sigma_l(a), k*sigma_r(a))) + 1, in pure integers.

    floor((k*n + k*sqrt(a+1))/(b+1)) equals (k*n + isqrt(k^2*(a+1)))//(b+1)
    because no integer fits between the exact numerator and its floor (same
    argument as floor_surd); likewise on the right.

    Strictly increasing in k, by at least 1 per step, because
    M = max(sigma_l, sigma_r) >= 1 for every a >= 0: then
    floor((k+1)*M) >= floor(k*M + 1) = floor(k*M) + 1.  As b + c = 2n + 1,
    either b <= n, and sigma_l >= (n + sqrt(a+1))/(n+1) >= 1; or c <= n,
    and sigma_r >= (n+1)/n > 1.  So at most one k has sigma_k(a) = sigma(a).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if a < 0:
        raise ValueError("a must be >= 0")
    # decompose's frame, worked out inline: b + 1 = a - n^2 + 1, c = m^2 - a
    n = isqrt(a)
    m = n + 1
    kk = k * k
    left = (k * n + isqrt(kk * (a + 1))) // (a - n * n + 1)
    right = (k * m + isqrt(kk * a)) // (m * m - a)
    return (left if left > right else right) + 1


def sigma_lower(a: int) -> int:
    return sigma_k(a, 1)


def sigma_upper(a: int) -> int:
    """ceil(sqrt(a) + sqrt(a+1)) = isqrt(4a+2) + 1 for a >= 1.

    floor(sqrt(a) + sqrt(a+1)) = floor(sqrt(4a+2)) since the squared sum
    lies in (4a+1, 4a+2) and 4a+2 is never a perfect square; the sum is
    irrational for a >= 1, so its ceiling is that floor plus one.  At
    a = 0 the formula returns 2, which still bounds sigma(0) = 2.
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    return isqrt(4 * a + 2) + 1


def sigma(a: int) -> int:
    """Least denominator s >= 2 such that some t/s squares into (a, a+1)."""
    if a < 0:
        raise ValueError("a must be >= 0")
    return first_pair_between(a, a + 1)[1]


def certified_first_pair(a: int) -> tuple[int, int]:
    """The kernel's (t, s) for (a, a+1), once the Stern-Brocot certificate
    and tau(a, s) = 1 have confirmed it; ConsistencyError otherwise.

    sigma(a) is left uncertified, as it is the hot path of point queries.
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    t, s = first_pair_between(a, a + 1)
    if not (is_first_rational_between(a, a + 1, t, s) and tau(a, s) == 1):
        raise ConsistencyError(f"sigma certificate failed at a={a}: t={t} s={s}")
    return t, s


def on_bound_criterion(a: int) -> bool:
    """Whether sigma(a) attains the lower bound sigma_1(a).

    Holds iff floor(sigma_l) drops when b steps down or floor(sigma_r)
    drops when c steps down, both evaluated in a's own frame: the left
    probe is (n + sqrt(a))/b, the right probe (m + sqrt(a+1))/(c-1).  A
    zero shifted denominator counts as +infinity, making the drop trivially
    true.  Re-deriving the probes from decompose(a-1)/decompose(a+1)
    instead would change frames at b = 0 / c = 1 and get this wrong.
    """
    if a < 2:
        raise ValueError("a must be >= 2")
    dc = decompose(a)
    left = dc.b == 0 or (
        (dc.n + isqrt(a + 1)) // (dc.b + 1) < (dc.n + isqrt(a)) // dc.b
    )
    right = dc.c == 1 or (
        (dc.m + isqrt(a)) // dc.c < (dc.m + isqrt(a + 1)) // (dc.c - 1)
    )
    return left or right


def min_k(a: int, s: int | None = None) -> int:
    """The one k >= 1 with sigma_k(a) = sigma(a); pass s = sigma(a) if known.

    sigma_k strictly increases in k (see sigma_k), so the first match is the
    only one, and sigma_k >= k+1 bounds the walk by sigma(a).  The walk
    works out sigma_k's frame once (n, m, a + 1, b + 1, c) and then takes
    sigma_k's two floors per step, two isqrt calls on integer locals.

    The walk is O(k) where _curve_index is two isqrt calls, and it stays on
    purpose: it is the independent oracle for the closed form, and the
    benchmark checks each min_k answer with an O(k) scan of its own, which
    would never finish on the k of about 4*10^24 that the closed form
    returns at a near 10^50 within the benchmark's time budget.
    ROADMAP item 1's O(1) is_min_curve_index unblocks the switch.
    """
    if s is None:
        s = sigma(a)
    elif a < 0:
        raise ValueError("a must be >= 0")
    n = isqrt(a)
    m = n + 1
    a1 = a + 1
    b1 = a1 - n * n
    c = m * m - a
    j = s - 1  # sigma_k(a) = s iff the larger floor is s - 1
    for k in range(1, s + 1):
        kk = k * k
        left = (k * n + isqrt(kk * a1)) // b1
        right = (k * m + isqrt(kk * a)) // c
        if (left if left > right else right) == j:
            return k
    raise ConsistencyError(f"no curve index k <= {s} matches sigma({a})")


def _curve_index(a: int, s: int) -> int:
    """min_k(a, s) in closed form, for a >= 0, checked by one sigma_k call.

    k*sigma_l(a) = k/(sqrt(a+1) - n) and k*sigma_r(a) = k/(m - sqrt(a)), so
    with j = s - 1 the least k whose larger floor reaches j is
    min(ceil(j*sqrt(a+1)) - j*n, j*m - floor(j*sqrt(a))), two isqrt calls
    (ceil(sqrt(X)) = isqrt(X - 1) + 1 for X >= 1).  That k has
    sigma_k(a) >= s and sigma_k(a, k-1) < s, so it is the one match exactly
    when sigma_k(a, k) = s.  s < 2 leaves no curve (sigma_k >= k + 1 >= 2)
    and would give isqrt(-1) at j = 0.
    """
    if s >= 2:
        n = isqrt(a)
        j = s - 1
        jj = j * j
        k = min(isqrt(jj * (a + 1) - 1) + 1 - j * n, j * (n + 1) - isqrt(jj * a))
        if k >= 1 and sigma_k(a, k) == s:
            return k
    raise ConsistencyError(f"no curve index k <= {s} matches sigma({a})")


class ZeroWindow(NamedTuple):
    """Closed interval [lo, hi] of s-values with tau(a, s) = 0.

    A NamedTuple, as Decomposition is, so windows compare by value (the
    Surd ends compare by value) and, like Surd, are unhashable.
    """

    k: int
    lo: Surd
    hi: Surd
    side: str  # "left-crowding" | "right-crowding"


def zero_windows(a: int, k_max: int) -> list[ZeroWindow]:
    """All crowding windows with offset k <= k_max, empty ones dropped.

    Left crowding at offset k pins floor(s*sqrt(a)) to s*n + k and forces
    tau(a, s) = 0 for k*(n+sqrt(a))/b <= s <= (k+1)*(n+sqrt(a+1))/(b+1);
    right crowding mirrors it with m and c.  At k = 0 the lower constraint
    is vacuous (endpoint 0), so that window is never empty.  At k >= 1 a
    zero lower denominator (b = 0 or c = 1) leaves no s, so that side has
    no window.  Windows come left before right for each k.

    With lo = k*A and hi = (k+1)*B, the width hi - lo = B - k*(A - B)
    falls strictly with k, because A > B on both sides.  On the left,
    A = (n+sqrt(a))/b and B = (n+sqrt(a+1))/(b+1); squaring
    n + (b+1)*sqrt(a) > b*sqrt(a+1) leaves n^2 + 2n(b+1)*sqrt(a) +
    (2b+1)*a > b^2, which holds as (2b+1)*a >= b^2.  On the right,
    A = (m+sqrt(a+1))/(c-1) has the larger numerator and the smaller
    denominator of B = (m+sqrt(a))/c.  So a side's nonempty windows are
    exactly k = 0..K.  K is found by stepping down from k_max while the
    window is empty: one exact comparison in the usual case K = k_max, at
    most k_max - K + 1 per side in general.  Surd ends are built only for
    the windows returned and the empty windows tested.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    dc = decompose(a)
    zero = Surd(0)
    sides = (
        ("left-crowding", dc.n, a, dc.b, a + 1, dc.b + 1),
        ("right-crowding", dc.m, a + 1, dc.c - 1, a, dc.c),
    )

    def window(k, side, base, rad_lo, den_lo, rad_hi, den_hi) -> ZeroWindow:
        lo = Surd(k * base, k, rad_lo, den_lo) if k else zero
        return ZeroWindow(k, lo, Surd((k + 1) * base, k + 1, rad_hi, den_hi), side)

    # Last nonempty offset per side; den_lo = 0 leaves only k = 0, and the
    # k = 0 window (lo = 0 < hi) is never empty.
    last = []
    for spec in sides:
        k = k_max if spec[3] else 0
        while k:
            w = window(k, *spec)
            if surd_cmp(w.lo, w.hi) <= 0:
                break
            k -= 1
        last.append(k)
    return [
        window(k, *spec)
        for k in range(max(last) + 1)
        for spec, k_last in zip(sides, last)
        if k <= k_last
    ]
