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

sigma(a) is the denominator that confrac._first_pair_in_frame, the kernel
entry of every interval, finds in (sqrt(a), sqrt(a+1)) from a's frame, in
O(log a) exact integer steps.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter, mul, sub
from typing import NamedTuple

from .confrac import _first_pair_in_frame, _parents_outside
from .exactmath import Surd, isqrt

__all__ = [
    "ConsistencyError",
    "Decomposition",
    "decompose",
    "tau",
    "tau_columns",
    "t_set",
    "sigma",
    "certified_first_pair",
    "sigma_k",
    "sigma_lower",
    "sigma_upper",
    "on_bound_criterion",
    "min_k",
    "ZeroWindow",
    "zero_windows",
]


# The most witnesses t_set returns: their count tau(0, s) = s - 1 has no bound.
TSET_MAX_WITNESSES = 10**6


class ConsistencyError(RuntimeError):
    """An exact internal cross-check failed: a library defect, not bad input."""


class Decomposition(NamedTuple):
    """a = n^2 + b = m^2 - c.  A tuple, not a frozen dataclass, as a tuple
    costs under half as much to make.  No library function builds one or
    calls decompose: each takes (n, b, c) from _frame, one isqrt, min_k
    once per walk.  decompose stays public as the frame's reference form."""

    a: int
    n: int
    b: int
    m: int
    c: int


def decompose(a: int) -> Decomposition:
    """Frame a between its neighbouring squares: a = n^2 + b = m^2 - c.

    a = 0 degenerates gracefully to n = b = 0, m = c = 1.
    """
    n, b, c = _frame(a)
    return Decomposition(a, n, b, n + 1, c)


def _frame(a: int) -> tuple[int, int, int]:
    """(n, b, c) with a = n^2 + b = (n+1)^2 - c, from one isqrt; as
    (n+1)^2 - n^2 = 2n + 1, c = 2n + 1 - b.  Every point query frames a
    here."""
    if a < 0:
        raise ValueError("a must be >= 0")
    n = isqrt(a)
    b = a - n * n
    return n, b, 2 * n + 1 - b


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


def tau_columns(a_lo: int, a_hi: int, s_lo: int, s_hi: int) -> list[list[int]]:
    """[tau(a, s) for s in s_lo..s_hi] for each a in a_lo..a_hi, in order,
    at one isqrt a cell.

    isqrt(N - 1) = isqrt(N) - 1 exactly when N is a positive square, and
    isqrt(N - 1) = isqrt(N) otherwise, since then isqrt(N)^2 < N.  With
    N = s^2*(a+1), which for s >= 1 is a square iff a+1 is, tau's formula
    becomes

        tau(a, s) = isqrt(s^2*(a+1)) - isqrt(s^2*a) - [a+1 is a square],

    and a column's isqrt(s^2*(a+1)) is the next column's isqrt(s^2*a), so
    each column costs one isqrt a cell, plus one column of isqrt(s^2*a_lo)
    to start.  tau is the point formula and this grid's oracle.
    """
    _check_pair(a_lo, s_lo)
    squares = [s * s for s in range(s_lo, s_hi + 1)]
    lower = list(map(isqrt, map(mul, squares, repeat(a_lo))))
    m = isqrt(a_lo) + 1  # m^2 is the least square above a_lo
    columns = []
    for a1 in range(a_lo + 1, a_hi + 2):
        upper = list(map(isqrt, map(mul, squares, repeat(a1))))
        if a1 == m * m:
            columns.append([u - v - 1 for u, v in zip(upper, lower)])
            m += 1
        else:
            columns.append(list(map(sub, upper, lower)))
        lower = upper
    return columns


def t_set(a: int, s: int) -> list[int]:
    """The witnesses themselves: ascending t with s^2*a < t^2 < s^2*(a+1).
    More than TSET_MAX_WITNESSES, counted from the range's ends, are refused
    before any list is built."""
    _check_pair(a, s)
    lo = isqrt(s * s * a) + 1
    end = isqrt(s * s * (a + 1) - 1) + 1
    if end - lo > TSET_MAX_WITNESSES:
        raise ValueError(f"t_set would return {end - lo} witnesses, over the cap of {TSET_MAX_WITNESSES}")
    return list(range(lo, end))


def _top_floor(k: int, n: int, root: int, root1: int, b1: int, c: int) -> int:
    """sigma_k(a) - 1 in a's frame, the larger of (k*n + root1)//(b+1) and
    (k*m + root)//c with root = isqrt(k^2*a), root1 = isqrt(k^2*(a+1)),
    b1 = b + 1 and c = m^2 - a; sigma_k, min_k and sweep rows share it."""
    left = (k * n + root1) // b1
    right = (k * (n + 1) + root) // c
    return left if left > right else right


def sigma_k(a: int, k: int) -> int:
    """floor(max(k*sigma_l(a), k*sigma_r(a))) + 1, in pure integers.

    floor((k*n + k*sqrt(a+1))/(b+1)) equals (k*n + isqrt(k^2*(a+1)))//(b+1)
    because no integer, so no multiple of b+1, fits between the exact
    numerator and its floor; likewise on the right.

    Strictly increasing in k, by at least 1 per step, because
    M = max(sigma_l, sigma_r) >= 1 for every a >= 0: then
    floor((k+1)*M) >= floor(k*M + 1) = floor(k*M) + 1.  As b + c = 2n + 1,
    either b <= n, and sigma_l >= (n + sqrt(a+1))/(n+1) >= 1; or c <= n,
    and sigma_r >= (n+1)/n > 1.  So at most one k has sigma_k(a) = sigma(a).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n, b, c = _frame(a)
    kk = k * k
    return _top_floor(k, n, isqrt(kk * a), isqrt(kk * (a + 1)), b + 1, c) + 1


def sigma_lower(a: int) -> int:
    return sigma_k(a, 1)


def sigma_upper(a: int) -> int:
    """ceil(sqrt(a) + sqrt(a+1)) = isqrt(4a+2) + 1 for a >= 1.

    floor(sqrt(a) + sqrt(a+1)) = floor(sqrt(4a+2)) since the squared sum
    lies in (4a+1, 4a+2) and 4a+2 is never a perfect square; the sum is
    irrational for a >= 1, so its ceiling is that floor plus one.  At
    a = 0 the formula returns 2, which still bounds sigma(0) = 2.

    In a's frame a = n^2 + b it is 2n + 1 + [b >= n], which sweep rows
    read with no isqrt: (2n+1)^2 <= 4a+2 iff 4n + 1 <= 4b + 2 iff b >= n,
    and (2n+2)^2 > 4a+2 as 4b <= 8n < 8n + 2, so isqrt(4a+2) = 2n + [b >= n].
    """
    if a < 0:
        raise ValueError("a must be >= 0")
    return isqrt(4 * a + 2) + 1


def sigma(a: int) -> int:
    """Least denominator s >= 2 such that some t/s squares into (a, a+1)."""
    n, b, _ = _frame(a)
    return _first_pair_in_frame(a, a + 1, n, b, b + 1)[1]


def certified_first_pair(a: int) -> tuple[int, int]:
    """The kernel's (t, s) for (a, a+1), once the Stern-Brocot certificate
    has confirmed it; ConsistencyError otherwise.  One isqrt works out a's
    frame for _certified_pair_in_frame.

    The certificate implies tau(a, s) = 1, so that is not tested again.
    It puts t/s inside, so tau(a, s) >= 1.  Both parents L < t/s < R lie
    outside, so any t'/s inside lies strictly between them.  In lowest terms
    t'/s = t''/s'' with s'' <= s, and every rational strictly between L and
    R other than t/s has a denominator above s (confrac._parents_outside),
    so t'/s = t/s.  sigma(a) is left uncertified, as it is the hot path of
    point queries.
    """
    n, b, _ = _frame(a)
    return _certified_pair_in_frame(a, n, b + 1)


def _certified_pair_in_frame(a: int, n: int, b1: int) -> tuple[int, int]:
    """certified_first_pair(a) in a's frame, n = isqrt(a) and b1 = b + 1:
    the kernel's pair, certified with the parent it hands back."""
    a1 = a + 1
    t, s, p, q = _first_pair_in_frame(a, a1, n, b1 - 1, b1)
    if not _parents_outside(a, a1, t, s, p, q):
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
    One isqrt frames a: isqrt(a) = n, and isqrt(a+1) is n, or m at c = 1.
    """
    if a < 2:
        raise ValueError("a must be >= 2")
    n, b, c = _frame(a)
    m = n + 1
    r1 = m if c == 1 else n  # isqrt(a + 1)
    left = b == 0 or (n + r1) // (b + 1) < 2 * n // b
    right = c == 1 or (m + n) // c < (m + r1) // (c - 1)
    return left or right


def min_k(a: int) -> int:
    """The one k >= 1 with sigma_k(a) = sigma(a).

    sigma_k strictly increases in k (see sigma_k), so the first match is the
    only one, and sigma_k >= k+1 bounds the walk by sigma(a).  _frame gives
    a's (n, b, c) from one isqrt; the kernel takes sigma(a) in that frame,
    and the walk takes sigma_k's two floors per step through _top_floor,
    two isqrt calls.

    The walk is O(k) where a sweep row reads k off its certified pair
    (_pair_curve_index) and checks it with one sigma_k.  No command calls
    it: sweep rows, and so k_set and off_bound_points, take that index.  It
    stays a walk on purpose: it is the independent oracle for the row's
    index, and the benchmark's families query checks each answer with an
    O(k) scan of its own, which would never finish on the k of about
    4*10^24 that the closed form returns at a near 10^50.
    """
    n, b, c = _frame(a)
    a1 = a + 1
    b1 = b + 1
    sig = _first_pair_in_frame(a, a1, n, b, b1)[1]
    j = sig - 1  # sigma_k(a) = sig iff the larger floor is sig - 1
    for k in range(1, sig + 1):
        kk = k * k
        if _top_floor(k, n, isqrt(kk * a), isqrt(kk * a1), b1, c) == j:
            return k
    raise ConsistencyError(f"no curve index k <= {sig} matches sigma({a})")


def _pair_curve_index(a: int, t: int, s: int, n: int, b1: int, c: int) -> int:
    """min_k(a) read off the certified pair t/s of a in its frame
    (n = isqrt(a), m = n + 1, b1 = b + 1, c = m^2 - a): with u = t - n*s and
    v = m*s - t it is min(u, v), confirmed by one sigma_k in that frame.

    Why: k*sigma_l(a) = k/(sqrt(a+1) - n) and k*sigma_r(a) = k/(m - sqrt(a)),
    and t/s lies inside (sqrt(a), sqrt(a+1)), so u/s < sqrt(a+1) - n and
    v/s < m - sqrt(a), that is u*sigma_l < s and v*sigma_r < s.  Every
    k <= min(u, v) thus has both k*sigma_l and k*sigma_r below s, and
    sigma_k(a) <= s.  s >= 2 is the least denominator inside, as no
    integer lies inside for a >= 1.  If u*sigma_l < s - 1, then
    u/(s - 1) < sqrt(a+1) - n, so (t - n)/(s - 1) = n + u/(s - 1) lies
    below sqrt(a+1), and above t/s as u > 0: inside with a smaller
    denominator.  So u*sigma_l >= s - 1, and likewise v*sigma_r >= s - 1
    with (t - m)/(s - 1) = m - v/(s - 1), which lies above sqrt(a) and below
    t/s as v > 0.  At k = min(u, v) one of the two floors is then at least
    s - 1, so sigma_k(a) = s, and as sigma_k strictly increases in k
    (see sigma_k) it is the one match.  The sigma_k check keeps this honest at
    run time; a pair outside (n, m) gives k <= 0, which is refused before
    any floor is taken.
    """
    k = min(t - n * s, (n + 1) * s - t)
    if k >= 1:
        kk = k * k
        if _top_floor(k, n, isqrt(kk * a), isqrt(kk * (a + 1)), b1, c) == s - 1:
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

    Left crowding at offset k pins floor(s*sqrt(a)) to s*n + k, right
    crowding pins ceil(s*sqrt(a+1)) to s*m - k, and each forces
    tau(a, s) = 0 on that side's window k, as _sides states it.  At k = 0
    the lower constraint is vacuous (endpoint 0), so that window is never
    empty.  At k >= 1 a zero lower denominator (b = 0 or c = 1) leaves no
    s, so that side has no window.  Windows come left before right for
    each k.

    With window k = [lo, hi] = [k*A, (k+1)*B], the width
    hi - lo = B - k*(A - B) falls strictly with k, because A > B on both
    sides.  On the left, A = (n+sqrt(a))/b and B = (n+sqrt(a+1))/(b+1);
    squaring n + (b+1)*sqrt(a) > b*sqrt(a+1) leaves n^2 +
    2n(b+1)*sqrt(a) + (2b+1)*a > b^2, which holds as (2b+1)*a >= b^2.
    On the right,
    A = (m+sqrt(a+1))/(c-1) has the larger numerator and the smaller
    denominator of B = (m+sqrt(a))/c.  So a side's nonempty windows are
    exactly k = 0..K.

    K is read off a's frame with no comparison: K = b on the left and
    K = c - 2 on the right, while b = 0 or c = 1 leaves only k = 0.

    Left, b >= 1: at k = b, lo = n + sqrt(a) < n + sqrt(a+1) = hi.  As
    (b+1)^2 = b*(b+2) + 1, window b + 1 is empty iff
    (n+sqrt(a))*(sqrt(a)+sqrt(a+1)) > b*(b+2).  The left-hand side
    exceeds 2n*sqrt(a) + 2a >= 4n^2 + 2b, and b <= 2n gives
    b*(b+2) <= 4n^2 + 2b.

    Right, c >= 2: at k = c - 1, lo = m + sqrt(a+1) > m + sqrt(a) = hi.
    As (c-1)^2 = c*(c-2) + 1, window c - 2 is nonempty iff
    c*(c-2) <= (m+sqrt(a))*(sqrt(a)+sqrt(a+1)).  The right-hand side
    exceeds (2n+1)*2n, and c <= 2n + 1 gives c*(c-2) <= 4n^2 - 1.

    So the list holds min(b, k_max) + 1 left windows and
    max(min(c - 2, k_max), 0) + 1 right windows, and k_max bounds the
    work.  One isqrt frames a (_frame).

    The ends of windows with k >= 1 skip Surd's validating constructor
    (_window_end), because its checks hold by construction: the
    coefficient q = k or k + 1 is at least 1; the denominator is at least
    1, as k <= b needs b >= 1 on the left and k <= c - 2 needs
    den = c - 1 >= 2 on the right; and the radicand a or a + 1 is at least
    1, as either needs a >= 1 (a = 0 has b = 0 and c = 1).  So the ends
    are stored as the constructor would store them.  The shared zero and
    each k = 0 end go through Surd, because a = 0 needs its q = d = 0
    normalisation.  The factory stays because it pays: built through Surd
    instead, families request_p90_ms read 35.4 against 29.7 us, the
    factory faster in 10 of 10 pairs (BENCH_33.json, factory_ablation).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    l_side, r_side = _sides(a, *_frame(a))
    zero = Surd(0)
    left = _side_windows("left-crowding", k_max, zero, l_side)
    right = _side_windows("right-crowding", k_max, zero, r_side)
    # k-major; the sort is stable, so left comes before right at each k
    return sorted(left + right, key=_offset)


def _sides(a: int, n: int, b: int, c: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """a's left and right crowding sides in its frame (_frame), each as
    (top, base, rad_lo, den, rad_hi).  Window k of a side is

        [k*(base + sqrt(rad_lo))/den, (k+1)*(base + sqrt(rad_hi))/(den+1)],

    nonempty exactly for k = 0..top (zero_windows proves the last offsets
    top = b and c - 2).  As b + c = 2n + 1, b is never c - 2, so the two
    tuples differ in top and the smaller one is the side with fewer
    windows."""
    return (b, n, a, b, a + 1), (c - 2, n + 1, a + 1, c - 1, a)


# tuple.__new__(ZeroWindow, fields) is ZeroWindow(*fields) at about half
# the cost: it skips the NamedTuple's Python-level __new__
_new = tuple.__new__
_blank = object.__new__
_offset = itemgetter(0)


def _window_end(p: int, q: int, d: int, r: int) -> Surd:
    """Surd(p, q, d, r) without the constructor's checks, for ends whose
    q, d and r are all at least 1 (see zero_windows)."""
    end = _blank(Surd)
    end.p = p
    end.q = q
    end.d = d
    end.r = r
    return end


def _side_windows(side: str, k_max: int, zero: Surd, params: tuple[int, ...]) -> list[ZeroWindow]:
    """One side's windows k = 0..min(top, k_max) for zero_windows, params
    as _sides gives them; the k = 0 window (lo = 0 < hi) is never empty."""
    top, base, rad_lo, den, rad_hi = params
    den1 = den + 1
    windows = [_new(ZeroWindow, (0, zero, Surd(base, 1, rad_hi, den1), side))]
    windows += [
        _new(ZeroWindow, (k, _window_end(k * base, k, rad_lo, den),
                          _window_end((k + 1) * base, k + 1, rad_hi, den1), side))
        for k in range(1, min(top, k_max) + 1)
    ]
    return windows
