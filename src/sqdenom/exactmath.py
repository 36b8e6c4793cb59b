"""Exact integer and quadratic-surd arithmetic.

Every decision made by this library reduces to integer comparisons; no
floating point is consulted anywhere.  The central value type is Surd, an
exact (p + q*sqrt(d))/r with q >= 0 and r >= 1; every Surd is finite.  A
Surd keeps the form it was built with: comparisons work on the value, so
equal values written in different forms compare equal, and it defines
__eq__ without __hash__, so it is unhashable.  Ordering two surds
is resolved by isolate-and-square steps with explicit sign bookkeeping,
which stays exact because at most two distinct radicals ever meet in one
comparison.
"""

from __future__ import annotations

import functools
from math import isqrt

__all__ = [
    "isqrt",
    "is_perfect_square",
    "Surd",
    "surd_cmp",
]


def is_perfect_square(n: int) -> int | None:
    """Return r with r*r == n, or None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


@functools.total_ordering
class Surd:
    """Exact (p + q*sqrt(d))/r with q >= 0, r >= 1.

    The form is stored as given (a zero q or d stores both as 0); nothing
    is reduced, because comparisons act on the value alone.
    """

    __slots__ = ("p", "q", "d", "r")

    def __init__(self, p: int, q: int = 0, d: int = 0, r: int = 1):
        if r <= 0:
            raise ValueError("surd denominator must be positive")
        if q < 0:
            raise ValueError("surd radical coefficient must be nonnegative")
        if d < 0:
            raise ValueError("surd radicand must be nonnegative")
        if q == 0 or d == 0:
            q = d = 0
        self.p = p
        self.q = q
        self.d = d
        self.r = r

    def __eq__(self, other) -> bool:
        if not isinstance(other, Surd):
            return NotImplemented
        return surd_cmp(self, other) == 0

    def __lt__(self, other) -> bool:
        if not isinstance(other, Surd):
            return NotImplemented
        return surd_cmp(self, other) < 0

    def __repr__(self) -> str:
        if self.q == 0:
            return f"Surd({self.p}/{self.r})" if self.r != 1 else f"Surd({self.p})"
        return f"Surd(({self.p}+{self.q}*sqrt({self.d}))/{self.r})"


def _sgn(n: int) -> int:
    return (n > 0) - (n < 0)


def _sign_linear(k: int, l: int, d: int) -> int:
    """Exact sign of k + l*sqrt(d); l may be negative."""
    if l == 0 or d == 0:
        return _sgn(k)
    if l > 0:
        if k >= 0:
            return 1
        return _sgn(l * l * d - k * k)
    if k <= 0:
        return -1
    return _sgn(k * k - l * l * d)


def _sign_two_radicals(k: int, b: int, d1: int, e: int, d2: int) -> int:
    """Exact sign of k + b*sqrt(d1) - e*sqrt(d2) with b, e >= 0."""
    if b == 0 or d1 == 0:
        return _sign_linear(k, -e, d2)
    if e == 0 or d2 == 0:
        return _sign_linear(k, b, d1)
    # u = k + b*sqrt(d1) versus v = e*sqrt(d2) > 0
    su = _sign_linear(k, b, d1)
    if su <= 0:
        return -1
    # both positive: sign(u^2 - v^2) = sign(2kb*sqrt(d1) - w)
    w = e * e * d2 - k * k - b * b * d1
    return _sign_linear(-w, 2 * k * b, d1)


def surd_cmp(x: Surd, y: Surd) -> int:
    """Total order on surds: -1, 0 or +1."""
    k = x.p * y.r - y.p * x.r
    return _sign_two_radicals(k, x.q * y.r, x.d, y.q * x.r, y.d)

