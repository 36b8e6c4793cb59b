"""Batch sweeps and the empirical harness built on the core counters.

Observation-style checks (near-symmetry of sigma around trough centers,
witness search for a conjectured decrement pattern in the counts,
upward-closure probes, off-bound structure) report findings; they never
decide correctness by themselves.  Hard guarantees live in the core
modules and their tests.  The `sqdenom analyze` reports, each finding
with its verdict, are built here too (REPORTS).
"""

from __future__ import annotations

from operator import eq
from typing import TYPE_CHECKING, NamedTuple

from .exactmath import is_perfect_square, isqrt
from .sigmacore import (
    ConsistencyError,
    _certified_pair_in_frame,
    _frame,
    _pair_curve_index,
    _sides,
    _top_floor,
    certified_first_pair,
    sigma_upper,
    tau,
)

if TYPE_CHECKING:
    from fractions import Fraction

# The most findings a conjecture1_search table holds: k_max slots for each
# 2 <= a <= a_max.  A slot list is built before its a is scanned, and
# k_max = 10^12 ran out of memory at once, so the count comes first.
CONJECTURE1_MAX_FINDINGS = 10**6

# offbound_minima and the offbound report read sigma = 5 minima from n = 7 on.
_MINIMA_FROM_N = 7

# The most sigma pairs a symmetry_report compares.  --full-range gives
# trough n about n^2 of them, so --n-max 10^6 would run for hours; the
# count comes before any sigma is computed.
SYMMETRY_MAX_COMPARISONS = 10**6

# The most crowding windows an upward_closure_check reads, two isqrt calls
# each: min(b, c - 2, s_max) of them, with a = n^2 + b = (n+1)^2 - c, so
# a = 10^21 + 7 at s_max 10^12 would take 19,998,666,395 windows, while
# 10^12 + 7 and 10^24 + 7 take 7 each.  The count comes before any window
# is read.  The answer holds at most one drop a window, so the cap bounds
# it too.  At the cap's 999,999 windows, with s_max past every drop,
# `sqdenom analyze closure` took 1.5 s, 94 MB peak RSS and 8.1 MB of JSON
# at a = 10^12 + 10^6, and at worst 6.5 s, 471 MB and 156 MB at
# a = 10^300 + 10^6 - 1, whose drops have some 150 digits each (2-vCPU
# x86-64 VM, Python 3.11).
CLOSURE_MAX_STEPS = 10**6

__all__ = [
    "SweepRecord",
    "sweep",
    "on_bound_fraction",
    "symmetry_report",
    "off_bound_points",
    "offbound_peaks",
    "offbound_minima",
    "k_set",
    "conjecture1_search",
    "upward_closure_check",
]


class SweepRecord(NamedTuple):
    """One row of a sigma sweep; sweep checks each row before it builds it."""

    a: int
    sigma: int
    sigma1: int
    upper: int
    on_bound: bool
    min_k: int
    t_first: int


def _sweep_rows(a_from: int, a_to: int):
    """Yield the checked row (a, sigma, sigma1, upper, on_bound, min_k,
    t_first) of each a in a_from..a_to, one square interval n^2 <= a < m^2
    at a time.  Every row's certified pair comes from the kernel entered in
    a's frame (_certified_pair_in_frame), the two rows at the interval's
    ends included.  Past the pair a row needs only that frame: isqrt(a) = n
    and isqrt(a+1) = n, or m at a = m^2 - 1, so sigma_1 takes no isqrt, nor
    does the upper bound 2n + 1 + [b >= n] (see sigma_upper); an off-bound
    row's curve index (on the bound it is 1) is read off the pair and
    checked by one sigma_k on the same frame (_pair_curve_index)."""
    if a_from < 1 or a_to < a_from:
        raise ValueError("need 1 <= a_from <= a_to")
    lo, n = a_from, isqrt(a_from)
    while lo <= a_to:
        m = n + 1
        mm = m * m
        b0 = 1 - n * n  # b + 1 = a + b0
        for a in range(lo, min(mm, a_to + 1)):
            b1 = a + b0
            c = mm - a
            t, s = _certified_pair_in_frame(a, n, b1)
            s1 = _top_floor(1, n, n, m if c == 1 else n, b1, c) + 1
            upper = 2 * n + 1 + (b1 > n)  # sigma_upper(a), b >= n
            if not s1 <= s <= upper:
                raise ConsistencyError(f"bounds violated at a={a}")
            if s == s1:
                yield a, s, s1, upper, True, 1, t
            else:
                yield a, s, s1, upper, False, _pair_curve_index(a, t, s, n, b1, c), t
        lo, n = mm, m


def sweep(a_from: int, a_to: int) -> list[SweepRecord]:
    """Records for a_from..a_to inclusive, in order, one after another.

    A row is 3 to 5.5 microseconds of exact integer work at small a
    (a <= 20000, CSV text included, 2-vCPU x86-64, Python 3.11), most of
    it the certified kernel call (_sweep_rows).  This call never forks, as
    a library call must not start processes behind its caller's back; the
    `sqdenom sweep` command formats the same row tuples into CSV or JSON
    text in its own process (cli.cmd_sweep).
    """
    return list(map(SweepRecord._make, _sweep_rows(a_from, a_to)))


def on_bound_fraction(a_from: int, a_to: int) -> Fraction:
    """Exact share of a in [a_from, a_to] with sigma(a) = sigma_1(a).

    sigma >= sigma_1 everywhere, so these are the a off_bound_points omits.
    """
    from fractions import Fraction
    off = len(off_bound_points(a_from, a_to))
    total = a_to - a_from + 1
    return Fraction(total - off, total)


def _symmetry_comparisons(n_min: int, n_max: int, d_max: int | None, full_range: bool) -> int:
    """The number of sigma pairs symmetry_report compares, the sum of its
    troughs' spans, in closed form: n^2 + n - 1 a trough with full_range,
    otherwise min(d_max, n), split at d_max into sum(n) below and d_max a
    trough above, with d_max = n_max by default."""
    def tri(n):  # 1 + 2 + ... + n
        return n * (n + 1) // 2

    def squares(n):  # 1 + 4 + ... + n^2
        return n * (n + 1) * (2 * n + 1) // 6

    lo = n_min - 1
    if full_range:
        return squares(n_max) - squares(lo) + tri(n_max) - tri(lo) - (n_max - lo)
    dm = n_max if d_max is None else d_max
    split = min(max(dm, lo), n_max)  # troughs n_min..split have span n
    return tri(split) - tri(lo) + dm * (n_max - split)


def symmetry_report(
    n_min: int = 2,
    n_max: int = 44,
    d_max: int | None = None,
    full_range: bool = False,
) -> dict:
    """Per-trough symmetry ratios plus the aggregate over all compared offsets.

    Trough n compares sigma(n(n+1) - d) with sigma(n(n+1) + d) for
    1 <= d <= min(d_max, n), which keeps both arguments between n^2 and
    (n+1)^2; d_max defaults to n.  full_range runs d to n(n+1) - 1
    instead, crossing square spikes, and so excludes d_max.  Every sigma
    is certified (certified_first_pair) and computed once for its a: with
    full_range in one list that every trough slices, otherwise trough by
    trough, as each window lies in n^2..n^2 + 2n.  More than
    SYMMETRY_MAX_COMPARISONS comparisons, counted in closed form
    (_symmetry_comparisons), are refused before any sigma is computed.
    """
    if n_min < 2 or n_max < n_min:
        raise ValueError("need 2 <= n_min <= n_max")
    if full_range and d_max is not None:
        raise ValueError("d_max and full_range exclude each other")
    if d_max is not None and d_max < 1:
        raise ValueError("d_max must be >= 1")
    cap = SYMMETRY_MAX_COMPARISONS
    count = _symmetry_comparisons(n_min, n_max, d_max, full_range)
    if count > cap:
        raise ValueError(f"symmetry would make {count} comparisons, over the cap of {cap}")
    from fractions import Fraction
    if full_range:  # shared[a - 1] = sigma(a); trough n's window 1..2n(n+1) - 1 is a prefix
        shared = [certified_first_pair(a)[1] for a in range(1, 2 * n_max * (n_max + 1))]
    per_n = []
    hits = 0
    for n in range(n_min, n_max + 1):
        center = n * (n + 1)
        if full_range:
            dm, below, above = center - 1, shared[center - 2::-1], shared[center:2 * center - 1]
        else:  # streamed, so no list of 2*dm sigma is held
            dm = n if d_max is None else min(d_max, n)
            below = (certified_first_pair(a)[1] for a in range(center - 1, center - dm - 1, -1))
            above = (certified_first_pair(a)[1] for a in range(center + 1, center + dm + 1))
        h = sum(map(eq, below, above))  # offset d: sigma(center - d) == sigma(center + d)
        per_n.append({"n": n, "center": center, "matches": h, "comparisons": dm})
        hits += h
    return {
        "per_n": per_n,
        "aggregate": Fraction(hits, count),
        "matches": hits,
        "comparisons": count,
    }


def off_bound_points(a_from: int, a_to: int) -> list[tuple[int, int]]:
    """(a, sigma(a)) for every a in range with sigma strictly above the
    bound sigma_1, read off the certified sweep rows (_sweep_rows)."""
    return [(a, s) for a, s, _, _, on, _, _ in _sweep_rows(a_from, a_to) if not on]


def _offbound_by_interval(n_from: int, n_to: int) -> list[tuple]:
    """(n, peak, minima) for each square interval n^2 < a < (n+1)^2 with
    n_from <= n <= n_to, read off one off_bound_points list each: peak is
    the off-bound (a, sigma) of largest sigma, ties to the smallest a, or
    None when the interval has no off-bound point; minima are the off-bound
    a with sigma(a) = 5, in order."""
    if n_from < 2 or n_to < n_from:
        raise ValueError("need 2 <= n_from <= n_to")
    out = []
    for n in range(n_from, n_to + 1):
        pts = off_bound_points(n * n + 1, (n + 1) ** 2 - 1)
        peak = max(pts, key=lambda p: (p[1], -p[0])) if pts else None
        out.append((n, peak, [a for a, s in pts if s == 5]))
    return out


def offbound_peaks(n_from: int, n_to: int) -> list[tuple[int, int, int]]:
    """(n, a_peak, sigma_peak) per square interval; intervals with no
    off-bound point are omitted.  Ties resolve to the smallest a."""
    return [(n, *peak) for n, peak, _ in _offbound_by_interval(n_from, n_to) if peak]


def offbound_minima(n: int) -> list[int]:
    """Off-bound a strictly between n^2 and (n+1)^2 with sigma(a) = 5."""
    if n < _MINIMA_FROM_N:
        raise ValueError(f"n must be >= {_MINIMA_FROM_N}")
    return _offbound_by_interval(n, n)[0][2]


def k_set(n: int) -> set[int]:
    """Curve indices realized on n^2 < a < (n+1)^2: the certified sweep
    rows' min_k, each read off its row's certified pair and checked by one
    sigma_k (sigmacore._pair_curve_index): about 0.09 s for the 20,000 rows
    at n = 10^4.

    sigma_k strictly increases in k (see sigmacore.sigma_k), so each a has
    only one k with sigma_k(a) = sigma(a), and this one set is both the
    least-index and the every-index convention.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return {row[5] for row in _sweep_rows(n * n + 1, (n + 1) ** 2 - 1)}


def _last_fall(a: int, k: int) -> int:
    """The last s at which tau(a, s) can fall from k.  tau(a, s+1) counts
    the integers in an open interval of length (s+1)*(sqrt(a+1) - sqrt(a)),
    so it is at least ceil of that length minus 1, and a fall from k at s
    needs s + 1 < k*(sqrt(a) + sqrt(a+1)), that is s <= k*sigma_upper(a) - 2."""
    return k * sigma_upper(a) - 2


def _tau_decrements(a: int, s_max: int, k_max: int):
    """Yield (s, k) for each s <= s_max with tau(a, s) = k, tau(a, s+1) = k-1:
    every such s for k <= k_max, and those below the scan's end for larger k.

    tau steps by at most 1, so every fall is a fall by exactly 1.  The scan
    visits s = 1..min(s_max, _last_fall(a, k_max)), carrying the count
    forward, one tau call per s.
    """
    prev = tau(a, 1)
    for s in range(1, min(s_max, _last_fall(a, k_max)) + 1):
        cur = tau(a, s + 1)
        if cur < prev:
            yield s, prev
        prev = cur


def conjecture1_search(a_max: int, k_max: int, s_max: int) -> dict[int, list[int | None]]:
    """First tau decrement from k to k-1 for every 2 <= a <= a_max, k <= k_max.

    Entry k-1 of a's list is the smallest s <= s_max with tau(a, s) = k and
    tau(a, s+1) = k-1, or None when there is none.  a = n^2 and n^2 - 1
    are left out: their tau profiles are nondecreasing, so no decrement
    step exists there.  Each a gets one tau scan over s, which ends once
    every k has its witness, and never passes _last_fall(a, k_max), past
    which no fall from k <= k_max exists (_tau_decrements).  A table
    of more than CONJECTURE1_MAX_FINDINGS findings, counted as
    (a_max - 1)*k_max, is refused before any scan.
    """
    if a_max < 2:
        raise ValueError("a_max must be >= 2")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    count = (a_max - 1) * k_max
    if count > CONJECTURE1_MAX_FINDINGS:
        raise ValueError(
            f"conjecture1 would hold {count} findings, over the cap of {CONJECTURE1_MAX_FINDINGS}")
    found: dict[int, list[int | None]] = {}
    for a in range(2, a_max + 1):
        if is_perfect_square(a) is not None or is_perfect_square(a + 1) is not None:
            continue
        first: list[int | None] = [None] * k_max
        for s, k in _tau_decrements(a, s_max, k_max):
            if k <= k_max and first[k - 1] is None:
                first[k - 1] = s
                if None not in first:
                    break
        found[a] = first
    return found


def upward_closure_check(a: int, s_max: int) -> list[int]:
    """All s <= s_max where tau(a, s) > 0 but tau(a, s+1) = 0, in order:
    the drops from 1 to 0, read off one side's crowding windows
    (sigmacore.zero_windows) in integers, with no tau call.

    Either side's windows alone hold tau's zero set.  Take a side as
    sigmacore._sides gives it, (top, base, rad_lo, den, rad_hi), and write
    its window j, as stated there, as [lo_j, hi_j].  On the left, for s >= 1
    write floor(s*sqrt(a)) = s*n + j, j >= 0 (at b = 0, s*sqrt(a) = s*n
    and j = 0).  The least integer above s*sqrt(a) is s*n + j + 1, so
    tau(a, s) = 0 iff s*n + j + 1 >= s*sqrt(a+1), that is
    s*(sqrt(a+1) - n) <= j + 1, or s <= hi_j; and for b >= 1,
    s*(sqrt(a) - n) lies in [j, j+1), that is lo_j <= s < lo_{j+1}.  On
    the right write ceil(s*sqrt(a+1)) = s*m - j, j >= 0 (at c = 1,
    s*sqrt(a+1) = s*m and j = 0).  The greatest integer below
    s*sqrt(a+1) is s*m - j - 1, so tau(a, s) = 0 iff
    s*(m - sqrt(a)) <= j + 1, or s <= hi_j; and for c >= 2,
    s*(m - sqrt(a+1)) lies in [j, j+1), so again lo_j <= s < lo_{j+1}.
    So on either side tau(a, s) = 0 iff s <= hi_j for the one j with
    lo_j <= s < lo_{j+1}: iff s lies in one of that side's windows, as
    hi_j < lo_{j+1} (zero_windows: A > B).  Windows past the side's last
    offset, top = b or c - 2, are empty (zero_windows).

    On each side lo_{j+1} - lo_j = (base + sqrt(rad_lo))/den >= 1: on the
    left n + sqrt(a) >= 2n >= b, on the right m + sqrt(a+1) > 2n + 1 >=
    c - 1.  Let s be a drop, with s + 1 in [lo_k, lo_{k+1}) and
    s + 1 <= hi_k.  Were s >= lo_k, window k would hold s too, so
    s < lo_k <= s + 1, and k >= 1 as lo_0 = 0.  Then den >= 1, so rad_lo
    is no square (b >= 1 makes a none, c >= 2 makes a + 1 none), lo_k is
    irrational and s = floor(lo_k); and k <= top, as window k is not
    empty.  Conversely take s = floor(lo_k), 1 <= k <= top, so s >= 1.
    As lo_k - 1 >= lo_{k-1}, s lies in [lo_{k-1}, lo_k), and s + 1 in
    [lo_k, lo_{k+1}), so s is a drop iff floor(hi_{k-1}) < s < floor(hi_k).
    The second test matters, as a window can be nonempty and hold no
    integer: the left window 1 at a = 2 is [1 + sqrt(2), 1 + sqrt(3)].
    Each floor is (p + isqrt(q^2*r))//d, as in sigma_k, and hi_k carries
    over to the next k, so a window costs two isqrt calls.

    floor(lo_k) >= k strictly increases in k, so the read stops at the
    first floor past s_max, after at most min(top, s_max) windows.  It
    reads the side with fewer windows, the smaller of the two tuples, as
    their tops b and c - 2 never tie (_sides): the left iff b < n, so
    top = min(b, c - 2) <= n - 1, and at b = 0 or c = 1 there is no drop.
    More than CLOSURE_MAX_STEPS windows, counted as min(top, s_max), are
    refused before any isqrt on k.  As n - 1 < _last_fall(a, 1) =
    2n - 1 + [b >= n], the count is never above the
    min(s_max, _last_fall(a, 1)) values of s that a tau scan
    (_tau_decrements, the test oracle) visits.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    return list(_side_drops(s_max, *min(_sides(a, *_frame(a)))))


def _side_drops(s_max: int, top: int, base: int, rad_lo: int, den: int, rad_hi: int):
    """Yield the drops s <= s_max off one side's windows k = 1..top, the
    side given as sigmacore._sides gives it (upward_closure_check)."""
    windows = min(top, s_max)
    if windows > CLOSURE_MAX_STEPS:
        raise ValueError(f"closure would read {windows} windows, over the cap of {CLOSURE_MAX_STEPS}")
    hi = (base + isqrt(rad_hi)) // (den + 1)
    for k in range(1, top + 1):
        lo = (k * base + isqrt(k * k * rad_lo)) // den
        if lo > s_max:
            return
        prev, hi = hi, ((k + 1) * base + isqrt((k + 1) * (k + 1) * rad_hi)) // (den + 1)
        if prev < lo < hi:
            yield lo


def _verdict(ok: bool) -> str:
    return "pass" if ok else "indeterminate"


def _report_symmetry(*, n_min: int, n_max: int, d_max: int | None, full_range: bool) -> dict:
    """Pass when the aggregate match share lies in [1/2, 7/10]."""
    from fractions import Fraction

    rep = symmetry_report(n_min=n_min, n_max=n_max, d_max=d_max, full_range=full_range)
    agg = rep["aggregate"]
    return {
        "aggregate": {"exact": f"{agg.numerator}/{agg.denominator}", "approx": f"{float(agg):.6f}"},
        "matches": rep["matches"],
        "comparisons": rep["comparisons"],
        "per_n": rep["per_n"],
        "verdict": _verdict(Fraction(1, 2) <= agg <= Fraction(7, 10)),
    }


def _report_kset(*, n: int) -> dict:
    """Pass when the curve index 1 is realized."""
    ks = sorted(k_set(n))
    findings = [
        # sigma_k strictly increases in k, so each a has exactly one matching
        # index: the least-index and every-index sets are the same set.
        {"check": "minimal subset of existential", "verdict": "pass"},
        {"check": "contains 1", "verdict": _verdict(1 in ks)},
    ]
    return {"minimal": ks, "existential": ks, "findings": findings,
            "verdict": _verdict(all(f["verdict"] == "pass" for f in findings))}


def _report_offbound(*, n_from: int, n_to: int) -> dict:
    """A peak passes at its interval's center n^2 + n - 1, and the sigma = 5
    minima pass as two points that straddle it."""
    peaks = []
    minima = []
    for n, peak, pts in _offbound_by_interval(n_from, n_to):
        center = n * n + n - 1
        if peak:
            at_center = peak[0] == center
            peaks.append({"n": n, "a_peak": peak[0], "sigma_peak": peak[1], "at_center": at_center,
                          "verdict": _verdict(at_center)})
        if n >= _MINIMA_FROM_N:
            ok = len(pts) == 2 and pts[0] < center < pts[1]
            minima.append({"n": n, "points": pts, "verdict": _verdict(ok)})
    return {"peaks": peaks, "minima": minima,
            "verdict": _verdict(all(e["verdict"] == "pass" for e in peaks + minima))}


def _report_conjecture1(*, a_max: int, k_max: int, s_max: int) -> dict:
    """Each (a, k) passes with its witness s, and is indeterminate with none."""
    findings = []
    for a, witnesses in conjecture1_search(a_max, k_max, s_max).items():
        for k, s in enumerate(witnesses, start=1):
            witness = {} if s is None else {"s": s}
            findings.append({"a": a, "k": k, **witness, "verdict": _verdict(s is not None)})
    indeterminate = sum(f["verdict"] != "pass" for f in findings)
    return {"findings": findings, "indeterminate_count": indeterminate,
            "verdict": _verdict(indeterminate == 0)}


def _report_closure(*, a: int, s_max: int) -> dict:
    """Fail on any drop, a definite exact finding; with none, pass only when
    s_max reaches the last s a drop can lie at (_last_fall)."""
    violations = upward_closure_check(a, s_max)
    verdict = "fail" if violations else _verdict(s_max >= _last_fall(a, 1))
    return {"violations": violations, "verdict": verdict}


# The `sqdenom analyze` reports by subcommand: each builder takes the
# subcommand's options as keywords and returns the findings and verdicts.
REPORTS = {
    "symmetry": _report_symmetry,
    "kset": _report_kset,
    "offbound": _report_offbound,
    "conjecture1": _report_conjecture1,
    "closure": _report_closure,
}
