"""Batch sweeps and the empirical harness built on the core counters.

Observation-style checks (near-symmetry of sigma around trough centers,
witness search for a conjectured decrement pattern in the counts,
upward-closure probes, off-bound structure) report findings; they never
decide correctness by themselves.  Hard guarantees live in the core
modules and their tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactmath import is_perfect_square
from .sigmacore import (
    ConsistencyError,
    _curve_index,
    certified_first_pair,
    min_k,
    sigma,
    sigma_lower,
    sigma_upper,
    tau,
)

__all__ = [
    "SweepRecord",
    "TauProfile",
    "sweep",
    "tau_profile",
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


class TauProfile(NamedTuple):
    """tau(a, s) for s = 1..s_max, as tau_profile checked it."""

    a: int
    counts: tuple[int, ...]


def tau_profile(a: int, s_max: int) -> TauProfile:
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


def _record(a: int) -> SweepRecord:
    """The row for a from one certified kernel call, once sigma is checked
    against its bounds.  On the bound, s = sigma_1(a) = sigma_k(a, 1), so
    the curve index is 1 with no further work; off it, the index comes in
    closed form from sigmacore._curve_index, two isqrt calls and one
    sigma_k check, instead of min_k's O(k) walk."""
    t, s = certified_first_pair(a)
    s1 = sigma_lower(a)
    upper = sigma_upper(a)
    if not (s1 <= s <= upper):
        raise ConsistencyError(f"bounds violated at a={a}")
    on_bound = s == s1
    return SweepRecord(a, s, s1, upper, on_bound, 1 if on_bound else _curve_index(a, s), t)


def sweep(a_from: int, a_to: int) -> list[SweepRecord]:
    """Records for a_from..a_to inclusive, in order, one after another.

    A row is about seven microseconds of exact integer work at small a
    (a <= 20000): one certified kernel call, sigma_1, and for an off-bound
    row the closed-form curve index.  This call never forks, as a library
    call must not start processes behind its caller's back; the `sqdenom
    sweep` command splits a long range over forked children, each of which
    runs this function on one block and sends back that block's finished
    CSV or JSON text (cli.plan_blocks, cli._block_text).
    """
    if a_from < 1 or a_to < a_from:
        raise ValueError("need 1 <= a_from <= a_to")
    return [_record(a) for a in range(a_from, a_to + 1)]


def write_csv(fh, header, rows) -> None:
    """Write header and rows in the one CSV dialect of every output.

    Every field of every row is an int, and a bool is written as 1/0; each
    row is a tuple as long as the header.  No such field needs quoting, so
    a header line and one "%d,...,%d" line per row are the bytes that
    csv.writer(fh, lineterminator="\\n") writes for the same rows.
    """
    line = ",".join(["%d"] * len(header)) + "\n"
    write = fh.write
    write(",".join(header) + "\n")
    for row in rows:
        write(line % row)


def on_bound_fraction(a_from: int, a_to: int) -> Fraction:
    """Exact share of a in [a_from, a_to] with sigma(a) = sigma_1(a).

    sigma >= sigma_1 everywhere, so these are the a off_bound_points omits.
    """
    off = len(off_bound_points(a_from, a_to))
    total = a_to - a_from + 1
    return Fraction(total - off, total)


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
    instead, crossing square spikes, and so excludes d_max.
    """
    if n_min < 2 or n_max < n_min:
        raise ValueError("need 2 <= n_min <= n_max")
    if full_range and d_max is not None:
        raise ValueError("d_max and full_range exclude each other")
    if d_max is not None and d_max < 1:
        raise ValueError("d_max must be >= 1")
    per_n = []
    hits = total = 0
    for n in range(n_min, n_max + 1):
        center = n * (n + 1)
        if full_range:
            dm = center - 1
        else:
            dm = n if d_max is None else min(d_max, n)
        h = sum(1 for d in range(1, dm + 1) if sigma(center - d) == sigma(center + d))
        per_n.append({"n": n, "center": center, "matches": h, "comparisons": dm})
        hits += h
        total += dm
    return {
        "per_n": per_n,
        "aggregate": Fraction(hits, total),
        "matches": hits,
        "comparisons": total,
    }


def off_bound_points(a_from: int, a_to: int) -> list[tuple[int, int]]:
    """(a, sigma(a)) for every a in range with sigma strictly above the bound."""
    if a_from < 1 or a_to < a_from:
        raise ValueError("need 1 <= a_from <= a_to")
    out = []
    for a in range(a_from, a_to + 1):
        s = sigma(a)
        if s > sigma_lower(a):
            out.append((a, s))
    return out


def offbound_peaks(n_from: int, n_to: int) -> list[tuple[int, int, int]]:
    """(n, a_peak, sigma_peak) per square interval; intervals with no
    off-bound point are omitted.  Ties resolve to the smallest a."""
    if n_from < 2 or n_to < n_from:
        raise ValueError("need 2 <= n_from <= n_to")
    peaks = []
    for n in range(n_from, n_to + 1):
        pts = off_bound_points(n * n + 1, (n + 1) ** 2 - 1)
        if pts:
            a_peak, s_peak = max(pts, key=lambda p: (p[1], -p[0]))
            peaks.append((n, a_peak, s_peak))
    return peaks


def offbound_minima(n: int) -> list[int]:
    """Off-bound a strictly between n^2 and (n+1)^2 with sigma(a) = 5."""
    if n < 7:
        raise ValueError("n must be >= 7")
    return [a for a, s in off_bound_points(n * n + 1, (n + 1) ** 2 - 1) if s == 5]


def k_set(n: int) -> set[int]:
    """Curve indices realized on n^2 < a < (n+1)^2: min_k(a) for each a.

    sigma_k strictly increases in k (see sigmacore.sigma_k), so min_k(a) is
    the only k with sigma_k(a) = sigma(a), and this one set is both the
    least-index and the every-index convention.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return {min_k(a) for a in range(n * n + 1, (n + 1) ** 2)}


def _tau_decrements(a: int, s_max: int):
    """Yield (s, k) for each s <= s_max with tau(a, s) = k, tau(a, s+1) = k-1.

    tau steps by at most 1, so every fall is a fall by exactly 1.  The
    count is carried forward: one tau call per s, s_max + 1 in all.
    """
    prev = tau(a, 1)
    for s in range(1, s_max + 1):
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
    every k has its witness.
    """
    if a_max < 2:
        raise ValueError("a_max must be >= 2")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    found: dict[int, list[int | None]] = {}
    for a in range(2, a_max + 1):
        if is_perfect_square(a) is not None or is_perfect_square(a + 1) is not None:
            continue
        first: list[int | None] = [None] * k_max
        for s, k in _tau_decrements(a, s_max):
            if k <= k_max and first[k - 1] is None:
                first[k - 1] = s
                if None not in first:
                    break
        found[a] = first
    return found


def upward_closure_check(a: int, s_max: int) -> list[int]:
    """All s <= s_max where tau(a, s) > 0 but tau(a, s+1) = 0: the
    decrements from 1 to 0."""
    if a < 1:
        raise ValueError("a must be >= 1")
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    return [s for s, k in _tau_decrements(a, s_max) if k == 1]
