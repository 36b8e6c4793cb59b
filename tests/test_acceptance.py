"""End-to-end acceptance gate: eleven checks, one printed verdict line each.

Every test times its own work, prints "[criterion NN] PASS/FAIL ..." with
the headline numbers, and then asserts.  The curve-index check (07) is
known to fail: the realized index set over 100^2 < a < 101^2 lacks 14
(the least-index and every-index conventions give one set, since sigma_k
strictly increases in k), and the test reports the computed set instead
of hiding the gap.
"""

import re
import time
from fractions import Fraction
from math import isqrt

from sqdenom import (
    FIG5_K_VALUES,
    conjecture1_search,
    first_rational_between,
    generate_figures,
    k_set,
    offbound_minima,
    offbound_peaks,
    on_bound_criterion,
    on_bound_fraction,
    sigma,
    sigma_lower,
    sigma_upper,
    sqrt_cf,
    symmetry_report,
    t_set,
    tau,
)
from conftest import brute_first_rational, tau_brute, tau_profile


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def _best_of(f, reps=5):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_worked_example(capsys):
    def bundle():
        assert sigma(8) == 6
        assert t_set(8, 6) == [17]
        f = first_rational_between(8, 9)
        assert (f.numerator**2, f.denominator**2) == (289, 36)
        assert all(tau(8, s) == 0 for s in range(2, 6))

    bundle()  # warm up and check correctness before timing
    elapsed = _best_of(bundle)
    ok = elapsed < 0.001
    _verdict(capsys, 1, ok, f"sigma(8)=6, T={{17}}, square 289/36, {elapsed*1e6:.0f} us")
    assert ok, f"worked example took {elapsed:.6f} s"


def test_criterion_02_continued_fraction_example(capsys):
    def bundle():
        cf = sqrt_cf(991)
        assert cf.a0 == 31 and cf.body[:4] == (2, 12, 10, 2)
        cf2 = sqrt_cf(992)
        assert cf2.a0 == 31 and cf2.body == (2, 62)
        assert first_rational_between(991, 992) == Fraction(850, 27)
        assert sigma(991) == 27
        assert t_set(991, 27) == [850]

    bundle()
    elapsed = _best_of(bundle)
    ok = elapsed < 0.010
    _verdict(capsys, 2, ok, f"sqrt(991) region: 850/27, sigma=27, {elapsed*1e3:.2f} ms")
    assert ok, f"continued fraction example took {elapsed:.6f} s"


def test_criterion_03_closed_form_families(capsys):
    t0 = time.perf_counter()
    for n in range(1, 1001):
        assert sigma(n * n + n) == 2
        assert t_set(n * n + n, 2) == [2 * n + 1]
        assert sigma(n * n) == 2 * n + 1
        assert t_set(n * n, 2 * n + 1) == [2 * n * n + n + 1]
        assert sigma(n * n - 1) == 2 * n
        assert t_set(n * n - 1, 2 * n) == [2 * n * n - 1]
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30
    _verdict(capsys, 3, ok, f"three families exact for n <= 1000, {elapsed:.2f} s")
    assert ok


def test_criterion_04_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    for a in range(1, 201):
        for s in range(1, 301):
            assert tau(a, s) == tau_brute(a, s), (a, s)
    for a in range(1, 5001):
        assert sigma(a) == brute_first_rational(a, a + 1).denominator, a
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    _verdict(capsys, 4, ok, f"tau oracle 200x300 and sigma vs brute scan to 5000, {elapsed:.2f} s")
    assert ok


def test_criterion_05_structural_invariants(capsys):
    t0 = time.perf_counter()
    # counts step by at most one and enter at one
    for a in range(1, 2001):
        tau_profile(a, sigma_upper(a) + 10)
    # the bound chain holds everywhere
    for a in range(1, 10001):
        assert sigma_lower(a) <= sigma(a) <= sigma_upper(a), a
    # the floor-drop test detects bound attainment exactly
    for a in range(2, 5001):
        assert on_bound_criterion(a) == (sigma(a) == sigma_lower(a)), a
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120
    _verdict(capsys, 5, ok, f"profiles to 2000, bounds to 10000, attainment to 5000, {elapsed:.2f} s")
    assert ok


def test_criterion_06_on_bound_share(capsys):
    t0 = time.perf_counter()
    share = on_bound_fraction(1, 500)
    elapsed = time.perf_counter() - t0
    ok = abs(float(share) - 0.628) <= 0.010 and elapsed < 1
    _verdict(capsys, 6, ok, f"share {share} = {float(share):.3f} vs 0.628 +/- 0.010, {elapsed:.2f} s")
    assert ok, f"on-bound share {share}"


def test_criterion_07_curve_index_set(capsys):
    t0 = time.perf_counter()
    expected = set(range(1, 16)) | {18, 19, 22, 29, 40}
    ks = k_set(100)
    elapsed = time.perf_counter() - t0
    ok = ks == expected and elapsed < 10
    _verdict(capsys, 7, ok, f"k_set={sorted(ks)} expected={sorted(expected)}, {elapsed:.2f} s")
    assert ok, (
        f"the curve index set differs from the expected one: "
        f"missing {sorted(expected - ks)}, extra {sorted(ks - expected)}; "
        f"the least-index and every-index conventions give this one set, "
        f"since sigma_k strictly increases in k; on n = 100 the neighbours "
        f"miss by one index (13 at a = 10065, 10086, 10103, 10119 and 10132, "
        f"15 at a = 10079 and 10097), and 14 is in k_set(n) for 928 of the "
        f"999 n in 2..1000, so the expected set describes a typical n and "
        f"n = 100 is not one"
    )


def test_criterion_08_off_bound_patterns(capsys):
    t0 = time.perf_counter()
    peaks = offbound_peaks(11, 20)
    peaks_ok = [(n, a) for n, a, _ in peaks] == [(n, n * n + n - 1) for n in range(11, 21)]
    sigmas_ok = [s for _, _, s in peaks] == [11, 11, 11, 13, 13, 15, 15, 15, 17, 17]
    minima_ok = True
    for n in range(7, 31):
        pts = offbound_minima(n)
        if len(pts) != 2 or not pts[0] < n * n + n - 1 < pts[1]:
            minima_ok = False
    elapsed = time.perf_counter() - t0
    ok = peaks_ok and sigmas_ok and minima_ok and elapsed < 10
    _verdict(
        capsys, 8, ok,
        f"peaks at center {peaks_ok}, sigma run {sigmas_ok}, "
        f"paired minima {minima_ok}, {elapsed:.2f} s",
    )
    assert ok


def test_criterion_09_symmetry_share(capsys):
    t0 = time.perf_counter()
    rep = symmetry_report(n_min=2, n_max=44)
    agg = rep["aggregate"]
    elapsed = time.perf_counter() - t0
    in_range = Fraction(1, 2) <= agg <= Fraction(7, 10)
    per_n_ok = len(rep["per_n"]) == 43 and all(e["comparisons"] > 0 for e in rep["per_n"])
    ok = in_range and per_n_ok and elapsed < 30
    _verdict(
        capsys, 9, ok,
        f"aggregate {agg} = {float(agg):.3f} over {rep['comparisons']} mirrored pairs "
        f"in 43 troughs, {elapsed:.2f} s",
    )
    assert ok
    print("per-n detail:", [(e["n"], e["matches"], e["comparisons"]) for e in rep["per_n"]])


def test_criterion_10_count_decrement_witnesses(capsys):
    t0 = time.perf_counter()
    monotone_ok = True
    for n in range(1, 51):
        for a in (n * n, n * n - 1):
            profile = [tau(a, s) for s in range(1, 201)]
            if any(y < x for x, y in zip(profile, profile[1:])):
                monotone_ok = False
    witnesses = 0
    indeterminate = []
    for a, found in conjecture1_search(300, 4, 500).items():
        for k, s in enumerate(found, start=1):
            if s is None:
                indeterminate.append((a, k))
            else:
                witnesses += 1
    elapsed = time.perf_counter() - t0
    ok = monotone_ok and elapsed < 60
    flagged_a = sorted({a for a, _ in indeterminate})
    _verdict(
        capsys, 10, ok,
        f"monotone at squares {monotone_ok}; {witnesses} witnesses, "
        f"{len(indeterminate)} indeterminate at a in {flagged_a}, {elapsed:.2f} s",
    )
    assert ok


def _read_csv_ints(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [[int(x) for x in line.split(",")] for line in lines[1:]]


def test_criterion_11_figure_regeneration(capsys, tmp_path):
    t0 = time.perf_counter()
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    paths = generate_figures(first)
    generate_figures(second)
    assert len(paths) == 13
    deterministic = all(
        (first / p.name).read_bytes() == (second / p.name).read_bytes() for p in paths
    )

    _, rows = _read_csv_ints(first / "fig1.csv")
    fig1_ok = [r[0] for r in rows] == list(range(1, 501))
    _, rows = _read_csv_ints(first / "fig2.csv")
    fig2_ok = len(rows) == 500 and all(r[2] <= r[1] <= r[3] for r in rows)
    _, rows = _read_csv_ints(first / "fig3.csv")
    fig3_ok = (
        min(r[0] for r in rows) == 8 and max(r[0] for r in rows) == 256
        and min(r[1] for r in rows) == 2 and max(r[1] for r in rows) == 100
    )
    _, rows = _read_csv_ints(first / "fig4.csv")
    fig4_ok = (
        min(r[0] for r in rows) == 1 and max(r[0] for r in rows) == 256
        and {r[2] for r in rows} <= {-1, 0, 1}
    )
    fills = set(re.findall(r'<rect[^>]*fill="([^"]+)"', (first / "fig4.svg").read_text()))
    three_color_ok = fills <= {"white", "black", "red", "none"} and {"black", "red"} <= fills

    _, rows = _read_csv_ints(first / "fig5.csv")
    fig5_ok = [r[0] for r in rows] == list(range(10000, 10202))
    _, rows = _read_csv_ints(first / "fig5_curves.csv")
    fig5_curves_ok = {r[1] for r in rows} == set(FIG5_K_VALUES)
    _, rows = _read_csv_ints(first / "fig6.csv")
    fig6_ok = (
        max(r[0] for r in rows) <= 2000
        and all(r[1] > sigma_lower(r[0]) for r in rows)
        and (131, 11) in {(r[0], r[1]) for r in rows}
    )

    elapsed = time.perf_counter() - t0
    checks = {
        "deterministic": deterministic,
        "fig1": fig1_ok, "fig2": fig2_ok, "fig3": fig3_ok, "fig4": fig4_ok,
        "three-color": three_color_ok, "fig5": fig5_ok,
        "fig5-curves": fig5_curves_ok, "fig6": fig6_ok,
    }
    ok = all(checks.values()) and elapsed < 120
    failed = [name for name, good in checks.items() if not good]
    _verdict(
        capsys, 11, ok,
        f"13 files, byte-identical reruns, ranges verified"
        + (f", failed: {failed}" if failed else "") + f", {elapsed:.2f} s",
    )
    assert ok, f"figure checks failed: {failed}"
