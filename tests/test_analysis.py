"""Sweeps and empirical structure reports over square intervals."""

import csv
import io
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqdenom import analysis, sigmacore
from sqdenom.analysis import (
    SweepRecord,
    TauProfile,
    conjecture1_search,
    k_set,
    off_bound_points,
    offbound_minima,
    offbound_peaks,
    on_bound_fraction,
    sweep,
    symmetry_report,
    tau_profile,
    upward_closure_check,
    write_csv,
)
from sqdenom.sigmacore import ConsistencyError, min_k, sigma, sigma_k, sigma_upper, tau

from conftest import cmp_int_vs_sum_sqrt, first_decrement


def test_sweep_single_records():
    assert sweep(1, 1) == [SweepRecord(1, 3, 3, 3, True, 1, 4)]
    assert sweep(8, 8) == [SweepRecord(8, 6, 6, 6, True, 1, 17)]
    assert sweep(19, 19) == [SweepRecord(19, 5, 3, 9, False, 2, 22)]


_csv_field = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**300) - 10**6, max_value=-(10**300) + 10**6),
    st.integers(min_value=10**300 - 10**6, max_value=10**300 + 10**6),
)


@given(st.data())
def test_write_csv_matches_the_csv_module(data):
    # csv.writer, given the same rows with int mapped over them, is the oracle
    width = data.draw(st.integers(min_value=1, max_value=7))
    rows = data.draw(st.lists(st.tuples(*[_csv_field] * width), max_size=20))
    bool_row = data.draw(st.tuples(st.booleans(), *[st.booleans() | _csv_field] * (width - 1)))
    rows.insert(data.draw(st.integers(min_value=0, max_value=len(rows))), bool_row)
    header = [f"c{i}" for i in range(width)]
    got, want = io.StringIO(newline=""), io.StringIO(newline="")
    write_csv(got, header, rows)
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(int, row) for row in rows)
    assert got.getvalue() == want.getvalue()


def test_sweep_curve_index_matches_the_min_k_walk():
    # off-bound rows take k in closed form; min_k's O(k) walk is the oracle
    for r in sweep(1, 20000):
        assert r.min_k == min_k(r.a, r.sigma), r.a


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(0, 5)
    with pytest.raises(ValueError):
        sweep(5, 2)


def test_sweep_record_rejects_inconsistent_rows(monkeypatch):
    # at a = 19: sigma_1 = 3, upper bound 9, and t_set(19, 5) == [22]
    with monkeypatch.context() as m:
        for pair in [(9, 2), (44, 10), (23, 5)]:
            m.setattr(sigmacore, "first_pair_between", lambda x, y, pair=pair: pair)
            with pytest.raises(ConsistencyError):
                sweep(19, 19)
    # a certified sigma = 5 below a lower bound of 6 breaks the row check
    monkeypatch.setattr(analysis, "sigma_lower", lambda a: 6)
    with pytest.raises(ConsistencyError, match="bounds violated"):
        sweep(19, 19)


def test_tau_profile_shape(monkeypatch):
    assert tau_profile(8, 10).counts == (0, 0, 0, 0, 0, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        tau_profile(8, 0)
    # a jump of two in one step is impossible
    monkeypatch.setattr(analysis, "tau", lambda a, s: (0, 0, 2)[s - 1])
    with pytest.raises(ValueError):
        tau_profile(99, 3)
    # counts may fall back to zero and re-enter, always through one
    monkeypatch.setattr(analysis, "tau", lambda a, s: (0, 1, 0, 1, 2, 1)[s - 1])
    assert tau_profile(99, 6) == TauProfile(99, (0, 1, 0, 1, 2, 1))


def test_on_bound_fraction_value():
    assert on_bound_fraction(1, 500) == Fraction(157, 250)
    assert abs(float(on_bound_fraction(1, 500)) - 0.628) < 1e-12
    with pytest.raises(ValueError):
        on_bound_fraction(3, 2)


def test_symmetry_stats():
    assert symmetry_report(3, 3, d_max=2)["aggregate"] == 1
    assert symmetry_report(2, 2, d_max=2)["aggregate"] == Fraction(1, 2)
    assert symmetry_report(3, 3, full_range=True)["aggregate"] == Fraction(2, 11)
    with pytest.raises(ValueError):
        symmetry_report(1, 1, d_max=1)
    with pytest.raises(ValueError):
        symmetry_report(5, 5, d_max=2, full_range=True)
    with pytest.raises(ValueError):
        symmetry_report(5, 5, d_max=0)


def test_symmetry_report_aggregate():
    rep = symmetry_report()
    assert rep["aggregate"] == Fraction(560, 989)
    assert rep["matches"] == 560
    assert rep["comparisons"] == 989
    assert len(rep["per_n"]) == 43
    first = rep["per_n"][0]
    assert first["n"] == 2 and first["center"] == 6 and first["comparisons"] == 2
    # offsets are clipped to the trough radius
    assert all(e["comparisons"] == e["n"] for e in rep["per_n"])


def test_symmetry_report_variants():
    rep = symmetry_report(n_min=3, n_max=5, d_max=2)
    assert all(e["comparisons"] == 2 for e in rep["per_n"])
    rep = symmetry_report(n_min=3, n_max=4, full_range=True)
    assert [e["comparisons"] for e in rep["per_n"]] == [11, 19]
    with pytest.raises(ValueError):
        symmetry_report(n_min=5, n_max=3)


def test_off_bound_points():
    pts = off_bound_points(1, 100)
    assert (54, 5) in pts and (57, 5) in pts
    assert all(a not in (8,) for a, _ in pts)
    with pytest.raises(ValueError):
        off_bound_points(0, 10)


def test_offbound_peaks_frozen_window():
    assert offbound_peaks(11, 20) == [
        (11, 131, 11),
        (12, 155, 11),
        (13, 181, 11),
        (14, 209, 13),
        (15, 239, 13),
        (16, 271, 15),
        (17, 305, 15),
        (18, 341, 15),
        (19, 379, 17),
        (20, 419, 17),
    ]
    with pytest.raises(ValueError):
        offbound_peaks(1, 5)


def test_offbound_minima():
    assert offbound_minima(7) == [54, 57]
    for n in range(7, 16):
        pts = offbound_minima(n)
        assert len(pts) == 2
        assert pts[0] < n * n + n - 1 < pts[1]
    with pytest.raises(ValueError):
        offbound_minima(6)


def test_k_set_values():
    assert k_set(2) == {1}
    assert k_set(10) == {1, 2, 3, 4}
    # 14 is never the matching curve index anywhere in this interval
    expected = set(range(1, 14)) | {15, 18, 19, 22, 29, 40}
    assert k_set(100) == expected


def test_k_set_minimal_is_subset_of_existential():
    # the every-index convention, scanned over all k <= sigma(a), finds
    # exactly one index per a: the least one that k_set collects
    for n in range(2, 31):
        existential = set()
        for a in range(n * n + 1, (n + 1) ** 2):
            s = sigma(a)
            ks = [k for k in range(1, s + 1) if sigma_k(a, k) == s]
            assert ks == [min_k(a, s)], a
            existential.update(ks)
        assert k_set(n) == existential, n


def test_k_set_validation():
    with pytest.raises(ValueError):
        k_set(1)


def test_conjecture1_search():
    assert conjecture1_search(19, 1, 100)[19] == [5]
    assert conjecture1_search(12, 1, 100)[12] == [2]
    assert conjecture1_search(2, 3, 4)[2][2] is None
    # a = n^2 and n^2 - 1 (3, 4, 8, 9) are skipped, not rejected
    assert list(conjecture1_search(10, 1, 10)) == [2, 5, 6, 7, 10]
    for bad in [(1, 1, 10), (19, 0, 10), (19, 1, 0)]:
        with pytest.raises(ValueError):
            conjecture1_search(*bad)


def test_conjecture1_search_matches_per_k_scan():
    # s_max = 3 leaves most entries None; 300 lets most a stop early
    for s_max in (3, 40, 300):
        found = conjecture1_search(150, 6, s_max)
        assert list(found) == [
            a for a in range(2, 151) if isqrt(a) ** 2 != a and isqrt(a + 1) ** 2 != a + 1
        ]
        for a, witnesses in found.items():
            assert witnesses == [first_decrement(a, k, s_max) for k in range(1, 7)], (a, s_max)


def test_conjecture1_witness_is_genuine():
    from sqdenom.sigmacore import ConsistencyError, min_k, sigma, sigma_k, tau

    for a, k in [(19, 1), (12, 1), (19, 2), (54, 2)]:
        s = conjecture1_search(a, k, 500)[a][k - 1]
        assert s is not None
        assert tau(a, s) == k and tau(a, s + 1) == k - 1


def test_upward_closure_check():
    assert upward_closure_check(12, 3) == [2]
    assert upward_closure_check(2, 100) == []
    for a in range(1, 201):
        expected = [s for s in range(1, 301) if tau(a, s) > 0 and tau(a, s + 1) == 0]
        assert upward_closure_check(a, 300) == expected, a
    with pytest.raises(ValueError):
        upward_closure_check(0, 5)
    with pytest.raises(ValueError):
        upward_closure_check(5, 0)


def test_tau_decrements_stay_below_the_bound():
    # tau(a, s+1) counts the integers in an open interval of length
    # (s+1)*(sqrt(a+1) - sqrt(a)), so a drop from k at s needs
    # s + 1 < k*(sqrt(a) + sqrt(a+1)); scan far past that bound
    for a in range(1, 1001):
        upper = sigma_upper(a)
        counts = [tau(a, s) for s in range(1, 8 * upper + 2)]
        for s in range(1, 8 * upper + 1):
            k = counts[s - 1]
            if counts[s] < k:
                if k == 1:
                    assert s <= upper - 2, (a, s)
                if 2 <= a <= 300 and k <= 4:
                    assert cmp_int_vs_sum_sqrt(s + 1, k, a) == -1, (a, s, k)
