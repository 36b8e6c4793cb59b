"""Sweeps and empirical structure reports over square intervals."""

import contextlib
import csv
import io
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqdenom import analysis, cli, confrac, sigmacore
from sqdenom.analysis import (
    SweepRecord,
    conjecture1_search,
    k_set,
    off_bound_points,
    offbound_minima,
    offbound_peaks,
    on_bound_fraction,
    sweep,
    symmetry_report,
    upward_closure_check,
)
from sqdenom.figures import write_csv
from sqdenom.sigmacore import ConsistencyError, min_k, sigma, sigma_k, sigma_upper, tau

import conftest
from conftest import (
    TauProfile,
    cmp_int_vs_sum_sqrt,
    first_decrement,
    k_set_walk,
    off_bound_points_walk,
    sweep_record,
    symmetry_walk,
    tau_profile,
)


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
        assert r.min_k == min_k(r.a), r.a


# first a of a sweep range: small, anywhere up to 10^300 (mid-interval,
# almost surely), or a few below to one above a square n^2, so that the
# range crosses n^2 - 1, n^2 and n^2 + 1 and the row loop changes frame
_sweep_from = st.one_of(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=10**300),
    st.builds(lambda n, d: max(n * n + d, 1),
              st.one_of(st.integers(min_value=1, max_value=1000),
                        st.integers(min_value=1, max_value=10**150)),
              st.integers(min_value=-3, max_value=1)),
)


@settings(max_examples=300, deadline=None)
@given(_sweep_from, st.integers(min_value=1, max_value=40))
@example(8, 1)  # a + 1 = 9: sigma_1 takes isqrt(a+1) = m
@example(9, 1)  # a = n^2: b + 1 = 1
@example(10**200 - 1, 1)  # a = m^2 - 1: c = 1
@example(10**200 - 2, 4)  # across the square 10^200
@example(10**200 + 10**100 - 1, 2)  # b = n - 1, n: upper = 2n + 1, 2n + 2
@example(1, 40)  # across 4, 9, 16, 25 and 36
def test_sweep_rows_match_the_per_row_oracle(a_from, rows):
    a_to = a_from + rows - 1
    want = [sweep_record(a) for a in range(a_from, a_to + 1)]
    assert sweep(a_from, a_to) == want
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["sweep", "--from", str(a_from), "--to", str(a_to)]) == 0
    assert out.getvalue() == "a,sigma,sigma1,upper,on_bound,min_k,t_first\n" + "".join(
        "%d,%d,%d,%d,%d,%d,%d\n" % r for r in want)


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(0, 5)
    with pytest.raises(ValueError):
        sweep(5, 2)


def test_sweep_record_rejects_inconsistent_rows(monkeypatch):
    # at a = 19 (n = 4, b = 3, c = 6): sigma_1 = 3, upper bound 9, and
    # the kernel's pair is 22/5 between its parents 13/3 and 9/2
    assert sigmacore._first_pair_in_frame(19, 20, 4, 3, 4) == (22, 5, 9, 2)
    with monkeypatch.context() as m:
        # outside, not coprime, inside but not first (22/5, one parent of
        # 35/8, lies inside too), and the right pair with a p/q that is no
        # parent of it
        for quad in [(9, 2, 4, 1), (44, 10, 22, 5), (23, 5, 9, 2), (35, 8, 13, 3),
                     (35, 8, 22, 5), (22, 5, 4, 1), (22, 5, 22, 5)]:
            m.setattr(sigmacore, "_first_pair_in_frame", lambda x, y, n, rx, ry, quad=quad: quad)
            with pytest.raises(ConsistencyError, match="sigma certificate failed at a=19"):
                sweep(19, 19)
        # either parent certifies the right pair
        m.setattr(sigmacore, "_first_pair_in_frame", lambda x, y, n, rx, ry: (22, 5, 13, 3))
        assert sweep(19, 19)[0].t_first == 22
    # a certified sigma = 5 below a lower bound of 6 breaks the row check
    with monkeypatch.context() as m:
        m.setattr(analysis, "_top_floor", lambda *frame: 5)
        with pytest.raises(ConsistencyError, match="bounds violated"):
            sweep(19, 19)
    # so does sigma = 10 above the upper bound of 9, once its certificate is
    # forced through
    monkeypatch.setattr(sigmacore, "_parents_outside", lambda *pair: True)
    with monkeypatch.context() as m:
        m.setattr(sigmacore, "_first_pair_in_frame", lambda x, y, n, rx, ry: (44, 10, 0, 1))
        with pytest.raises(ConsistencyError, match="bounds violated"):
            sweep(19, 19)
    # an off-bound sigma = 4 whose t/s is not inside (4, 5) leaves
    # u = t - 4s or v = 5s - t at most 0: refused before any floor of k <= 0
    top_floor = sigmacore._top_floor

    def floor_of_positive_k(k, *frame):
        assert k >= 1
        return top_floor(k, *frame)

    monkeypatch.setattr(sigmacore, "_top_floor", floor_of_positive_k)
    for t in (15, 16, 20, 21):
        with monkeypatch.context() as m:
            m.setattr(sigmacore, "_first_pair_in_frame", lambda x, y, n, rx, ry, t=t: (t, 4, 0, 1))
            with pytest.raises(ConsistencyError, match="no curve index k <= 4 matches sigma"):
                sweep(19, 19)


def test_sweep_rows_count_their_work(monkeypatch):
    # one kernel descent a row, entered in a's frame with no isqrt, the
    # rows at an interval's ends included; a row reads its upper bound off
    # the frame and, off the bound, takes two isqrt for its sigma_k check
    calls = Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for module in (confrac, sigmacore, analysis):
        monkeypatch.setattr(module, "isqrt", counted(module.__name__, module.isqrt))
    monkeypatch.setattr(confrac, "_descend", counted("descend", confrac._descend))
    seen = Counter()
    rows = 0
    for a, _, _, _, on_bound, _, _ in analysis._sweep_rows(1, 2000):
        work = calls - seen
        seen = calls.copy()
        rows += 1
        assert work["descend"] == 1, a
        assert work["sqdenom.confrac"] == 0, a
        # the walk's isqrt(a_from) falls in its first row
        assert work["sqdenom.sigmacore"] + work["sqdenom.analysis"] == (
            0 if on_bound else 2) + (a == 1), a
    assert rows == 2000
    # a point query works out a's frame with one isqrt
    for a in (0, 1, 3, 4, 8, 19, 991, 10**200, 10**200 + 2 * 10**100):
        for query in (sigmacore.sigma, sigmacore.certified_first_pair):
            calls.clear()
            query(a)
            assert calls["descend"] == 1 and calls["sqdenom.confrac"] == 0, (query, a)
            assert calls["sqdenom.sigmacore"] == 1, (query, a)


def test_tau_profile_shape(monkeypatch):
    assert tau_profile(8, 10).counts == (0, 0, 0, 0, 0, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        tau_profile(8, 0)
    # a jump of two in one step is impossible
    monkeypatch.setattr(conftest, "tau", lambda a, s: (0, 0, 2)[s - 1])
    with pytest.raises(ValueError):
        tau_profile(99, 3)
    # counts may fall back to zero and re-enter, always through one
    monkeypatch.setattr(conftest, "tau", lambda a, s: (0, 1, 0, 1, 2, 1)[s - 1])
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


def _span_sum(n_min, n_max, d_max, full_range):
    return sum(n * (n + 1) - 1 if full_range else n if d_max is None else min(d_max, n)
               for n in range(n_min, n_max + 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=3000), st.integers(min_value=0, max_value=3000),
       st.one_of(st.none(), st.integers(min_value=1, max_value=4000)), st.booleans())
@example(2, 0, None, True)
@example(5, 10, 5, False)  # d_max = n_min
@example(5, 10, 4, False)  # d_max below every trough
@example(5, 10, 10, False)  # d_max = n_max
def test_symmetry_count_in_closed_form(n_min, width, d_max, full_range):
    if full_range:
        d_max = None
    n_max = n_min + width
    assert analysis._symmetry_comparisons(n_min, n_max, d_max, full_range) == _span_sum(
        n_min, n_max, d_max, full_range)


def test_symmetry_count_takes_no_trough_walk():
    # troughs 2..10^30: a sum over them would never end
    n = 10**30
    assert analysis._symmetry_comparisons(2, n, None, False) == n * (n + 1) // 2 - 1
    assert analysis._symmetry_comparisons(2, n, 7, False) == 2 + 3 + 4 + 5 + 6 + 7 * (n - 6)
    assert analysis._symmetry_comparisons(2, n, None, True) == (
        n * (n + 1) * (2 * n + 1) // 6 + n * (n + 1) // 2 - n - 1)


def test_symmetry_report_refuses_more_comparisons_than_the_cap(monkeypatch):
    assert analysis.SYMMETRY_MAX_COMPARISONS == 10**6  # the documented cap
    n = 10**6
    full = n * (n + 1) * (2 * n + 1) // 6 + n * (n + 1) // 2 - n - 1  # sum of n(n+1) - 1 over 2..n
    with monkeypatch.context() as m:
        # every refusal comes from the count, before any sigma is computed
        m.setattr(sigmacore, "_first_pair_in_frame", lambda *args: pytest.fail("compared"))
        with pytest.raises(ValueError, match=rf"^symmetry would make {full} comparisons, "
                                             r"over the cap of 1000000$"):
            symmetry_report(2, n, full_range=True)
        # 10^18 troughs: the closed form counts them with no trough walk
        big = 10**18 * (10**18 + 1) // 2 - 1
        with pytest.raises(ValueError, match=rf"^symmetry would make {big} "
                                             r"comparisons, over the cap of 1000000$"):
            symmetry_report(2, 10**18)
        monkeypatch.setattr(analysis, "SYMMETRY_MAX_COMPARISONS", 2)
        with pytest.raises(ValueError, match=r"^symmetry would make 3 comparisons, "
                                             r"over the cap of 2$"):
            symmetry_report(2, 4, d_max=1)
    # at the cap a report is made; one comparison more is refused.  Troughs
    # 2..4 make 2 + 3 + 4 = 9 by default and 2 + 3 + 3 = 8 at d_max = 3;
    # --full-range troughs 2..3 make 5 + 11 = 16
    for kwargs, count in (({}, 9), ({"d_max": 3}, 8), ({"full_range": True}, 16)):
        n_max = 3 if "full_range" in kwargs else 4
        monkeypatch.setattr(analysis, "SYMMETRY_MAX_COMPARISONS", count)
        assert symmetry_report(2, n_max, **kwargs)["comparisons"] == count
        monkeypatch.setattr(analysis, "SYMMETRY_MAX_COMPARISONS", count - 1)
        with monkeypatch.context() as m:
            m.setattr(sigmacore, "_first_pair_in_frame", lambda *args: pytest.fail("compared"))
            with pytest.raises(ValueError, match=rf"^symmetry would make {count} comparisons, "
                                                 rf"over the cap of {count - 1}$"):
                symmetry_report(2, n_max, **kwargs)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=12),
       st.one_of(st.none(), st.integers(min_value=1, max_value=60), st.just("full")))
@example(2, 42, None)  # the default report, troughs 2..44
@example(2, 42, 3)
@example(5, 25, 40)
@example(2, 42, "full")
@example(10**20, 2, 7)  # troughs near 10^40
def test_symmetry_report_matches_the_point_sigma_oracle(n_min, width, mode):
    full_range = mode == "full"
    d_max = None if full_range else mode
    n_max = n_min + width
    rep = symmetry_report(n_min, n_max, d_max, full_range)
    per_n = symmetry_walk(n_min, n_max, d_max, full_range)
    assert rep["per_n"] == per_n
    assert rep["matches"] == sum(e["matches"] for e in per_n)
    assert rep["comparisons"] == sum(e["comparisons"] for e in per_n)
    assert rep["aggregate"] == Fraction(rep["matches"], rep["comparisons"])


def test_symmetry_report_certifies_each_a_once(monkeypatch):
    certified, descents = Counter(), Counter()
    certify, descend = sigmacore._certified_pair_in_frame, sigmacore._first_pair_in_frame

    def counted_certify(a, n, b1):
        certified[a] += 1
        return certify(a, n, b1)

    def counted_descend(x, y, n, rx, ry):
        descents[x] += 1
        return descend(x, y, n, rx, ry)

    monkeypatch.setattr(sigmacore, "_certified_pair_in_frame", counted_certify)
    monkeypatch.setattr(sigmacore, "_first_pair_in_frame", counted_descend)
    # --full-range troughs 2..44 slice one list over 1..2*44*45 - 1: 3,959
    # certificates where the point loop made 60,630 sigma calls.  Every
    # descent is a certificate's, so no sigma compared goes uncertified
    symmetry_report(2, 44, full_range=True)
    assert sorted(certified) == list(range(1, 3960))
    assert set(certified.values()) == {1} and descents == certified
    # trough n's window n(n+1) - dm..n(n+1) + dm lies in n^2..n^2 + 2n, its
    # own, and the centre, never compared, is not certified
    for d_max in (None, 3):
        certified.clear()
        descents.clear()
        symmetry_report(2, 44, d_max)
        compared = [n * (n + 1) + d for n in range(2, 45)
                    for dm in [n if d_max is None else min(d_max, n)]
                    for d in range(-dm, dm + 1) if d]
        assert sorted(certified) == compared, d_max
        assert set(certified.values()) == {1} and descents == certified, d_max


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
    for bad in [(0, 10), (5, 4)]:
        with pytest.raises(ValueError, match="need 1 <= a_from <= a_to"):
            off_bound_points(*bad)


@settings(max_examples=200, deadline=None)
@given(_sweep_from, st.integers(min_value=1, max_value=40))
@example(1, 2000)  # fig6's range
@example(10**200 - 2, 4)  # across the square 10^200
def test_off_bound_points_match_the_per_a_oracle(a_from, rows):
    a_to = a_from + rows - 1
    assert off_bound_points(a_from, a_to) == off_bound_points_walk(a_from, a_to)


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
            assert ks == [min_k(a)], a
            existential.update(ks)
        assert k_set(n) == existential, n


def test_k_set_matches_the_min_k_walk():
    for n in (300, 1000):
        assert k_set(n) == k_set_walk(n), n


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


def _side_args(a):
    """(top, base, rad_lo, den, rad_hi) of a's left and right windows,
    restated independently of sigmacore._sides."""
    n = isqrt(a)
    b = a - n * n
    c = 2 * n + 1 - b
    return (b, n, a, b, a + 1), (c - 2, n + 1, a + 1, c - 1, a)


def _scan_drops(a, s_max):
    return [s for s, k in analysis._tau_decrements(a, s_max, 1) if k == 1]


def test_either_side_of_the_windows_gives_the_scan_drops(monkeypatch):
    # every a <= 3000, read off the left side, the right side and the side
    # upward_closure_check chooses, against the tau scan computed first
    cases = [(a, s_max) for a in range(1, 3001)
             for s_max in (3 * analysis._last_fall(a, 1) + 5, *range(1, 11))]
    want = [_scan_drops(a, s_max) for a, s_max in cases]
    monkeypatch.setattr(analysis, "tau", lambda a, s: pytest.fail("tau called"))
    monkeypatch.setattr(analysis, "_tau_decrements", lambda *args: pytest.fail("scanned"))
    for a in range(1, 3001):
        # the library's sides equal the restatement, and the smaller tuple
        # is the side with the smaller top
        sides = _side_args(a)
        assert sigmacore._sides(a, *sigmacore._frame(a)) == sides, a
        assert min(sides)[0] == min(side[0] for side in sides), a
    for (a, s_max), drops in zip(cases, want):
        left, right = _side_args(a)
        assert list(analysis._side_drops(s_max, *left)) == drops, (a, s_max, "left")
        assert list(analysis._side_drops(s_max, *right)) == drops, (a, s_max, "right")
        assert upward_closure_check(a, s_max) == drops, (a, s_max)


def test_window_drops_skip_a_window_with_no_integer():
    # a = 2: left window 1 is [1 + sqrt(2), 1 + sqrt(3)], about [2.41, 2.73];
    # floor(lo_1) = 2 sits above window 0's floor(hi_0) = 1, yet s + 1 = 3
    # lies past the window, so tau(2, 3) = 1 and 2 is no drop
    left, right = _side_args(2)
    assert left == (1, 1, 2, 1, 3) and right[0] == 0
    assert list(analysis._side_drops(100, *left)) == [] == upward_closure_check(2, 100)
    assert (tau(2, 1), tau(2, 2), tau(2, 3)) == (0, 1, 1)
    # n^2 (b = 0) and n^2 - 1 (c = 1) keep window 0 alone: no drop at any s
    for n in (2, 3, 10, 10**6, 10**150):
        for a in (n * n, n * n - 1):
            assert upward_closure_check(a, 10**400) == [], a


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 149).flatmap(lambda e: st.integers(10**e, 10**(e + 1))),
       offset=st.sampled_from(["0", "1", "7", "n - 1", "n", "2n - 1", "2n", "any"]),
       any_b=st.integers(0, 2 * 10**150), s_max=st.integers(1, 2999))
@example(n=10**6, offset="n - 1", any_b=0, s_max=2999)
def test_window_drops_match_the_scan_at_every_scale(n, offset, any_b, s_max):
    b = {"0": 0, "1": 1, "7": 7, "n - 1": n - 1, "n": n, "2n - 1": 2 * n - 1, "2n": 2 * n,
         "any": any_b % (2 * n + 1)}[offset]
    a = n * n + b
    assert upward_closure_check(a, s_max) == _scan_drops(a, s_max)
    # the windows counted against the cap are never more than the s a scan visits
    top = min(side[0] for side in _side_args(a))
    assert min(top, s_max) <= min(s_max, analysis._last_fall(a, 1))


def test_upward_closure_check_reads_no_tau(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(analysis, "tau", lambda a, s: pytest.fail("tau called"))
        m.setattr(analysis, "_tau_decrements", lambda *args: pytest.fail("scanned"))
        # a = 10^24 + 7 has b = 7: seven windows answer, where a scan would
        # take 2*10^12 steps
        big = upward_closure_check(10**24 + 7, 10**13)
        # (10^12 + 1)^2 - 2 has c = 2: its right side has window 0 alone
        assert upward_closure_check((10**12 + 1) ** 2 - 2, 10**13) == []
        assert upward_closure_check(5, 10**12) == upward_closure_check(5, 100) == []
    assert big[:3] == [285714285714, 571428571428, 857142857142]
    for s in big:
        assert (tau(10**24 + 7, s), tau(10**24 + 7, s + 1)) == (1, 0), s


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


@settings(max_examples=60, deadline=None)
@given(a=st.one_of(st.integers(2, 300), st.integers(301, 10**5)),
       k_max=st.integers(1, 5), past=st.integers(0, 300))
@example(a=19, k_max=4, past=0)  # s_max is the conjecture1 scan's own bound plus 2
@example(a=12, k_max=1, past=0)
def test_decrement_scans_stop_at_the_bound(a, k_max, past):
    # s_max is drawn past k_max*sigma_upper(a) - 2, where the bounded scans
    # stop; they still give the per-k oracle's and the unbounded scan's answers
    s_max = k_max * sigma_upper(a) + past
    unbounded = [(s, tau(a, s)) for s in range(1, s_max + 1) if tau(a, s + 1) < tau(a, s)]
    assert upward_closure_check(a, s_max) == [s for s, k in unbounded if k == 1]
    if a > 300:
        return  # conjecture1_search scans every a' <= a
    found = conjecture1_search(a, k_max, s_max)
    if isqrt(a) ** 2 == a or isqrt(a + 1) ** 2 == a + 1:
        assert a not in found
        return
    ks = range(1, k_max + 1)
    assert found[a] == [first_decrement(a, k, s_max) for k in ks]
    assert found[a] == [next((s for s, j in unbounded if j == k), None) for k in ks]


def test_decrement_scans_cost_the_bound_not_s_max(monkeypatch):
    # each scan asks tau for s up to its bound + 1, however far s_max goes
    scanned = {}
    count = analysis.tau

    def counted(a, s):
        if s > 10**4:
            pytest.fail(f"tau scanned to s={s}")
        scanned[a] = max(s, scanned.get(a, 0))
        return count(a, s)

    monkeypatch.setattr(analysis, "tau", counted)
    # upward_closure_check reads the windows and asks tau nothing
    assert upward_closure_check(5, 10**12) == upward_closure_check(5, 100)
    assert scanned == {}
    assert conjecture1_search(30, 4, 10**12) == conjecture1_search(30, 4, 10**4)
    assert all(s <= 4 * sigma_upper(a) - 1 for a, s in scanned.items())
    # a = 26 = 5^2 + 1 has no witness at all, so its scan runs to the bound
    assert scanned[26] == 4 * sigma_upper(26) - 1


def test_last_fall_is_the_last_s_the_decrement_scan_visits(monkeypatch):
    visited = []
    count = analysis.tau
    monkeypatch.setattr(analysis, "tau", lambda a, s: visited.append(s) or count(a, s))
    for a in range(1, 301):
        for k in range(1, 5):
            visited.clear()
            list(analysis._tau_decrements(a, 10**12, k))
            # the scan at s asks tau for s + 1
            assert max(visited) - 1 == analysis._last_fall(a, k), (a, k)


def test_upward_closure_check_refuses_a_scan_over_the_cap(monkeypatch):
    assert analysis.CLOSURE_MAX_STEPS == 10**6  # the documented cap
    # min(top, s_max) windows are counted before any is read: 10^21 + 7 has
    # b = 43246886806 and c = 19998666397, so the right side's c - 2
    with monkeypatch.context() as m:
        m.setattr(analysis, "isqrt", lambda x: pytest.fail("read"))
        with pytest.raises(ValueError, match=r"^closure would read 19998666395 windows, "
                                             r"over the cap of 1000000$"):
            list(analysis._side_drops(10**12, *_side_args(10**21 + 7)[1]))
    monkeypatch.setattr(analysis, "tau", lambda a, s: pytest.fail("scanned"))
    with pytest.raises(ValueError, match=r"^closure would read 19998666395 windows, "
                                         r"over the cap of 1000000$"):
        upward_closure_check(10**21 + 7, 10**12)
    # at a lowered cap a read of the cap runs and one window more is refused:
    # a = 19 = 4^2 + 3 reads left windows 1..3, a = 29 = 5^2 + 4 windows 1..4
    monkeypatch.setattr(analysis, "CLOSURE_MAX_STEPS", 3)
    for s_max in (4, 10**12):
        with pytest.raises(ValueError, match=r"^closure would read 4 windows, "
                                             r"over the cap of 3$"):
            upward_closure_check(29, s_max)
    assert upward_closure_check(29, 3) == []
    assert upward_closure_check(19, 10**12) == [5]


def test_conjecture1_search_refuses_a_table_over_the_cap(monkeypatch):
    assert analysis.CONJECTURE1_MAX_FINDINGS == 10**6  # the documented cap
    # (a_max - 1)*k_max is counted before any table slot or tau scan
    with monkeypatch.context() as m:
        m.setattr(analysis, "tau", lambda a, s: pytest.fail("scanned"))
        with pytest.raises(ValueError, match=r"^conjecture1 would hold 2000000000000 findings, "
                                             r"over the cap of 1000000$"):
            conjecture1_search(3, 10**12, 5)
    # at the cap a table is built; one finding more is refused
    monkeypatch.setattr(analysis, "CONJECTURE1_MAX_FINDINGS", 12)
    assert conjecture1_search(5, 3, 10) == {2: [None, None, 7], 5: [None, None, None]}
    for a_max, k_max in ((5, 4), (14, 1), (2, 13)):
        with pytest.raises(ValueError, match="over the cap of 12"):
            conjecture1_search(a_max, k_max, 10)


def test_symmetry_verdict_band_is_closed_at_both_ends(monkeypatch):
    # trough 2 alone matches exactly 1/2; troughs 8..9 at d_max 5 exactly 7/10
    build = analysis.REPORTS["symmetry"]
    for n_min, n_max, d_max, exact in ((2, 2, None, "1/2"), (8, 9, 5, "7/10")):
        rep = build(n_min=n_min, n_max=n_max, d_max=d_max, full_range=False)
        assert (rep["aggregate"]["exact"], rep["verdict"]) == (exact, "pass"), exact
    # an aggregate just outside the band proves nothing
    for agg in (Fraction(49, 100), Fraction(71, 100)):
        monkeypatch.setattr(analysis, "symmetry_report", lambda **kw: {
            "per_n": [], "aggregate": agg, "matches": agg.numerator, "comparisons": agg.denominator})
        rep = build(n_min=2, n_max=2, d_max=None, full_range=False)
        assert rep["verdict"] == "indeterminate", agg


def test_kset_verdict_needs_curve_index_1(monkeypatch):
    # 1 is in k_set(n) for every n in 2..299, so only a patched set lacks it
    build = analysis.REPORTS["kset"]
    rep = build(n=10)
    assert [f["verdict"] for f in rep["findings"]] == ["pass", "pass"]
    assert rep["verdict"] == "pass"
    monkeypatch.setattr(analysis, "k_set", lambda n: {3, 2})
    rep = build(n=10)
    assert rep["minimal"] == rep["existential"] == [2, 3]
    assert [f["verdict"] for f in rep["findings"]] == ["pass", "indeterminate"]
    assert rep["verdict"] == "indeterminate"


def test_offbound_minima_verdict_needs_two_points_around_the_center(monkeypatch):
    # every n in 7..150 has two sigma = 5 minima around n^2 + n - 1, so the
    # other shapes come from patched points: n = 7 holds 50..63, center 55
    build = analysis.REPORTS["offbound"]
    for minima, verdict in (([54, 57], "pass"), ([50, 52], "indeterminate"),
                            ([58, 60], "indeterminate"), ([54], "indeterminate"),
                            ([50, 54, 57], "indeterminate"), ([], "indeterminate")):
        points = {50: [(a, 5) for a in minima] + [(55, 6)]}
        monkeypatch.setattr(analysis, "off_bound_points", lambda lo, hi: points.get(lo, []))
        rep = build(n_from=7, n_to=7)
        assert rep["peaks"] == [{"n": 7, "a_peak": 55, "sigma_peak": 6, "at_center": True,
                                 "verdict": "pass"}]
        assert rep["minima"] == [{"n": 7, "points": minima, "verdict": verdict}], minima
        assert rep["verdict"] == verdict, minima
    # the minima are judged from n = 7 on, the peaks from n_from
    rep = build(n_from=6, n_to=7)
    assert [e["n"] for e in rep["minima"]] == [7]
    assert rep["peaks"][0]["n"] == 7  # 6's interval has no patched point


def test_conjecture1_and_closure_verdicts(monkeypatch):
    # a = 3 and 4 are left out, and only a = 6 has a witness
    assert analysis.REPORTS["conjecture1"](a_max=6, k_max=1, s_max=500) == {
        "findings": [{"a": 2, "k": 1, "verdict": "indeterminate"},
                     {"a": 5, "k": 1, "verdict": "indeterminate"},
                     {"a": 6, "k": 1, "s": 2, "verdict": "pass"}],
        "indeterminate_count": 2, "verdict": "indeterminate"}
    # a = 2 = 1^2 + 1 never has one, so only a patched table passes whole
    with monkeypatch.context() as m:
        m.setattr(analysis, "conjecture1_search", lambda a_max, k_max, s_max: {6: [2]})
        rep = analysis.REPORTS["conjecture1"](a_max=6, k_max=1, s_max=500)
    assert (rep["indeterminate_count"], rep["verdict"]) == (0, "pass")
    # a = 50 has no drop, and its last possible one lies at s = 13
    build = analysis.REPORTS["closure"]
    assert analysis._last_fall(50, 1) == 13
    assert build(a=50, s_max=13) == {"violations": [], "verdict": "pass"}
    assert build(a=50, s_max=12) == {"violations": [], "verdict": "indeterminate"}
    assert build(a=19, s_max=5) == {"violations": [5], "verdict": "fail"}
