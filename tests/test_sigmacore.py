"""Square-locating core: counts, witnesses, bounds and zero windows."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqdenom import exactmath, sigmacore
from sqdenom.confrac import first_pair_between, is_first_rational_between
from sqdenom.exactmath import Surd, isqrt, surd_cmp
from sqdenom.sigmacore import (
    ConsistencyError,
    Decomposition,
    certified_first_pair,
    decompose,
    min_k,
    on_bound_criterion,
    sigma,
    sigma_k,
    sigma_lower,
    sigma_upper,
    t_set,
    tau,
    tau_columns,
    zero_windows,
)

from conftest import (
    brute_first_rational,
    closed_form_curve_index,
    cmp_int_vs_sum_sqrt,
    floor_surd,
    run_length_first_pair,
    sigma_l,
    sigma_r,
    tau_brute,
    zero_windows_scan,
)


def test_decompose_examples():
    assert decompose(8) == Decomposition(8, 2, 4, 3, 1)
    assert decompose(19) == Decomposition(19, 4, 3, 5, 6)
    assert decompose(9) == Decomposition(9, 3, 0, 4, 7)
    assert decompose(1) == Decomposition(1, 1, 0, 2, 3)
    assert decompose(0) == Decomposition(0, 0, 0, 1, 1)
    with pytest.raises(ValueError):
        decompose(-1)


def test_decompose_frame_identities():
    for a in range(0, 500):
        dc = decompose(a)
        assert dc.a == dc.n * dc.n + dc.b == dc.m * dc.m - dc.c
        assert dc.m == dc.n + 1
        assert 0 <= dc.b <= 2 * dc.n
        assert 1 <= dc.c <= 2 * dc.m - 1


def test_tau_examples():
    assert tau(3, 10) == 2
    assert tau(8, 6) == 1
    assert [tau(8, s) for s in range(2, 6)] == [0, 0, 0, 0]
    assert tau(2, 10) == 3
    # upper endpoint is itself a square and must not be counted
    assert tau(3, 2) == 0
    assert tau(8, 3) == 0
    assert tau(0, 1) == 0
    assert tau(0, 4) == 3
    # no integer lies strictly between consecutive integers
    assert all(tau(a, 1) == 0 for a in range(0, 200))


def test_tau_validation():
    with pytest.raises(ValueError):
        tau(-1, 2)
    with pytest.raises(ValueError):
        tau(5, 0)
    with pytest.raises(ValueError):
        tau_brute(-1, 2)
    with pytest.raises(ValueError):
        t_set(5, 0)


def test_tau_matches_brute_force():
    for a in range(0, 61):
        for s in range(1, 41):
            assert tau(a, s) == tau_brute(a, s), (a, s)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=50))
def test_tau_matches_brute_force_large(a, s):
    assert tau(a, s) == tau_brute(a, s)


def test_t_set_examples():
    assert t_set(2, 10) == [15, 16, 17]
    assert t_set(8, 6) == [17]
    assert t_set(19, 5) == [22]
    assert t_set(991, 27) == [850]
    assert t_set(3, 2) == []
    assert t_set(0, 2) == [1]


def test_t_set_witnesses_are_exact():
    for a in range(0, 40):
        for s in range(1, 30):
            ts = t_set(a, s)
            assert len(ts) == tau(a, s)
            assert ts == sorted(ts)
            for t in ts:
                assert s * s * a < t * t < s * s * (a + 1)


def test_t_set_refuses_more_witnesses_than_the_cap():
    cap = sigmacore.TSET_MAX_WITNESSES
    # t_set(0, s) = [1, ..., s - 1]: the cap at s = cap + 1, one over at cap + 2
    ts = t_set(0, cap + 1)
    assert (len(ts), ts[0], ts[-1]) == (cap, 1, cap)
    for s in (cap + 2, cap + 3):
        with pytest.raises(ValueError, match=rf"^t_set would return {s - 1} witnesses, "
                                             rf"over the cap of {cap}$"):
            t_set(0, s)


def test_interval_midpoint_family():
    # a = n^2 + n always admits (2n+1)/2 and nothing else at denominator 2
    for n in range(1, 60):
        assert t_set(n * n + n, 2) == [2 * n + 1]
        assert sigma(n * n + n) == 2


def test_sigma_examples():
    assert sigma(0) == 2
    assert sigma(1) == 3
    assert sigma(2) == 2
    assert sigma(3) == 4
    assert sigma(8) == 6
    assert sigma(19) == 5
    assert sigma(991) == 27


def test_sigma_strategies_agree():
    # the kernel against the library-free denominator-first scan
    for a in range(0, 301):
        assert sigma(a) == brute_first_rational(a, a + 1).denominator, a
    with pytest.raises(ValueError):
        sigma(-1)


def _first_tau_hit(a, start):
    s = max(start, 2)
    while tau(a, s) == 0:
        s += 1
    return s


def test_sigma_scan_start_override():
    # an upward tau scan reaches sigma(a) from s = 2 and from sigma_lower(a),
    # so the lower bound never overshoots
    for a in range(0, 201):
        assert _first_tau_hit(a, 2) == sigma(a), a
        assert _first_tau_hit(a, sigma_lower(a)) == sigma(a), a


@pytest.mark.parametrize("n", [10**3, 10**6, 10**25, 10**150])
def test_sigma_on_worst_case_families(n):
    # closed forms: n + 1/(2n+1) and n - 1/(2n) square into the intervals
    assert first_pair_between(n * n, n * n + 1) == (2 * n * n + n + 1, 2 * n + 1)
    assert sigma(n * n) == 2 * n + 1
    assert first_pair_between(n * n - 1, n * n) == (2 * n * n - 1, 2 * n)
    assert sigma(n * n - 1) == 2 * n
    for a in (n * n + n - 1, n * n + 7):
        t, s = first_pair_between(a, a + 1)
        assert is_first_rational_between(a, a + 1, t, s), a
        assert tau(a, s) == 1 and tau(a, s - 1) == 0, a
        assert sigma(a) == s
    for a in (n * n, n * n - 1, n * n + n - 1, n * n + 7):
        t, s = run_length_first_pair(a, a + 1)
        assert first_pair_between(a, a + 1) == (t, s) and sigma(a) == s, a


def test_sigma_bound_surds():
    assert sigma_l(8) == Surd(1)
    assert sigma_r(8) == Surd(3, 2, 2)
    assert sigma_l(19) == Surd(2, 1, 5, 2)
    assert sigma_r(19) == Surd(5, 1, 19, 6)


def test_sigma_k_examples():
    assert sigma_k(8, 1) == 6
    assert sigma_k(19, 1) == 3
    assert sigma_k(19, 2) == 5
    assert sigma_k(0, 1) == 2
    with pytest.raises(ValueError):
        sigma_k(8, 0)
    with pytest.raises(ValueError):
        sigma_k(-1, 1)


def _sigma_k_by_surds(a, k):
    """floor(max(k*sigma_l, k*sigma_r)) + 1, from the Surd thresholds."""
    left, right = sigma_l(a), sigma_r(a)
    kl = Surd(k * left.p, k * left.q, left.d, left.r)
    kr = Surd(k * right.p, k * right.q, right.d, right.r)
    return floor_surd(kl if surd_cmp(kl, kr) >= 0 else kr) + 1


def test_sigma_k_floor_matches_surd_floor():
    # the pure-integer formula equals floor(max(k*sigma_l, k*sigma_r)) + 1
    for a in range(0, 200):
        for k in range(1, 6):
            assert sigma_k(a, k) == _sigma_k_by_surds(a, k), (a, k)


def test_min_k_builds_no_decomposition(monkeypatch):
    # sigma_k and min_k each take the frame from _frame
    def refuse(a):
        raise AssertionError("decompose called")

    monkeypatch.setattr(sigmacore, "decompose", refuse)
    assert sigma_k(991, 13) == 27
    assert min_k(991) == 13


def test_sigma_k_exceeds_index():
    for a in range(0, 120):
        for k in range(1, 11):
            assert sigma_k(a, k) >= k + 1


def test_sigma_bounds_chain():
    for a in range(0, 601):
        assert sigma_lower(a) <= sigma(a) <= sigma_upper(a), a
    with pytest.raises(ValueError):
        sigma_upper(-1)


def test_sigma_is_first_hit_with_one_witness():
    for a in range(0, 301):
        s = sigma(a)
        assert s >= 2
        assert tau(a, s) == 1
        for below in range(1, s):
            assert tau(a, below) == 0


def test_on_bound_criterion_examples():
    assert on_bound_criterion(8) is True
    assert on_bound_criterion(12) is True
    assert on_bound_criterion(2) is True
    assert on_bound_criterion(19) is False
    assert on_bound_criterion(54) is False
    with pytest.raises(ValueError):
        on_bound_criterion(1)


def test_on_bound_criterion_frames_a_with_one_isqrt(monkeypatch):
    # isqrt(a + 1) is n, or n + 1 at a = (n+1)^2 - 1, so the four floors
    # come from a's frame
    calls = []

    def counted(x):
        calls.append(x)
        return isqrt(x)

    monkeypatch.setattr(sigmacore, "isqrt", counted)
    for n in (10**3, 10**25, 10**150):
        for a in (n * n, n * n + 1, n * n + n - 1, (n + 1) ** 2 - 1):
            calls.clear()
            on_bound_criterion(a)
            assert calls == [a], a


def test_on_bound_criterion_equals_bound_attainment():
    for a in range(2, 801):
        assert on_bound_criterion(a) == (sigma(a) == sigma_lower(a)), a


def test_min_k_examples():
    assert min_k(8) == 1
    assert min_k(19) == 2
    assert min_k(991) == 13
    assert min_k(0) == 1


def test_min_k_refuses_a_below_zero():
    with pytest.raises(ValueError, match="a must be >= 0"):
        min_k(-1)


def test_min_k_takes_sigma_from_its_own_frame(monkeypatch):
    # min_k frames a with one isqrt and enters the kernel itself, so it
    # needs neither sigma nor decompose
    closed = [closed_form_curve_index(a, sigma(a)) for a in range(1, 2001)]

    def refuse(a):
        raise AssertionError("sigma or decompose called")

    monkeypatch.setattr(sigmacore, "sigma", refuse)
    monkeypatch.setattr(sigmacore, "decompose", refuse)
    assert min_k(991) == 13
    assert [min_k(a) for a in range(1, 2001)] == closed


def test_min_k_is_minimal():
    for a in range(0, 201):
        k = min_k(a)
        s = sigma(a)
        assert sigma_k(a, k) == s
        for smaller in range(1, k):
            assert sigma_k(a, smaller) != s


def test_min_k_matches_closed_form():
    for a in range(1, 20001):
        assert min_k(a) == closed_form_curve_index(a, sigma(a)), a


def test_zero_windows_structure():
    with pytest.raises(ValueError):
        zero_windows(8, -1)
    with pytest.raises(ValueError, match="a must be >= 0"):
        zero_windows(-1, 3)
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        zero_windows(-1, -1)
    ws = zero_windows(8, 4)
    by_key = {(w.side, w.k): w for w in ws}
    w = by_key[("left-crowding", 0)]
    assert surd_cmp(w.lo, Surd(0)) == 0 and surd_cmp(w.hi, Surd(1)) == 0
    w = by_key[("right-crowding", 0)]
    assert w.hi == Surd(3, 2, 2)
    w = by_key[("left-crowding", 1)]
    assert w.lo == Surd(1, 1, 2, 2) and surd_cmp(w.hi, Surd(2)) == 0
    # a + 1 = 9 is a square, so shifted right windows are all empty
    assert not any(w.side == "right-crowding" and w.k >= 1 for w in ws)
    # s = 5 sits exactly on the closed upper edge of the k = 4 left window
    w = by_key[("left-crowding", 4)]
    assert w.lo == Surd(2, 2, 2)
    assert surd_cmp(w.hi, Surd(5)) == 0
    assert tau(8, 5) == 0


def test_zero_windows_square_lower_interval():
    # a = 9 has b = 0: shifted left windows are empty, the base one survives
    ws = zero_windows(9, 3)
    assert not any(w.side == "left-crowding" and w.k >= 1 for w in ws)
    base = next(w for w in ws if w.side == "left-crowding" and w.k == 0)
    assert base.hi == Surd(3, 1, 10)


_FAMILIES = (
    lambda n: n * n,
    lambda n: n * n - 1,
    lambda n: n * n + n - 1,
    lambda n: n * n + 7,
)


# a up to 10^300, or from a family with n up to 10^150
_any_scale = st.one_of(
    st.integers(min_value=0, max_value=10**300),
    st.builds(
        lambda n, family: family(n),
        st.integers(min_value=1, max_value=10**150),
        st.sampled_from(_FAMILIES),
    ),
)


@settings(max_examples=300)
@given(_any_scale, st.integers(min_value=1, max_value=10**150))
def test_sigma_k_strictly_increases(a, k):
    # max(sigma_l, sigma_r) >= 1, so min_k's first match is the only one
    assert sigma_k(a, k + 1) > sigma_k(a, k)


@settings(max_examples=300)
@given(_any_scale, st.integers(min_value=1, max_value=10**150))
@example(0, 1)
@example(0, 10**150)
@example(10**200, 10**150)  # a = n^2: b + 1 = 1
@example(10**200 - 1, 10**150)  # a = m^2 - 1: c = 1
@example(10**200 - 1, 1)
def test_sigma_k_floor_matches_surd_floor_at_every_scale(a, k):
    assert sigma_k(a, k) == _sigma_k_by_surds(a, k)


@settings(max_examples=300)
@given(
    st.one_of(
        st.integers(min_value=0, max_value=10**6),
        st.builds(
            lambda n, family: family(n),
            st.integers(min_value=1, max_value=10**40),
            st.sampled_from(_FAMILIES),
        ),
    ),
    st.integers(min_value=0, max_value=64),
)
def test_zero_windows_match_per_k_scan(a, k_max):
    # repr pins k, side, order and the stored Surd forms, not just values
    assert repr(zero_windows(a, k_max)) == repr(zero_windows_scan(a, k_max))


@settings(max_examples=300, deadline=None)
@given(_any_scale, st.integers(min_value=0, max_value=64))
@example(0, 64)
@example(3, 200)  # c = 1: right k = 0 only; left ends at K = b = 2 = 2n
@example(10**4 + 1, 250)  # both sides end below k_max: K = b = 1, K = c - 2 = 198
@example(10**200, 64)  # a = n^2: b = 0, no shifted left window
@example(10**200 - 1, 64)  # a = m^2 - 1: c = 1, no shifted right window
@example(10**200 + 10**100 - 1, 64)  # n^2 + n - 1: both sides full
@example(10**12 + 7, 200)  # the left side ends at K = b = 7
def test_zero_windows_match_the_scan_at_every_scale(a, k_max):
    assert repr(zero_windows(a, k_max)) == repr(zero_windows_scan(a, k_max))


def _assert_last_offsets_are_b_and_c_minus_2(a):
    # zero_windows reads each side's last nonempty offset K off a's frame;
    # check it with the public Surd: on the left window b is nonempty and
    # b + 1 empty, on the right c - 2 is nonempty and c - 1 empty; returns
    # (b, c)
    n = isqrt(a)
    b = a - n * n
    m = n + 1
    c = m * m - a

    def nonempty(k, base, rad_lo, den, rad_hi):
        lo = Surd(k * base, k, rad_lo, den)
        return surd_cmp(lo, Surd((k + 1) * base, k + 1, rad_hi, den + 1)) <= 0

    if b >= 1:
        assert nonempty(b, n, a, b, a + 1), a
        assert not nonempty(b + 1, n, a, b, a + 1), a
    if c >= 3:
        assert nonempty(c - 2, m, a + 1, c - 1, a), a
    if c >= 2:
        assert not nonempty(c - 1, m, a + 1, c - 1, a), a
    return b, c


@settings(max_examples=300, deadline=None)
@given(_any_scale)
@example(0)
@example(1)
@example(2)
@example(3)
@example(10**200 - 1)  # b = 2n
@example(10**200)  # b = 0
@example(10**200 + 1)  # c = 2n
@example((10**100 + 1) ** 2 - 2)  # c = 2
@example(10**12 + 7)
def test_zero_windows_last_offsets_are_b_and_c_minus_2(a):
    _assert_last_offsets_are_b_and_c_minus_2(a)


def test_zero_windows_last_offsets_for_every_small_a():
    # every a <= 3000 has b, c - 2 <= 108, so a k_max of 10^18 returns
    # each side in full: K + 1 windows
    for a in range(3001):
        b, c = _assert_last_offsets_are_b_and_c_minus_2(a)
        sides = [w.side for w in zero_windows(a, 10**18)]
        assert sides.count("left-crowding") == b + 1, a
        assert sides.count("right-crowding") == max(c - 2, 0) + 1, a


@settings(max_examples=300, deadline=None)
@given(_any_scale)
@example(0)  # min_k's frame: n = 0, b + 1 = c = 1
@example(10**200)  # a = n^2: b + 1 = 1
@example(10**200 - 1)  # a = m^2 - 1: c = 1
def test_closed_form_min_k_at_every_scale(a):
    # sigma_k strictly increases in k, so these two checks make k the least
    # index on the curve through sigma(a); min_k's walk is O(k)
    s = run_length_first_pair(a, a + 1)[1]
    k = closed_form_curve_index(a, s)
    assert sigma_k(a, k) == s, a
    assert k == 1 or sigma_k(a, k - 1) < s, a
    if k <= 10**4:
        assert min_k(a) == k, a


# first a of a grid: up to 10^300, or a few below to one above a square
_grid_a = st.one_of(
    st.integers(min_value=0, max_value=10**300),
    st.builds(lambda n, d: max(n * n + d, 0),
              st.integers(min_value=0, max_value=10**150), st.integers(min_value=-3, max_value=1)),
)


def _point_columns(a_lo, a_hi, s_lo, s_hi):
    return [[tau(a, s) for s in range(s_lo, s_hi + 1)] for a in range(a_lo, a_hi + 1)]


@settings(max_examples=300)
@given(_grid_a, st.integers(min_value=0, max_value=4),
       st.one_of(st.just(1), st.integers(min_value=1, max_value=10**6)),
       st.integers(min_value=0, max_value=30))
@example(10**200 - 1, 2, 1, 0)  # the square 10^200 in a one-row grid from s = 1
@example(8, 0, 90, 10)  # one column with tau(8, s) > 10
@example(1, 3, 1, 200)  # tau up to 82
def test_tau_columns_match_point_tau(a_lo, width, s_lo, depth):
    a_hi, s_hi = a_lo + width, s_lo + depth
    assert tau_columns(a_lo, a_hi, s_lo, s_hi) == _point_columns(a_lo, a_hi, s_lo, s_hi)


def test_tau_columns_examples():
    assert tau_columns(8, 8, 6, 6) == [[1]]
    # a + 1 = 4, 9 and 16 are squares: without the correction each would
    # count t = s*sqrt(a+1), and tau(a, 1) = 0 would read 1
    assert tau_columns(2, 16, 1, 1) == [[0]] * 15
    assert tau_columns(0, 2, 1, 4) == [[0, 1, 2, 3], [0, 0, 1, 1], [0, 1, 1, 1]]
    big = tau_columns(1, 1, 1, 500)[0]
    assert max(big) > 10 and big == _point_columns(1, 1, 1, 500)[0]
    assert tau_columns(5, 4, 1, 3) == [] and tau_columns(4, 5, 3, 2) == [[], []]
    with pytest.raises(ValueError):
        tau_columns(-1, 2, 1, 2)
    with pytest.raises(ValueError):
        tau_columns(1, 2, 0, 2)


def test_curve_index_raises_consistency_error_off_every_curve():
    # sigma_k(a) >= k + 1 >= 2, so s <= 1 is on no curve (and s = 1 would
    # take isqrt(-1)); at a = 1 the curves give 3, 6, ..., and at a = 2
    # they give 2, 4, 6, so s = 2 and s = 3 miss them
    for a, s in ((2, 0), (2, 1), (10**200, 1), (1, 2), (2, 3)):
        with pytest.raises(ConsistencyError, match=f"no curve index k <= {s} "):
            closed_form_curve_index(a, s)
    assert closed_form_curve_index(2, 2) == 1
    # the row's index from a pair at a = 2 (n = 1, b + 1 = c = 2): 3/2 is
    # sigma's pair, 5/3 lies inside on no curve, and a pair outside (1, 2)
    # gives u = t - n*s or v = m*s - t <= 0
    assert sigmacore._pair_curve_index(2, 3, 2, 1, 2, 2) == 1
    for t, s in ((5, 3), (3, 3), (2, 3), (6, 3), (7, 3), (3, 1), (10, 3)):
        with pytest.raises(ConsistencyError, match=f"no curve index k <= {s} "):
            sigmacore._pair_curve_index(2, t, s, 1, 2, 2)


# a up to 10^300, or at the edges n^2 + {0, 1, n - 1, n, 2n} of an interval
_pair_a = st.one_of(
    st.integers(min_value=1, max_value=10**300),
    st.builds(lambda n, e: n * n + (0, 1, n - 1, n, 2 * n)[e],
              st.one_of(st.integers(min_value=1, max_value=1000),
                        st.integers(min_value=1, max_value=10**150)),
              st.integers(min_value=0, max_value=4)),
)


@settings(max_examples=400, deadline=None)
@given(_pair_a)
@example(1)  # a = 1^2 + 0
@example(10**200)  # a = n^2
@example(10**200 + 10**100 - 1)  # a = n^2 + n - 1, the off-bound peak
@example(10**200 + 2 * 10**100)  # a = m^2 - 1
def test_pair_curve_index_matches_the_closed_form(a):
    # min(t - n*s, m*s - t) off the certified pair, against the isqrt
    # closed form; both confirm the index with sigma_k
    t, s = certified_first_pair(a)
    dc = decompose(a)
    k = closed_form_curve_index(a, s)
    assert min(t - dc.n * s, dc.m * s - t) == k, a
    assert sigmacore._pair_curve_index(a, t, s, dc.n, dc.b + 1, dc.c) == k, a


@settings(max_examples=400, deadline=None)
@given(_pair_a)
@example(0)  # both ends of the frame rational
@example(1)
@example(10**200 - 1)  # a + 1 = m^2
def test_certified_pairs_have_one_witness(a):
    # the certificate implies tau(a, s) = 1 (certified_first_pair), so it
    # is not tested at run time: this checks it, for the point query and
    # the sweep rows' entry in a's frame
    t, s = certified_first_pair(a)
    assert tau(a, s) == 1 and t_set(a, s) == [t], a
    dc = decompose(a)
    assert sigmacore._certified_pair_in_frame(a, dc.n, dc.b + 1) == (t, s), a


def test_zero_windows_make_no_exact_comparison(monkeypatch):
    def refuse(*args):
        raise AssertionError("exact comparison made")

    # every surd_cmp, and so every Surd ==, < and sort, reaches this
    monkeypatch.setattr(exactmath, "_sign_two_radicals", refuse)
    for e in (3, 6, 25, 150):
        for family in _FAMILIES:
            zero_windows(family(10**e), 8)
    zero_windows(10**12 + 7, 200)
    # K is read off the frame, so k_max bounds nothing here: K = 2 and 0
    assert [(w.k, w.side) for w in zero_windows(3, 10**18)] == [
        (0, "left-crowding"), (0, "right-crowding"), (1, "left-crowding"), (2, "left-crowding"),
    ]
    ws = zero_windows(10**6 + 7, 10**6)  # K = b = 7 and K = c - 2 = 1992
    assert len(ws) == 2001
    with pytest.raises(TypeError):
        hash(ws[0])


def test_zero_windows_frames_a_once_and_builds_each_end_once(monkeypatch):
    def refuse(a):
        raise AssertionError("decompose called")

    roots, built, ends = [], 0, 0

    def counted_isqrt(x):
        roots.append(x)
        return isqrt(x)

    init = Surd.__init__

    def counted_init(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    window_end = sigmacore._window_end

    def counted_end(*args):
        nonlocal ends
        ends += 1
        return window_end(*args)

    monkeypatch.setattr(sigmacore, "decompose", refuse)
    monkeypatch.setattr(sigmacore, "isqrt", counted_isqrt)
    monkeypatch.setattr(Surd, "__init__", counted_init)
    monkeypatch.setattr(sigmacore, "_window_end", counted_end)
    calls = [(family(10**e), 8) for e in (3, 6, 25, 150) for family in _FAMILIES]
    public, factory = [], []
    for a, k_max in calls + [(10**12 + 7, 200)]:
        roots.clear()
        built = ends = 0
        ws = zero_windows(a, k_max)
        assert roots == [a], a
        # the shared zero and each k = 0 end through Surd; both ends of
        # every k >= 1 window from the factory, and no end of an empty one
        assert built == 1 + sum(w.k == 0 for w in ws), a
        assert ends == sum(2 for w in ws if w.k), a
        public.append(built)
        factory.append(ends)
    assert (sum(public[:16]), sum(factory[:16])) == (48, 376)
    assert (public[16], factory[16]) == (3, 414)  # K = 7 left, 200 right


def test_zero_windows_match_the_scan_for_every_small_a():
    # exhaustive inputs for the scan comparison: every a <= 3000 and the 16
    # family radicands, at k_max 8 and 200
    radicands = [family(10**e) for e in (3, 6, 25, 150) for family in _FAMILIES]
    calls = [(a, k_max) for a in [*range(3001), *radicands] for k_max in (8, 200)]
    for a, k_max in calls:
        assert repr(zero_windows(a, k_max)) == repr(zero_windows_scan(a, k_max)), (a, k_max)


def _covered_denominators(a, k_max, s_max):
    out = set()
    for w in zero_windows(a, k_max):
        lo_floor = floor_surd(w.lo)
        lo = lo_floor if surd_cmp(w.lo, Surd(lo_floor)) == 0 else lo_floor + 1
        hi = floor_surd(w.hi)
        out.update(range(max(1, lo), min(s_max, hi) + 1))
    return out


def test_zero_windows_cover_exactly_the_zero_counts():
    for a in range(0, 101):
        covered = _covered_denominators(a, 200, 200)
        for s in range(1, 201):
            assert (s in covered) == (tau(a, s) == 0), (a, s)


def test_large_margin_forces_witnesses():
    # s above k*(sqrt(a) + sqrt(a+1)) makes the target window longer than k
    for a in range(1, 101):
        for k in range(1, 6):
            for s in range(2, 121):
                if cmp_int_vs_sum_sqrt(s, k, a) == 1:
                    assert tau(a, s) >= k, (a, k, s)
