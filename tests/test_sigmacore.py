"""Square-locating core: counts, witnesses, bounds and zero windows."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqdenom import sigmacore
from sqdenom.confrac import first_pair_between, is_first_rational_between
from sqdenom.exactmath import Surd, floor_surd, surd_cmp
from sqdenom.sigmacore import (
    Decomposition,
    decompose,
    min_k,
    on_bound_criterion,
    sigma,
    sigma_k,
    sigma_l,
    sigma_lower,
    sigma_r,
    sigma_upper,
    t_set,
    tau,
    zero_windows,
)

from conftest import (
    brute_first_rational,
    cmp_int_vs_sum_sqrt,
    run_length_first_pair,
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
    # sigma_k and min_k each work out the frame inline
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


def test_on_bound_criterion_equals_bound_attainment():
    for a in range(2, 801):
        assert on_bound_criterion(a) == (sigma(a) == sigma_lower(a)), a


def test_min_k_examples():
    assert min_k(8) == 1
    assert min_k(19) == 2
    assert min_k(991) == 13
    assert min_k(0) == 1


def test_min_k_accepts_known_sigma():
    for a in range(0, 2001):
        assert min_k(a, sigma(a)) == min_k(a), a


def test_min_k_is_minimal():
    for a in range(0, 201):
        k = min_k(a)
        s = sigma(a)
        assert sigma_k(a, k) == s
        for smaller in range(1, k):
            assert sigma_k(a, smaller) != s


def test_min_k_matches_closed_form():
    for a in range(1, 20001):
        assert min_k(a) == sigmacore._curve_index(a, sigma(a)), a


def test_zero_windows_structure():
    with pytest.raises(ValueError):
        zero_windows(8, -1)
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
@given(_any_scale)
@example(0)  # min_k's frame: n = 0, b + 1 = c = 1
@example(10**200)  # a = n^2: b + 1 = 1
@example(10**200 - 1)  # a = m^2 - 1: c = 1
def test_closed_form_min_k_at_every_scale(a):
    # sigma_k strictly increases in k, so these two checks make k the least
    # index on the curve through sigma(a); min_k's walk is O(k)
    s = run_length_first_pair(a, a + 1)[1]
    k = sigmacore._curve_index(a, s)
    assert sigma_k(a, k) == s, a
    assert k == 1 or sigma_k(a, k - 1) < s, a
    if k <= 10**4:
        assert min_k(a, s) == k, a


def test_curve_index_raises_consistency_error_off_every_curve():
    # sigma_k(a) >= k + 1 >= 2, so s <= 1 is on no curve (and s = 1 would
    # take isqrt(-1)); at a = 1 the curves give 3, 6, ..., and at a = 2
    # they give 2, 4, 6, so s = 2 and s = 3 miss them
    for a, s in ((2, 0), (2, 1), (10**200, 1), (1, 2), (2, 3)):
        with pytest.raises(sigmacore.ConsistencyError, match=f"no curve index k <= {s} "):
            sigmacore._curve_index(a, s)
    assert sigmacore._curve_index(2, 2) == 1


def test_zero_windows_step_down_from_k_max(monkeypatch):
    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return surd_cmp(x, y)

    monkeypatch.setattr(sigmacore, "surd_cmp", counted)
    # n^2 and n^2-1 have one crowding side, settled at k_max; n^2+n-1 has
    # both full; n^2+7 ends its left side at k = 7.  The per-k scan made 224.
    for e in (3, 6, 25, 150):
        for family in _FAMILIES:
            zero_windows(family(10**e), 8)
    assert calls == 4 * (1 + 1 + 2 + 3)
    calls = 0
    ws = zero_windows(10**12 + 7, 200)
    # left: 200 down to its last nonempty k = 7; right: full.  The scan made 402
    assert calls == (200 - 7 + 1) + 1
    assert ws == zero_windows(10**12 + 7, 200)
    with pytest.raises(TypeError):
        hash(ws[0])


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
