import pytest
from hypothesis import given, settings, strategies as st

from normanform.delta import _delta_run, _legendre_window, _valuations_on, delta_profile
from normanform.parith import ensure_prime, p_adic_valuation, p_power_at_least
from reference import dn_exact, dn_valuation


def _valuations(r, s, p):
    """[v_p(D_1), ..., v_p(D_{r-1})] from the Legendre windows on [0, r] and [s-r, s+r]."""
    return _valuations_on(r, s, p, _legendre_window(0, r, p), _legendre_window(s - r, s + r, p), 0)


def test_dn_valuation_examples():
    assert dn_valuation(2, 2, 2, 1) == 1   # D_1(2,2) = C(2,1) = 2
    assert dn_valuation(2, 3, 3, 1) == 1   # D_1(2,3) = C(3,2) = 3
    assert dn_valuation(4, 4, 3, 2) == 0   # D_2(4,4) = 20, coprime to 3


def test_dn_valuation_range_errors():
    with pytest.raises(ValueError):
        dn_valuation(3, 2, 2, 1)  # r > s
    with pytest.raises(ValueError):
        dn_valuation(3, 4, 2, 0)
    with pytest.raises(ValueError):
        dn_valuation(3, 4, 2, 4)


def test_dn_exact_values():
    assert dn_exact(2, 2, 1) == 2
    assert dn_exact(4, 4, 2) == 20
    assert dn_exact(3, 5, 2) == 10
    assert dn_exact(5, 5, 0) == 1
    assert dn_exact(5, 5, 5) == 1


def test_delta_profile_examples():
    prof = delta_profile(2, 2, 2)
    assert prof.delta == (1, 0, 1)
    assert prof.L == (1, 2)
    assert prof.R == (1, 0)

    prof = delta_profile(2, 2, 5)
    assert prof.delta == (1, 1, 1)
    assert prof.L == (1, 1)
    assert prof.R == (0, 0)

    for s in (1, 4, 9):
        prof = delta_profile(1, s, 3)
        assert prof.delta == (1, 1)
        assert prof.L == (1,)
        assert prof.R == (0,)


def test_delta_endpoints_and_gap_bounds():
    for p in (2, 3, 5):
        for r in range(1, 16):
            for s in range(r, 16):
                prof = delta_profile(r, s, p)
                assert prof.delta[0] == 1 and prof.delta[r] == 1
                assert prof.L[0] == 1  # L(1) = 1 always
                for n in range(1, r + 1):
                    assert 1 <= prof.L[n - 1] <= n
                    assert 0 <= prof.R[n - 1] <= r - n


def test_valuation_agrees_with_exact_determinant():
    for r in range(1, 31):
        for s in range(r, 31):
            for n in range(1, r + 1):
                exact = dn_exact(r, s, n)  # p-independent big integer
                for p in (2, 3, 5, 7):
                    assert (dn_valuation(r, s, p, n) == 0) == (exact % p != 0), (r, s, p, n)


def test_valuation_equals_exact_valuation_small():
    for p in (2, 3, 5):
        for r in range(1, 13):
            for s in range(r, 13):
                for n in range(1, r + 1):
                    assert dn_valuation(r, s, p, n) == p_adic_valuation(dn_exact(r, s, n), p)


def test_descent_set_reconstructs_gaps():
    # delta from the zeros of the valuations, L and R by their least-d definitions:
    # none of it read from the cut points the profile holds
    for p in (2, 3, 5):
        for r in range(1, 21):
            for s in range(r, 21):
                delta = (1, *(int(v == 0) for v in _valuations(r, s, p)), 1)
                L = tuple(next(d for d in range(1, n + 1) if delta[n - d])
                          for n in range(1, r + 1))
                R = tuple(next(d for d in range(r - n + 1) if delta[n + d])
                          for n in range(1, r + 1))
                cuts = tuple(n for n in range(r + 1) if delta[n])
                prof = delta_profile(r, s, p)
                assert prof.delta == delta, (r, s, p)
                assert prof.L == L and prof.R == R, (r, s, p)
                assert prof.cuts == cuts, (r, s, p)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60), st.integers(0, 10**15) | st.integers(10**12, 10**15),
       st.sampled_from((2, 3, 5, 7, 11, 10**9 + 7)))
def test_legendre_route_matches_carry_counts(r, extra, p):
    s = r + extra
    vals = _valuations(r, s, p)
    assert vals == [dn_valuation(r, s, p, n) for n in range(1, r)]
    assert delta_profile(r, s, p).delta == (1, *(int(v == 0) for v in vals), 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(0, 30),
       st.sampled_from((2, 3, 5, 7, 11, 10**9 + 7)))
def test_legendre_route_matches_exact_determinant(r, extra, p):
    s = r + extra
    assert _valuations(r, s, p) == [p_adic_valuation(dn_exact(r, s, n), p)
                                    for n in range(1, r)]


def _legendre_naive(x, p):
    """F(x) = sum_{k<x} v_p(k!), one factorial valuation at a time."""
    total = fact = 0
    for k in range(1, x):
        fact += p_adic_valuation(k, p)  # fact = v_p(k!)
        total += fact
    return total


def test_near_window_is_legendre_sum():
    for p in (2, 3, 5, 7, 10**9 + 7):
        assert _legendre_window(0, 80, p) == [_legendre_naive(x, p) for x in range(81)], p
        for r in range(1, 12):
            assert _legendre_window(0, r, p) == [_legendre_naive(x, p) for x in range(r + 1)]


def test_far_window_is_legendre_sum_less_an_affine_term():
    for p in (2, 3, 5, 7):
        for lo in range(0, 130):
            f_lo = _legendre_naive(lo, p)
            v_lo = _legendre_naive(lo + 1, p) - f_lo  # v_p(lo!)
            expected = [_legendre_naive(x, p) - f_lo - (x - lo) * v_lo
                        for x in range(lo, lo + 25)]
            assert _legendre_window(lo, lo + 24, p) == expected, (lo, p)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10**15), st.integers(1, 120),
       st.sampled_from((2, 3, 5, 7, 11, 10**9 + 7)))
def test_far_window_starts_flat_with_valuation_second_differences(lo, width, p):
    w = _legendre_window(lo, lo + width, p)
    assert len(w) == width + 1 and w[:2] == [0, 0]
    for i in range(1, width):  # G(x+1) - 2G(x) + G(x-1) = v_p(x) at x = lo + i
        assert w[i + 1] - 2 * w[i] + w[i - 1] == p_adic_valuation(lo + i, p), (lo, i, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10**15), st.integers(1, 30),
       st.sampled_from((2, 3, 5, 7, 10**9 + 7)))
def test_delta_run_far_from_s_equals_r(r, offset, extra, p):
    # one relative table serves every cell of a run at a huge offset
    pm = p_power_at_least(r, p)[1]
    if pm < 10**3:  # longer than the period
        cells = range(r + offset, r + offset + pm + extra)
    else:  # 2r cells around a multiple of p
        start = r + offset + (-2 * r - offset) % pm  # start + r = 0 mod p
        cells = range(start, start + 2 * r + extra)
    run = list(_delta_run(r, ensure_prime(p), cells))
    assert run == [delta_profile(r, s, p).cuts for s in cells], (r, offset, p)
