from math import comb, gcd

import pytest
from hypothesis import given, strategies as st

from normanform.parith import ensure_prime, is_prime, p_adic_valuation, p_parts, p_power_at_least
from reference import binom_valuation


def big_binom_valuation(n: int, k: int, p: int) -> int:
    """Independent oracle: strip p from the exact big-integer binomial."""
    v = 0
    x = comb(n, k)
    while x % p == 0:
        x //= p
        v += 1
    return v


def test_binom_valuation_examples():
    assert binom_valuation(2, 1, 2) == 1
    assert binom_valuation(3, 2, 3) == 1  # C(3,2) = 3: one carry adding 2+1 base 3
    assert binom_valuation(6, 3, 3) == 0  # C(6,3) = 20, coprime to 3


def test_binom_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        binom_valuation(3, 4, 2)
    with pytest.raises(ValueError):
        binom_valuation(3, 1, 4)  # composite p


def test_binom_valuation_matches_exact_binomials():
    for p in (2, 3, 5, 7):
        for n in range(0, 201):
            for k in range(0, n + 1):
                assert binom_valuation(n, k, p) == big_binom_valuation(n, k, p), (n, k, p)


def test_p_parts_examples():
    assert p_parts(6, 3) == (6, 2, 3, 1)
    assert p_parts(12, 2) == (12, 3, 4, 2)
    assert p_parts(5, 3) == (5, 5, 1, 0)


@given(st.integers(1, 10**6), st.sampled_from([2, 3, 5, 7, 11]))
def test_p_parts_roundtrip(r, p):
    d = p_parts(r, p)
    assert d.a * d.b == r
    assert gcd(d.a, p) == 1
    assert d.b == p**d.e


def test_p_power_at_least():
    assert p_power_at_least(1, 3) == (0, 1)
    assert p_power_at_least(3, 3) == (1, 3)
    assert p_power_at_least(4, 3) == (2, 9)
    assert p_power_at_least(8, 2) == (3, 8)
    assert p_power_at_least(9, 2) == (4, 16)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61}
    for n in range(-2, 62):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_sieve():
    n_max = 10**4
    sieve = [False, False] + [True] * (n_max - 2)
    for f in range(2, 100):
        if sieve[f]:
            sieve[f * f::f] = [False] * len(range(f * f, n_max, f))
    assert [n for n in range(n_max) if is_prime(n)] == [n for n in range(n_max) if sieve[n]]


def test_is_prime_large():
    # a Carmichael number and strong pseudoprimes to the bases 2..7 and 2..23
    for n in (561, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(10**18 + 3)
    # psi_13 is composite, yet a strong pseudoprime to all 13 bases: rejected
    psi13 = 3317044064679887385961981
    assert psi13 == 1287836182261 * 2575672364521
    with pytest.raises(ValueError):
        ensure_prime(psi13)


def test_p_adic_valuation():
    assert p_adic_valuation(9, 3) == 2
    assert p_adic_valuation(10, 3) == 0
    assert p_adic_valuation(-12, 2) == 2
    with pytest.raises(ValueError):
        p_adic_valuation(0, 3)
