"""Exact arithmetic primitives: primality, p-adic valuations, p-parts, and the
one check of the parameters (r, s, p).

Every function that takes a prime p starts with p = ensure_prime(p), or with
p = check_rsp(r, s, p) when it also takes a pair 1 <= r <= s. The first
call tests p and returns it as a private int subclass; later calls recognise
that type and skip the test. So each call from outside tests its prime once,
and helpers pass the returned p down rather than keeping unchecked twins.
"""

from __future__ import annotations

from typing import NamedTuple


# Miller-Rabin on the first 13 prime bases is exact below psi_13 (Sorenson and
# Webster 2015). psi_13 itself is composite and passes all 13 bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= 3317044064679887385961981,
    where the fixed bases no longer decide primality."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is decided only for n < {_MR_LIMIT}, got {n!r}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, k = n - 1, 0
    while d % 2 == 0:
        d //= 2
        k += 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Prime(int):
    """An int that ensure_prime has tested."""

    __slots__ = ()


def ensure_prime(p: int) -> int:
    """Return p as a checked prime, testing it only if it is not one yet; else raise
    ValueError."""
    if type(p) is _Prime:
        return p
    if not is_prime(p):
        raise ValueError(f"p must be a prime >= 2, got {p!r}")
    return _Prime(p)


def check_rsp(r: int, s: int, p: int) -> int:
    """Check a parameter triple: p prime first, then 1 <= r <= s. Return the checked p."""
    p = ensure_prime(p)
    if not 1 <= r <= s:
        raise ValueError(f"need 1 <= r <= s, got r={r}, s={s}")
    return p


def p_adic_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n (n != 0)."""
    p = ensure_prime(p)
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


class PPartDecomposition(NamedTuple):
    """r = a * b with gcd(a, p) = 1 and b = p**e."""

    r: int
    a: int
    b: int
    e: int


def p_parts(r: int, p: int) -> PPartDecomposition:
    """Split r into its p'-part a and p-part b = p**e."""
    p = ensure_prime(p)
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r!r}")
    e = p_adic_valuation(r, p)
    return PPartDecomposition(r, r // p**e, p**e, e)


def p_power_at_least(r: int, p: int) -> tuple[int, int]:
    """Minimal (m, p**m) with r <= p**m; m = ceil(log_p r), so (0, 1) for r = 1."""
    p = ensure_prime(p)
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r!r}")
    m, q = 0, 1
    while q < r:
        q *= p
        m += 1
    return m, q
