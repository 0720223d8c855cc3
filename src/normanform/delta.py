"""Determinant valuations D_n(r, s), the delta bit profile, and the gap functions L, R.

D_n(r, s) is the determinant of the n x n matrix with (i, j)-entry
C(s+r-2n, s-n+i-j); it equals the product of binomial ratios
prod_{i=0}^{n-1} C(s+r-2n+i, s-n) / C(s-n+i, s-n), which is how it is
evaluated here. The main path never materialises the (huge) integer: only its
p-adic valuation is accumulated via Kummer carry counts. The exact big-integer
product is kept as a cross-check oracle for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .parith import _carries, ensure_prime


@dataclass(frozen=True)
class DeltaProfile:
    """Bits delta_0..delta_r plus the left/right distances to the nearest set bit.

    delta_0 = delta_r = 1 always. For n in [r], L[n-1] = L(n) is the least
    positive d with delta_{n-d} = 1 and R[n-1] = R(n) the least nonnegative d
    with delta_{n+d} = 1.
    """

    r: int
    s: int
    p: int
    delta: tuple[int, ...]
    L: tuple[int, ...]
    R: tuple[int, ...]

    def descent_set(self) -> tuple[int, ...]:
        """T = {i in [r-1] : delta_i = 1}."""
        return tuple(i for i in range(1, self.r) if self.delta[i] == 1)


def _check_params(r: int, s: int, p: int) -> None:
    ensure_prime(p)
    if not 1 <= r <= s:
        raise ValueError(f"need 1 <= r <= s, got r={r}, s={s}")


def dn_valuation(r: int, s: int, p: int, n: int) -> int:
    """p-adic valuation of D_n(r, s), as a signed sum of carry counts."""
    _check_params(r, s, p)
    if not 1 <= n <= r:
        raise ValueError(f"need 1 <= n <= r, got n={n}, r={r}")
    return _dn_valuation(r, s, p, n)


def _dn_valuation(r: int, s: int, p: int, n: int) -> int:
    # sum over i < n of v_p C(s+r-2n+i, s-n) - v_p C(s-n+i, s-n), by Kummer
    total = 0
    for i in range(n):
        total += _carries(s - n, r - n + i, p)
        total -= _carries(s - n, i, p)
    if total < 0:
        raise RuntimeError(
            f"negative valuation {total} for D_{n}({r},{s}) at p={p}; "
            "this signals an internal arithmetic fault")
    return total


def dn_exact(r: int, s: int, n: int) -> int:
    """The integer D_n(r, s) via exact big-integer arithmetic (cross-check oracle only)."""
    if not 1 <= r <= s:
        raise ValueError(f"need 1 <= r <= s, got r={r}, s={s}")
    if not 0 <= n <= r:
        raise ValueError(f"need 0 <= n <= r, got n={n}")
    if n == 0:
        return 1
    num = 1
    den = 1
    for i in range(n):
        num *= comb(s + r - 2 * n + i, s - n)
        den *= comb(s - n + i, s - n)
    if num % den:
        raise RuntimeError(f"D_{n}({r},{s}) product is not an integer; arithmetic fault")
    return num // den


def delta_profile(r: int, s: int, p: int) -> DeltaProfile:
    """Full delta/L/R profile for (r, s, p)."""
    _check_params(r, s, p)
    delta = [1] + [1 if _dn_valuation(r, s, p, n) == 0 else 0 for n in range(1, r)] + [1]
    L = [0] * r
    R = [0] * r
    last_one = 0
    for n in range(1, r + 1):
        L[n - 1] = n - last_one
        if delta[n] == 1:
            last_one = n
    next_one = r
    for n in range(r, 0, -1):
        if delta[n] == 1:
            next_one = n
        R[n - 1] = next_one - n
    prof = DeltaProfile(r, s, p, tuple(delta), tuple(L), tuple(R))
    for n in range(1, r + 1):
        assert 1 <= prof.L[n - 1] <= n and 0 <= prof.R[n - 1] <= r - n
    return prof
