"""Determinant valuations D_n(r, s), the delta bit profile, and the gap functions L, R.

D_n(r, s) is the determinant of the n x n matrix with (i, j)-entry
C(s+r-2n, s-n+i-j); it equals the product of binomial ratios
prod_{i=0}^{n-1} C(s+r-2n+i, s-n) / C(s-n+i, s-n). Written as factorials, with
F(x) = sum_{k<x} v_p(k!) (Legendre), its p-adic valuation is

    v_p(D_n) = F(s+r-n) - F(s+r-2n) - F(r) + F(r-n) - F(s) + F(s-n) + F(n).

Every argument lies in one of two windows, [0, r] and [s-r, s+r].
delta_profile tabulates F on each window from one closed-form anchor,
F(x) = (x(x-1)/2 - sum_{k<x} S_p(k)) / (p-1) with S_p the base-p digit sum,
stepping by F(k+1) = F(k) + v_p(k!) and v_p((k+1)!) = v_p(k!) + v_p(k+1). One
profile costs O(r + log_p s) integer operations; the huge integer D_n is never
formed. The carry-count and exact big-integer values of D_n, independent
routes, live with the tests as references.

A run of consecutive s = r, r+1, ..., as one period of pi in s, reads every
row from one table of F instead of two windows per s. The far windows of
s0 <= s < s1 all lie in [s0-r, s1-1+r], and at s = r the far window starts
at 0, so the head of the first table, F on [0, r], is also the near window of
every s. The table is built in chunks of _RUN_CHUNK values of s, so a run's
extra memory is O(r + _RUN_CHUNK) whatever its length; neighbouring chunks
overlap in 2r entries of F.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .parith import check_rsp

# values of s per Legendre table in a run of s: a table holds _RUN_CHUNK + 2r
# entries of F
_RUN_CHUNK = 2 ** 12


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


def _digit_sum_prefix(x: int, p: int) -> int:
    """sum_{k<x} S_p(k), one base-p place at a time: O(log_p x)."""
    total = 0
    w = 1
    while w < x:
        cycles, rest = divmod(x, w * p)
        digit, tail = divmod(rest, w)
        # each whole cycle of w*p numbers puts every digit 0..p-1 at place w, w times
        total += w * (cycles * (p * (p - 1) // 2) + digit * (digit - 1) // 2) + digit * tail
        w *= p
    return total


def _legendre_window(lo: int, hi: int, p: int) -> list[int]:
    """[F(lo), F(lo+1), ..., F(hi)] for F(x) = sum_{k<x} v_p(k!)."""
    f = (lo * (lo - 1) // 2 - _digit_sum_prefix(lo, p)) // (p - 1)
    v = 0  # v_p(lo!) = sum_{i>=1} floor(lo / p^i)
    q = p
    while q <= lo:
        v += lo // q
        q *= p
    window = [f]
    for k in range(lo + 1, hi + 1):
        f += v
        window.append(f)
        j = k
        while j % p == 0:  # v_p(k!) = v_p((k-1)!) + v_p(k)
            j //= p
            v += 1
    return window


def _valuations(r: int, s: int, p: int) -> list[int]:
    """[v_p(D_1), ..., v_p(D_{r-1})] from F tabulated on [0, r] and [s-r, s+r]."""
    return _valuations_on(r, s, p, _legendre_window(0, r, p), _legendre_window(s - r, s + r, p))


def _valuations_on(r: int, s: int, p: int, near: list[int], far: list[int]) -> list[int]:
    """[v_p(D_1), ..., v_p(D_{r-1})] read off near[x] = F(x) for 0 <= x <= r and
    far[x - s + r] = F(x) for s-r <= x <= s+r."""
    out = []
    for n in range(1, r):
        v = (far[2 * r - n] - far[2 * r - 2 * n] - near[r] + near[r - n]
             - far[r] + far[r - n] + near[n])
        if v < 0:
            raise RuntimeError(f"negative valuation {v} for D_{n}({r},{s}) at p={p}; "
                               "this signals an internal arithmetic fault")
        out.append(v)
    return out


def _bits(valuations: list[int]) -> list[int]:
    """delta_0, ..., delta_r: 1 at both ends and wherever v_p(D_n) = 0."""
    return [1] + [1 if v == 0 else 0 for v in valuations] + [1]


def _delta_run(r: int, p: int, count: int) -> Iterator[list[int]]:
    """The delta bits of (r, s, p) for s = r, ..., r + count - 1 in turn, read
    from chunked tables of F as the module docstring sets out; p is a checked
    prime."""
    width = 2 * r + 1
    near: list[int] = []
    for s0 in range(r, r + count, _RUN_CHUNK):
        s1 = min(s0 + _RUN_CHUNK, r + count)
        table = _legendre_window(s0 - r, s1 - 1 + r, p)  # table[x - s0 + r] = F(x)
        if s0 == r:
            near = table[:r + 1]
        for i in range(s1 - s0):
            yield _bits(_valuations_on(r, s0 + i, p, near, table[i:i + width]))


def delta_profile(r: int, s: int, p: int) -> DeltaProfile:
    """Full delta/L/R profile for (r, s, p)."""
    p = check_rsp(r, s, p)
    delta = _bits(_valuations(r, s, p))
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
    return DeltaProfile(r, s, p, tuple(delta), tuple(L), tuple(R))
