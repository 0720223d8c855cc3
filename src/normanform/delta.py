"""Determinant valuations D_n(r, s) and the delta profile, held as its cut points.

D_n(r, s) is the determinant of the n x n matrix with (i, j)-entry
C(s+r-2n, s-n+i-j); it equals the product of binomial ratios
prod_{i=0}^{n-1} C(s+r-2n+i, s-n) / C(s-n+i, s-n). Written as factorials, with
F(x) = sum_{k<x} v_p(k!) (Legendre), its p-adic valuation is

    v_p(D_n) = F(s+r-n) - F(s+r-2n) - F(r) + F(r-n) - F(s) + F(s-n) + F(n).

Every argument lies in one of two windows, [0, r] and [s-r, s+r]. The four
far-window terms have coefficients +1, -1, -1, +1, which sum to 0 also when
weighted by their arguments, so F less any affine function of x serves on the
far window. _legendre_window(lo, hi, p) tabulates G(x) = F(x) - F(lo) -
(x - lo) v_p(lo!), which starts 0, 0 with second differences v_p(x), from the
valuations of the window's own integers; at lo = 0, G = F. One profile costs
O(r + log_p s) operations on small integers, and D_n is never formed; its
carry-count and exact big-integer values, independent routes, live with the
tests as references. The profile is held as its cut points, 0, r and every n
in [r-1] with v_p(D_n) = 0, and only _cuts turns valuations into cut points.

One period of pi in s takes all its values at fewer than 3r cells. Pair the
n terms of the two sums of v_p(k!) in the s-dependent part
[F(s+r-n) - F(s+r-2n)] - [F(s) - F(s-n)]: it equals the sum over j < n of
the v_p(t) for t in [s-n+j+1, s+r-2n+j], all inside the window
[s-r+2, s+r-2]. So the cut points depend only on the p-adic valuations of
the 2r-3 integers of that window (the window lemma). Let q = p^m be the
least p-power >= r; pi has period q in s. When the window of s holds no
multiple of q, each t in it has v_p(t) = #{1 <= j < m : p^j | t}, which
depends only on t mod p^(m-1); so window-free cells congruent mod p^(m-1)
have the same cut points. _period_cells returns the n = min(q, 2r-1 + q//p)
cells from 2q-r+1 on. If n < q, they hold every s within r-2 of 2q, the
residues whose window meets qZ, and then p^(m-1) + 1 consecutive
window-free cells, one in each class mod p^(m-1); otherwise they are a
whole period. _delta_run computes every cell of a run, reading the far
windows at offsets into one table on [start-r, stop-1+r], as every cell
cancels the table's one affine term.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

from .parith import check_rsp, p_power_at_least


@dataclass(frozen=True)
class DeltaProfile:
    """The cut points 0 = t_0 < ... < t_{k+1} = r of (r, s, p), and O(r) views of them.

    delta_0..delta_r is 1 exactly at the cut points. For n in [r], L(n) is the
    least positive d with delta_{n-d} = 1 and R(n) the least nonnegative d with
    delta_{n+d} = 1: on each interval (lo, hi] between consecutive cut points,
    L(n) = n - lo and R(n) = hi - n.
    """

    r: int
    s: int
    p: int
    cuts: tuple[int, ...]

    @property
    def delta(self) -> tuple[int, ...]:
        cuts = set(self.cuts)
        return tuple(int(n in cuts) for n in range(self.r + 1))

    @property
    def L(self) -> tuple[int, ...]:
        cuts = self.cuts
        return tuple(d for lo, hi in zip(cuts, cuts[1:]) for d in range(1, hi - lo + 1))

    @property
    def R(self) -> tuple[int, ...]:
        cuts = self.cuts
        return tuple(d for lo, hi in zip(cuts, cuts[1:]) for d in range(hi - lo - 1, -1, -1))


def _legendre_window(lo: int, hi: int, p: int) -> list[int]:
    """[G(lo), ..., G(hi)] for G(x) = F(x) - F(lo) - (x - lo) v_p(lo!), which
    equals F(x) when lo = 0: G(lo) = G(lo+1) = 0 and G(x+1) - G(x) is the sum of
    v_p(t) over t in (lo, x], set one power q = p^e at a time."""
    inc = [0] * (hi - lo)  # inc[i] = v_p(lo + i) for i >= 1
    q, e = p, 1
    while q <= hi:
        first = q - lo % q
        inc[first::q] = [e] * len(range(first, hi - lo, q))
        q, e = q * p, e + 1
    return list(accumulate(accumulate(inc), initial=0))


def _valuations_on(r: int, s: int, p: int, near: list[int], table: list[int],
                   start: int) -> list[int]:
    """[v_p(D_1), ..., v_p(D_{r-1})] read off near[x] = F(x) for 0 <= x <= r and
    table[start + x - s + r] = F(x) - a - bx for s-r <= x <= s+r, any a and b."""
    out = []
    top = start + 2 * r
    mid = start + r
    fixed = near[r] + table[mid]  # the terms at x = r and x = s, which do not move with n
    for n in range(1, r):
        v = table[top - n] - table[top - 2 * n] + near[r - n] + table[mid - n] + near[n] - fixed
        if v < 0:
            raise RuntimeError(f"negative valuation {v} for D_{n}({r},{s}) at p={p}; "
                               "this signals an internal arithmetic fault")
        out.append(v)
    return out


def _cuts(valuations: list[int]) -> tuple[int, ...]:
    """The cut points 0, r and every n with v_p(D_n) = 0, from [v_p(D_1), ..., v_p(D_{r-1})]."""
    return (0, *[n for n, v in enumerate(valuations, 1) if v == 0], len(valuations) + 1)


def _period_cells(r: int, p: int) -> range:
    """Fewer than 3r cells s that take every value of pi(r, s, p) over one
    period in s, by the window lemma of the module docstring."""
    q = p_power_at_least(r, p)[1]
    return range(2 * q - r + 1, 2 * q - r + 1 + min(q, 2 * r - 1 + q // p))


def _delta_run(r: int, p: int, cells: range) -> Iterator[tuple[int, ...]]:
    """The cut points of (r, s, p) for each s of the run `cells` in turn, read
    from one table as the module docstring sets out; p is a checked prime."""
    table = _legendre_window(cells.start - r, cells.stop - 1 + r, p)  # table[x - start + r] = G(x)
    near = _legendre_window(0, r, p)
    for i, s in enumerate(cells):
        yield _cuts(_valuations_on(r, s, p, near, table, i))


def delta_profile(r: int, s: int, p: int) -> DeltaProfile:
    """The delta profile of (r, s, p): its cut points, from one pair of Legendre windows."""
    p = check_rsp(r, s, p)
    return DeltaProfile(r, s, p, next(_delta_run(r, p, range(s, s + 1))))
