"""Independent references that the tests compare the package against.

Each one computes by a route the package does not ship: Kummer carry counts
for binomial valuations, the exact big-integer determinant D_n(r, s), the
breadth-first closure of a permutation group, and the test of a dihedral block
action by stabilizer-chain order and membership. Only the input checks, the
permutation primitives and the stabilizer chain come from the package.
"""

from __future__ import annotations

from math import comb
from typing import Iterable

from normanform.groupengine import DegreeCapExceeded, PermGroup, expected_wreath_order
from normanform.parith import check_rsp, ensure_prime
from normanform.perm import Permutation, compose, identity


def binom_valuation(n: int, k: int, p: int) -> int:
    """p-adic valuation of C(n, k), as the number of carries adding k and n-k in base p."""
    p = ensure_prime(p)
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    a, b = k, n - k
    carries = 0
    carry = 0
    while a > 0 or b > 0 or carry:
        t = a % p + b % p + carry
        carry = 1 if t >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


def dn_valuation(r: int, s: int, p: int, n: int) -> int:
    """p-adic valuation of D_n(r, s), as a signed sum of Kummer carry counts.

    Independent of the Legendre route of delta_profile.
    """
    p = check_rsp(r, s, p)
    if not 1 <= n <= r:
        raise ValueError(f"need 1 <= n <= r, got n={n}, r={r}")
    total = sum(binom_valuation(s + r - 2 * n + i, s - n, p)
                - binom_valuation(s - n + i, s - n, p) for i in range(n))
    if total < 0:
        raise RuntimeError(f"negative valuation {total} for D_{n}({r},{s}) at p={p}; "
                           "this signals an internal arithmetic fault")
    return total


def dn_exact(r: int, s: int, n: int) -> int:
    """The integer D_n(r, s) via exact big-integer arithmetic."""
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


def closure(generators: Iterable[Permutation], degree: int,
            limit: int = 10000) -> frozenset[Permutation]:
    """All products of the generators by breadth-first closure, capped."""
    seen = {identity(degree)}
    frontier = [identity(degree)]
    gens = list(generators)
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                hg = compose(h, g)
                if hg not in seen:
                    if len(seen) >= limit:
                        raise DegreeCapExceeded(f"closure exceeded {limit} elements")
                    seen.add(hg)
                    nxt.append(hg)
        frontier = nxt
    return frozenset(seen)


def generates_dihedral(images: list[Permutation], b: int) -> bool:
    """True iff the images generate D_b, whose reflections n -> (c - n mod b) + 1
    give the shape of the induced block action: iff |<images>| = |D_b| and
    <images> contains every reflection. The order alone would accept any other
    group of order |D_b|.
    """
    H = PermGroup(images, b, cap=b)
    return H.order() == expected_wreath_order(1, b) and all(
        H.contains(Permutation(tuple((c - n) % b + 1 for n in range(1, b + 1))))
        for c in range(b))
