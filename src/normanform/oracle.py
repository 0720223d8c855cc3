"""Rank-based ground truth for Jordan partitions over GF(p).

`oracle_lambda` reads the Jordan type from the ranks of the powers of the
nilpotent part, computed degree by degree as below. N_r (x) N_s is
multiplication by xy on GF(p)[x, y]/(x^r, y^s), and (xy)^k x^i y^j =
x^(i+k) y^(j+k), so `oracle_nilpotent` counts rank (xy)^k = (r-k)(s-k), r <= s.

Change of basis. J_r is multiplication by 1+x on GF(p)[x]/(x^r), so
J_r (x) J_s - I is multiplication by (1+x)(1+y) - 1 = x + y + xy on
R = GF(p)[x, y]/(x^r, y^s). Put Y = (1+x)y. Since 1+x is a unit,
(x^r, y^s) = (x^r, Y^s), so R = GF(p)[x, Y]/(x^r, Y^s) with the monomials
x^i Y^j (i < r, j < s) as a basis, and the map is multiplication by f = x + Y.

Grading. f is homogeneous of degree 1, so f^k maps the degree-d part R_d into
R_{d+k} and rank f^k is the sum of the ranks of these blocks. Index R_d by the
exponent i of x, a <= i <= b with a = max(0, d-s+1) and b = min(d, r-1): a
block has at most min(r, s) = r rows and columns. Its (i, i') entry is the
coefficient of x^(i'-i) in f^k, which is C(k, i'-i) mod p. No entry has an
offset i'-i above r-1, and every degree d from r-1 to s-1-k gives the same
full r x r block, ranked once.

Degree duality. The pairing <u, v> = coefficient of the socle x^(r-1) Y^(s-1)
in uv is nondegenerate and pairs R_d with R_{top-d}, top = r+s-2, and
<fu, v> = <u, fv>. So the block of f^k at degree d is the transpose of the
block at degree top - d - k, and only the lower degree of each pair is
ranked. A power is ranked only while f^k != 0, that is while some nonzero
coefficient of x^t sits at t >= k - s + 1, where the monomial survives.

Lower-half blocks. For d <= (top - k)/2 we have d <= s-1, so a = 0, and row
i <= b has no entry past column i + k <= d + k, so the bound e is vacuous: the
block is rows 0..b by columns c..r-1 of one r x r upper triangular Toeplitz
matrix T_k[i, i'] = coef_k[i'-i]. Reversing the columns of T_k turns every
such block into a leading (row-prefix by column-prefix) rectangle.

Closed rules. Two rules rank a block without elimination. If coef_k has one
nonzero offset t, the rank is the number of entries of that diagonal inside
the block. If the lowest or highest nonzero offset t puts the shifted rows
[a+t, b+t] inside the columns [c, e], the columns i+t form a triangular square
with that coefficient on its diagonal, so the block has full row rank. The
mirror test on columns adds nothing: in the lower half R_{d+k} is at least as
large as R_d, so a block that the column test accepts is square, and then the
row test holds with the same t.

Rank profile. The powers with a block left over are eliminated together,
once each: the distinct coefficient vectors (equal vectors give equal
matrices) are stacked as reversed T_k in one (K, r, r) array and reduced in
r column steps. Each step takes as pivot the topmost row that is nonzero in
the column and has not been a pivot row, clears the column only in the rows
below it, and never swaps rows, so every row prefix keeps its row space. The
pivots then form the rank profile (Dumas, Pernet and Sultan, ISSAC 2013):
the rank of each leading rectangle is the number of pivots in it, which two
cumulative sums give for every block at once, the full middle block
included. A used pivot row is zeroed, which keeps it out of later steps and
changes no later pivot, since the other rows evolve as before. Rows are
updated fraction-free, row * pivot - factor * pivotrow (mod p), so no
inverse is needed; each product, and so their difference, is at most
(p-1)^2 in size, whatever the dimension, which _check_int64 keeps below 2^63.
numpy is imported here, at the first call that leaves a block to eliminate,
and not when the module loads: the package imports this module, and numpy's
import was most of every process's start-up, though only the elimination
builds arrays.

What this shares with the delta route: the entries are binomials mod p, and
D_n(r, s) is the determinant of the square degree-(n-1) block of
(x + Y)^(r+s-2n). What it does not share: no Legendre sums and no carry
arithmetic; ranks come from counting entries and exact elimination mod p.
This module imports `jordan` for `Partition`, and `jordan` imports the delta
route, but no oracle call reaches `delta_profile`:
`test_graded_oracle_never_calls_the_delta_route` patches it to raise and
checks the oracle against the dense reference.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

from .jordan import Partition
from .parith import check_rsp

if TYPE_CHECKING:
    import numpy as np

DEFAULT_CAP = 4096
# entries of one stacked elimination: a cell within the default cap stacks at most
# (r + s) r^2 <= 2^19, so it takes one; a raised cap splits the stack instead of
# letting its memory grow with r^3
_STACK_ENTRIES = 2 ** 21


class DimensionCapExceeded(RuntimeError):
    """Requested matrix dimension above the configured guard."""


def _check_cap(dimension: int, cap: int) -> None:
    if dimension > cap:
        raise DimensionCapExceeded(f"dimension {dimension} exceeds cap {cap}")


def _check_int64(p: int) -> None:
    # the fraction-free update row * pivot - factor * pivotrow forms two products of
    # residues, each at most (p-1)^2, and subtracts them, so (p-1)^2 < 2^63 bounds
    # every intermediate at any dimension: p <= 3037000493 passes, 3037000507 fails
    if (p - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"p={p} overflows int64: need (p-1)^2 < 2^63")


def _partition_from_ranks(dimension: int, ranks: list[int]) -> Partition:
    """Block sizes from the rank sequence: #(blocks of size >= k) = r_{k-1} - r_k."""
    padded = [dimension] + ranks + [0]
    counts = [padded[k - 1] - padded[k] for k in range(1, len(padded))]
    parts: list[int] = []
    for k in range(len(counts), 0, -1):
        width = counts[k - 1] - (counts[k] if k < len(counts) else 0)
        if width < 0:
            raise RuntimeError("rank sequence is not convex; arithmetic fault")
        parts.extend([k] * width)
    parts.sort(reverse=True)
    return Partition(tuple(parts))


def _closed_rank(lo: int, hi: int, b: int, c: int, e: int) -> int | None:
    """Rank of the block with rows 0..b, columns c..e and entries coef[i' - i] whose
    lowest and highest nonzero offsets are lo and hi, when a closed rule decides it:
    one nonzero offset, or a unit-triangular square. None when neither applies."""
    if lo == hi:
        return max(0, min(b, e - lo) - max(0, c - lo) + 1)
    if c <= lo and b + lo <= e or c <= hi and b + hi <= e:
        return b + 1
    return None


def _rank_profiles(coefs: np.ndarray, p: int) -> np.ndarray:
    """Ranks of all blocks of the r x r matrices T[i, i'] = coef[i' - i] (0 for
    i' < i), one per row of coefs (shape (K, r)), from one stacked elimination.

    Returns counts of shape (K, r, r): counts[k, b, c] is the rank of rows 0..b by
    columns c..r-1 of the k-th matrix. See the module docstring for the pivots.
    """
    import numpy as np

    K, r = coefs.shape
    offset = r - 1 - np.add.outer(np.arange(r), np.arange(r))
    # A[j, k] is column j of the k-th matrix with its columns reversed
    A = np.where(offset[:, None, :] >= 0, coefs[:, np.maximum(offset, 0)].transpose(1, 0, 2), 0)
    pivots = np.zeros((K, r, r), dtype=np.int64)
    stack, rows = np.arange(K), np.arange(r)
    for j in range(r):
        column = A[j]
        top = (column != 0).argmax(axis=1)
        pivot = column[stack, top]
        pivots[stack, top, j] = pivot != 0
        # the rows at or below the pivot with a nonzero entry; the pivot row itself
        # is zeroed, which takes it out of the later columns' candidates
        k, i = np.nonzero((rows >= top[:, None]) & (column != 0))
        A[j + 1:, k, i] = (A[j + 1:, k, i] * pivot[k] - column[k, i] * A[j + 1:, k, top[k]]) % p
    return pivots.cumsum(axis=1).cumsum(axis=2)[:, :, ::-1]


def _graded_ranks(r: int, s: int, p: int) -> list[int]:
    """Ranks of f, f^2, ... down to (and excluding) 0 for multiplication by
    f = x + Y on GF(p)[x, Y]/(x^r, Y^s), r <= s.

    A block entry has offset at most r - 1, so only the coefficients
    C(k, t) mod p of x^t in f^k for t <= min(k, r - 1) are formed. See the
    module docstring for the blocks, the middle run of equal blocks, the
    duality, the closed rules and the stacked elimination of the powers they
    leave over.
    """
    top = r + s - 2
    ranks: list[int] = []
    slots: dict[tuple[int, ...], int] = {}
    pending: list[tuple[int, int, int, int, int]] = []
    for k in range(1, top + 1):
        coef = [comb(k, t) % p for t in range(min(k, r - 1) + 1)]
        nonzero = [t for t, v in enumerate(coef) if v]
        if not nonzero or nonzero[-1] < k - s + 1:
            break
        lo, hi = nonzero[0], nonzero[-1]
        middle = s - r - k + 1
        blocks = [(middle, r - 1, 0, r - 1)] if middle > 0 else []
        blocks += [(1 if 2 * d + k == top else 2, d, max(0, d + k - s + 1), min(d + k, r - 1))
                   for d in range(min(r - 2, (top - k) // 2) + 1)]
        total = 0
        for weight, b, c, e in blocks:
            rank = _closed_rank(lo, hi, b, c, e)
            if rank is None:
                key = tuple(coef + [0] * (r - len(coef)))
                pending += [(len(ranks), slots.setdefault(key, len(slots)), weight, b, c)
                            for weight, b, c, _ in blocks]
                total = 0
                break
            total += weight * rank
        ranks.append(total)
    if pending:
        import numpy as np

        index, slot, weight, b, c = (np.array(v, dtype=np.int64) for v in zip(*pending))
        stack = np.array(list(slots), dtype=np.int64)
        block_rank = np.empty_like(index)
        step = max(1, _STACK_ENTRIES // (r * r))
        for first in range(0, len(stack), step):
            here = (slot >= first) & (slot < first + step)
            counts = _rank_profiles(stack[first:first + step], p)
            block_rank[here] = counts[slot[here] - first, b[here], c[here]]
        for i, add in zip(index.tolist(), (weight * block_rank).tolist()):
            ranks[i] += add
    return ranks


def oracle_lambda(r: int, s: int, p: int, cap: int = DEFAULT_CAP) -> Partition:
    """The Jordan partition of J_r (x) J_s over GF(p), from ranks alone."""
    p = check_rsp(r, s, p)
    _check_cap(r * s, cap)
    _check_int64(p)
    part = _partition_from_ranks(r * s, _graded_ranks(r, s, p))
    assert len(part) == r
    return part


def oracle_nilpotent(r: int, s: int, p: int, cap: int = DEFAULT_CAP) -> Partition:
    """The Jordan partition of N_r (x) N_s over GF(p) (includes the zero eigenvalue blocks)."""
    p = check_rsp(r, s, p)
    _check_cap(r * s, cap)
    return _partition_from_ranks(r * s, [(r - k) * (s - k) for k in range(1, r)])


def nilpotent_mu(r: int, s: int, p: int, cap: int = DEFAULT_CAP) -> Partition:
    """The paired-part residue of the nilpotent partition.

    Removes s - r + 1 copies of the forced part r, then halves the remaining
    multiplicities; an odd leftover multiplicity is a verification failure.
    """
    part = oracle_nilpotent(r, s, p, cap=cap)
    counts: dict[int, int] = {}
    for v in part.parts:
        counts[v] = counts.get(v, 0) + 1
    if counts.get(r, 0) < s - r + 1:
        raise RuntimeError(
            f"part {r} has multiplicity {counts.get(r, 0)} < s-r+1 = {s - r + 1}")
    counts[r] -= s - r + 1
    mu: list[int] = []
    for v in sorted(counts, reverse=True):
        if counts[v] % 2:
            raise RuntimeError(f"part {v} has odd unpaired multiplicity {counts[v]}")
        mu.extend([v] * (counts[v] // 2))
    return Partition(tuple(mu))
