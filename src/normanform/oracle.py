"""Rank-based ground truth for Jordan partitions over GF(p).

Two routes live here. The dense route builds the Kronecker product of two
Jordan blocks literally (`build_tensor`) and reads the Jordan type from the
ranks of powers of its nilpotent part (`jcf_partition_single_eigenvalue`); it
is the literal reference that the tests hold the graded route to.
`oracle_lambda` and `oracle_nilpotent` take the graded route.

Change of basis. J_r is multiplication by 1+x on GF(p)[x]/(x^r), so
J_r (x) J_s - I is multiplication by (1+x)(1+y) - 1 = x + y + xy on
R = GF(p)[x, y]/(x^r, y^s). Put Y = (1+x)y. Since 1+x is a unit,
(x^r, y^s) = (x^r, Y^s), so R = GF(p)[x, Y]/(x^r, Y^s) with the monomials
x^i Y^j (i < r, j < s) as a basis, and the map is multiplication by f = x + Y.
N_r (x) N_s is multiplication by f = xy in the original variables.

Grading. Both maps are homogeneous, f = x + Y of degree 1 and f = xy of
degree 2, so f^k maps the degree-d part R_d into R_{d + k deg f} and rank f^k
is the sum of the ranks of these blocks. Index R_d by the exponent i of x,
a <= i <= b with a = max(0, d-s+1) and b = min(d, r-1): a block has at most
min(r, s) = r rows and columns. Its (i, i') entry is the coefficient of
x^(i'-i) in f^k, which is C(k, i'-i) mod p for x + Y, and 1 at i'-i = k
(0 elsewhere) for xy. No entry has an offset i'-i above r-1, and every degree
d from r-1 to s-1-k deg f gives the same full r x r block, ranked once.

Unit-triangular shortcut. Let t be the lowest or the highest offset in
0..r-1 whose coefficient in f^k is nonzero mod p. If the shifted rows
[a+t, b+t] lie inside the columns [c, e] of the block, the columns i+t form a
triangular square with that coefficient on its diagonal, so the block has
full row rank; the mirror test on columns gives full column rank. Only the
remaining blocks go through elimination.

Degree duality. The pairing <u, v> = coefficient of the socle x^(r-1) Y^(s-1)
in uv is nondegenerate and pairs R_d with R_{top-d}, top = r+s-2, and
<fu, v> = <u, fv>. So the block of f^k at degree d is the transpose of the
block at degree top - d - k deg f, and only the lower degree of each pair is
ranked.

What this shares with the delta route: the entries are binomials mod p, and
D_n(r, s) is the determinant of the square degree-(n-1) block of
(x + Y)^(r+s-2n). What it does not share: no Legendre sums and no carry
arithmetic; ranks come from exact elimination mod p, and nothing here imports
the delta route.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

from .jordan import Partition
from .parith import check_rsp, ensure_prime

DEFAULT_CAP = 4096


class DimensionCapExceeded(RuntimeError):
    """Requested matrix dimension above the configured guard."""


def _check_cap(dimension: int, cap: int) -> None:
    if dimension > cap:
        raise DimensionCapExceeded(f"dimension {dimension} exceeds cap {cap}")


def _check_int64(dimension: int, p: int) -> None:
    # elimination products reach (p-1)^2, and an entry of a row-basis product sums d of them
    if dimension * (p - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"dimension {dimension} at p={p} overflows int64: "
                         f"need dimension * (p-1)^2 < 2^63")


@dataclass(frozen=True)
class MatrixGFp:
    """A square matrix with entries reduced to [0, p-1]; immutable after construction."""

    p: int
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", ensure_prime(self.p))
        arr = np.asarray(self.entries, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        _check_int64(arr.shape[0], self.p)
        arr = np.mod(arr, self.p)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


def jordan_block(ell: int, diag: int) -> np.ndarray:
    """ell x ell upper bidiagonal block with constant diagonal and superdiagonal 1s."""
    if ell < 1:
        raise ValueError(f"block size must be >= 1, got {ell!r}")
    block = np.eye(ell, dtype=np.int64) * diag
    block += np.eye(ell, k=1, dtype=np.int64)
    return block


def build_tensor(r: int, s: int, p: int, kind: str = "unipotent",
                 cap: int = DEFAULT_CAP) -> MatrixGFp:
    """Kronecker product of two Jordan blocks of the requested kind over GF(p)."""
    p = ensure_prime(p)
    if r < 1 or s < 1:
        raise ValueError(f"need r, s >= 1, got r={r}, s={s}")
    if kind not in ("unipotent", "nilpotent"):
        raise ValueError(f"kind must be 'unipotent' or 'nilpotent', got {kind!r}")
    _check_cap(r * s, cap)
    diag = 1 if kind == "unipotent" else 0
    return MatrixGFp(p, np.kron(jordan_block(r, diag), jordan_block(s, diag)))


def _row_echelon(A: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """In-place row echelon of A mod p; returns (rank, the echelon rows)."""
    m, n = A.shape
    rank = 0
    for col in range(n):
        if rank == m:
            break
        nz = np.nonzero(A[rank:, col])[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            A[[rank, pr]] = A[[pr, rank]]
        pivot = int(A[rank, col])
        if pivot != 1:
            A[rank, col:] = A[rank, col:] * pow(pivot, -1, p) % p
        below = A[rank + 1:, col]
        hit = np.nonzero(below)[0]
        if hit.size:
            rows = rank + 1 + hit
            A[rows, col:] = (A[rows, col:] - np.outer(below[hit], A[rank, col:])) % p
        rank += 1
    return rank, A[:rank]


def rank_gfp(M: MatrixGFp) -> int:
    """Rank over the field of p elements by exact modular elimination."""
    return _row_echelon(M.entries.copy(), M.p)[0]


def _rank_sequence(N: np.ndarray, p: int) -> list[int]:
    """Ranks of N, N^2, ... down to (and excluding) 0, for nilpotent N over GF(p).

    Works on a shrinking row-space chain: a row basis of N^{k+1} is the echelon
    form of (row basis of N^k) @ N. Raises ValueError if the rank stops
    decreasing before reaching 0, which certifies N is not nilpotent.
    """
    d = N.shape[0]
    N = np.mod(N, p)
    # basis @ N is one shifted column add per nonzero diagonal N[i, i+k]; a column
    # still sums at most d terms below (p-1)^2, within MatrixGFp's int64 bound
    rows, cols = np.nonzero(N)
    diagonals = [(k, np.diagonal(N, k)) for k in np.unique(cols - rows).tolist()]
    basis = N.copy()
    ranks: list[int] = []
    prev = d
    while True:
        rank, basis = _row_echelon(basis, p)
        if rank == 0:
            return ranks
        if rank >= prev:
            raise ValueError("matrix is not nilpotent: rank sequence stalled")
        ranks.append(rank)
        prev = rank
        product = np.zeros_like(basis)
        for k, diag in diagonals:
            if k >= 0:
                product[:, k:] += basis[:, :d - k] * diag
            else:
                product[:, :d + k] += basis[:, -k:] * diag
        basis = product % p


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


def jcf_partition_single_eigenvalue(M: MatrixGFp, eigenvalue: int) -> Partition:
    """Jordan block sizes of M for its single eigenvalue.

    Requires M - eigenvalue*I nilpotent (verified by the rank chain reaching 0);
    otherwise raises ValueError.
    """
    N = (M.entries - np.eye(M.dimension, dtype=np.int64) * eigenvalue) % M.p
    ranks = _rank_sequence(N, M.p)
    part = _partition_from_ranks(M.dimension, ranks)
    assert part.size == M.dimension
    return part


def _block_rank(coef: np.ndarray, lo: int, hi: int, a: int, b: int, c: int, e: int,
                p: int) -> int:
    """Rank of the block with rows i in [a, b], columns i' in [c, e] and entries
    coef[i' - i] (0 off the ends of coef), whose lowest and highest nonzero offsets
    are lo and hi."""
    if any(c <= a + t and b + t <= e for t in (lo, hi)):
        return b - a + 1
    if any(a <= c - t and e - t <= b for t in (lo, hi)):
        return e - c + 1
    offsets = np.arange(c, e + 1) - np.arange(a, b + 1)[:, None]
    inside = (offsets >= 0) & (offsets < len(coef))
    block = np.where(inside, coef[np.clip(offsets, 0, len(coef) - 1)], 0)
    return _row_echelon(block, p)[0]


def _graded_ranks(r: int, s: int, p: int, deg: int,
                  power: Callable[[int, int], list[int]]) -> list[int]:
    """Ranks of f, f^2, ... down to (and excluding) 0 for multiplication by a
    homogeneous f of degree deg on GF(p)[x, y]/(x^r, y^s), r <= s.

    power(k, w) lists the coefficients mod p of x^t (times the matching power
    of the other variable) in f^k for t = 0..w; w stops at r - 1, the largest
    offset a block entry can have. See the module docstring for the blocks,
    the middle run of equal blocks and the duality.
    """
    top = r + s - 2
    ranks: list[int] = []
    for k in range(1, top // deg + 1):
        shift = k * deg
        coef = np.array(power(k, min(shift, r - 1)), dtype=np.int64)
        nonzero = np.flatnonzero(coef)
        if nonzero.size == 0:
            break
        lo, hi = int(nonzero[0]), int(nonzero[-1])
        middle = s - r - shift + 1
        total = middle * _block_rank(coef, lo, hi, 0, r - 1, 0, r - 1, p) if middle > 0 else 0
        for d in range(min(r - 2, (top - shift) // 2) + 1):
            rank = _block_rank(coef, lo, hi, max(0, d - s + 1), min(d, r - 1),
                               max(0, d + shift - s + 1), min(d + shift, r - 1), p)
            total += rank if 2 * d + shift == top else 2 * rank
        if total == 0:
            break
        ranks.append(total)
    return ranks


def oracle_lambda(r: int, s: int, p: int, cap: int = DEFAULT_CAP) -> Partition:
    """The Jordan partition of J_r (x) J_s over GF(p), from ranks alone."""
    p = check_rsp(r, s, p)
    _check_cap(r * s, cap)
    _check_int64(r * s, p)
    ranks = _graded_ranks(r, s, p, 1, lambda k, w: [comb(k, t) % p for t in range(w + 1)])
    part = _partition_from_ranks(r * s, ranks)
    assert len(part) == r
    return part


def oracle_nilpotent(r: int, s: int, p: int, cap: int = DEFAULT_CAP) -> Partition:
    """The Jordan partition of N_r (x) N_s over GF(p) (includes the zero eigenvalue blocks)."""
    p = check_rsp(r, s, p)
    _check_cap(r * s, cap)
    _check_int64(r * s, p)
    ranks = _graded_ranks(r, s, p, 2, lambda k, w: [int(t == k) for t in range(w + 1)])
    return _partition_from_ranks(r * s, ranks)


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
    return Partition(tuple(mu)) if mu else Partition(())
