"""Independent references that the tests compare the package against.

Each one computes by a route the package does not ship: Kummer carry counts
for binomial valuations, the exact big-integer determinant D_n(r, s), the
breadth-first closure of a permutation group, the test of a dihedral block
action by stabilizer-chain order and membership, the orbit walk that joins
residue blocks, and the dense Kronecker route to a Jordan partition. Only
the input checks, the permutation primitives, the stabilizer chain and the
pieces named below come from the package.

The dense route (`jordan_block`, `MatrixGFp`, `build_tensor`, `_row_echelon`,
`rank_gfp`, `_rank_sequence`, `jcf_partition_single_eigenvalue`) builds
J_r (x) J_s (or N_r (x) N_s) literally as an rs x rs matrix and row-reduces
its nilpotent part and the powers of it mod p. It shares with the graded
route of `normanform.oracle` the `Partition` type, the dimension cap
(`DEFAULT_CAP`, `_check_cap`) and `oracle._partition_from_ranks`, which turns
a rank sequence into block sizes; it shares no rank computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

import numpy as np

from normanform.groupengine import DegreeCapExceeded, PermGroup, expected_wreath_order
from normanform.jordan import Partition
from normanform.oracle import DEFAULT_CAP, _check_cap, _partition_from_ranks
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



def joins_blocks_orbit_walk(seed: tuple[int, ...], gens: list[tuple[int, ...]],
                            b: int) -> bool:
    """The verdict of groupengine._joins_blocks by a walk over the orbit of the
    2-set `seed` under <gens>: each set in the orbit is an edge, merged into a
    union-find, and the walk stops as soon as b components remain. It visits
    up to C(degree, 2) sets, where the package's join queues only the pairs
    that merge."""
    parent = list(range(len(gens[0]) + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(gens[0])
    start = frozenset(seed)
    seen, queue = {start}, [start]
    while queue:
        support = queue.pop()
        root = find(min(support))
        for x in support:
            rx = find(x)
            if rx != root:
                parent[rx] = root
                components -= 1
        if components == b:
            return True
        for g in gens:
            image = frozenset(g[x - 1] for x in support)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return False

# -- the dense Kronecker route ------------------------------------------------------

def _check_int64(dimension: int, p: int) -> None:
    # products of two residues reach (p-1)^2, and an entry of a row-basis product
    # sums up to d of them, so the dense route needs d * (p-1)^2 < 2^63
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
