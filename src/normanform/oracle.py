"""Brute-force ground truth: Kronecker products of Jordan blocks over GF(p) and
Jordan partition recovery from the ranks of powers.

Everything here is exact modular linear algebra; nothing imports the delta
route, so agreement between the two is a real cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jordan import Partition
from .parith import check_rsp, ensure_prime

DEFAULT_CAP = 4096


class DimensionCapExceeded(RuntimeError):
    """Requested matrix dimension above the configured guard."""


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
        # elimination products reach (p-1)^2, and an entry of a row-basis product sums d of them
        if arr.shape[0] * (self.p - 1) ** 2 >= 2 ** 63:
            raise ValueError(f"dimension {arr.shape[0]} at p={self.p} overflows int64: "
                             f"need dimension * (p-1)^2 < 2^63")
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
    if r * s > cap:
        raise DimensionCapExceeded(f"dimension {r * s} exceeds cap {cap}")
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


def oracle_lambda(r: int, s: int, p: int, cap: int = DEFAULT_CAP) -> Partition:
    """The Jordan partition of J_r (x) J_s over GF(p), from ranks alone."""
    p = check_rsp(r, s, p)
    M = build_tensor(r, s, p, "unipotent", cap=cap)
    part = jcf_partition_single_eigenvalue(M, 1)
    assert len(part) == r
    return part


def oracle_nilpotent(r: int, s: int, p: int, cap: int = DEFAULT_CAP) -> Partition:
    """The Jordan partition of N_r (x) N_s over GF(p) (includes the zero eigenvalue blocks)."""
    p = check_rsp(r, s, p)
    M = build_tensor(r, s, p, "nilpotent", cap=cap)
    return jcf_partition_single_eigenvalue(M, 0)


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
