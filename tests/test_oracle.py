import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from normanform.jordan import lambda_of
from normanform.oracle import (DimensionCapExceeded, MatrixGFp, build_tensor,
                               jcf_partition_single_eigenvalue, nilpotent_mu,
                               oracle_lambda, oracle_nilpotent, rank_gfp)


def test_build_tensor_examples():
    M = build_tensor(2, 2, 2, "unipotent")
    assert M.entries.tolist() == [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    assert build_tensor(1, 1, 5, "unipotent").entries.tolist() == [[1]]
    N = build_tensor(2, 2, 3, "nilpotent")
    assert N.entries[0, 3] == 1 and N.entries.sum() == 1


def test_build_tensor_cap():
    with pytest.raises(DimensionCapExceeded):
        build_tensor(70, 70, 2)
    build_tensor(70, 70, 2, cap=4900)


def test_build_tensor_bad_kind():
    with pytest.raises(ValueError):
        build_tensor(2, 2, 2, "frobnicated")


def test_rank_examples():
    assert rank_gfp(MatrixGFp(5, np.eye(7, dtype=np.int64))) == 7
    M = build_tensor(2, 2, 2)
    N = (M.entries - np.eye(4, dtype=np.int64)) % 2
    assert rank_gfp(MatrixGFp(2, N)) == 2
    assert rank_gfp(MatrixGFp(3, np.zeros((4, 4), dtype=np.int64))) == 0


def test_rank_respects_modulus():
    # matrix invertible over Q but rank-deficient mod 2
    A = np.array([[2, 0], [0, 1]], dtype=np.int64)
    assert rank_gfp(MatrixGFp(2, A)) == 1
    assert rank_gfp(MatrixGFp(3, A)) == 2


def test_jcf_single_eigenvalue_examples():
    M = build_tensor(2, 2, 2)
    assert jcf_partition_single_eigenvalue(M, 1).parts == (2, 2)
    # p >= r+s-1: staircase partition
    M = build_tensor(3, 4, 7)
    assert jcf_partition_single_eigenvalue(M, 1).parts == (6, 4, 2)
    Z = MatrixGFp(3, np.zeros((5, 5), dtype=np.int64))
    assert jcf_partition_single_eigenvalue(Z, 0).parts == (1, 1, 1, 1, 1)


def test_jcf_rejects_non_nilpotent():
    M = MatrixGFp(3, np.eye(4, dtype=np.int64) * 2)
    with pytest.raises(ValueError):
        jcf_partition_single_eigenvalue(M, 0)


def test_oracle_lambda_examples():
    assert oracle_lambda(2, 3, 3).parts == (3, 3)
    assert oracle_lambda(3, 4, 2).parts == (4, 4, 4)
    assert oracle_lambda(4, 5, 7).parts == (7, 7, 4, 2)


def test_oracle_matches_delta_route_small():
    for p in (2, 3, 5):
        for r in range(1, 13):
            for s in range(r, 13):
                assert oracle_lambda(r, s, p).parts == lambda_of(r, s, p).parts


def test_rank_sequence_convex_and_nilpotency_index():
    for (r, s, p) in [(2, 2, 2), (3, 5, 2), (4, 4, 3)]:
        M = build_tensor(r, s, p)
        N = (M.entries - np.eye(r * s, dtype=np.int64)) % p
        ranks = []
        P = N.copy()
        while P.any():
            ranks.append(rank_gfp(MatrixGFp(p, P)))
            P = (P @ N) % p
        # the index of nilpotency is the largest part
        assert len(ranks) + 1 == oracle_lambda(r, s, p).parts[0]
        drops = [r * s - ranks[0]] + [a - b for a, b in zip(ranks, ranks[1:] + [0])]
        assert all(a >= b for a, b in zip(drops, drops[1:]))


def test_oracle_nilpotent_examples():
    assert oracle_nilpotent(1, 6, 3).parts == (1,) * 6
    part = oracle_nilpotent(2, 2, 2)
    assert part.parts == (2, 1, 1)
    assert nilpotent_mu(2, 2, 2).parts == (1,)
    assert oracle_nilpotent(3, 5, 2).parts == oracle_nilpotent(3, 5, 5).parts


def test_nilpotent_structure():
    for p in (2, 3):
        for r in range(1, 9):
            for s in range(r, 9):
                part = oracle_nilpotent(r, s, p)
                assert part.size == r * s
                assert part.parts[0] == r  # nilpotency order exactly r
                counts = {}
                for v in part.parts:
                    counts[v] = counts.get(v, 0) + 1
                assert counts[r] >= s - r + 1
                mu = nilpotent_mu(r, s, p)
                assert mu.size == r * (r - 1) // 2


def test_matrix_immutable():
    M = build_tensor(2, 2, 2)
    with pytest.raises(ValueError):
        M.entries[0, 0] = 0


def exact_rank_mod(rows, p):
    """Rank mod p by Gaussian elimination on Python ints, which cannot overflow."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_rejects_int64_overflow():
    # rank 1 over every field; int64 echelon products wrapped and gave 2
    with pytest.raises(ValueError):
        rank_gfp(MatrixGFp(10**10 + 19, [[4, -2], [2, -1]]))
    with pytest.raises(ValueError):
        MatrixGFp(10**9 + 7, np.eye(10, dtype=np.int64))


def test_rank_matches_exact_elimination_at_large_prime():
    p = 10**9 + 7
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 9)
        k = rng.randint(1, n)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
                for i in range(n)]
        # scaling each row by a unit mod p keeps the rank and makes the entries large
        rows = [[x * c for x in row] for row, c in
                zip(rows, [rng.randint(1, p - 1) for _ in range(n)])]
        assert rank_gfp(MatrixGFp(p, rows)) == exact_rank_mod(rows, p), rows


def test_package_import_skips_scipy():
    code = ("import sys, normanform.cli\n"
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy())\n"
            "print(normanform.oracle_lambda(3, 4, 2).parts)\n"
            "print(scipy())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "(4, 4, 4)", "[]"]


def test_jcf_of_permuted_jordan_nilpotent():
    # conjugating by a permutation matrix scatters the superdiagonal over
    # diagonals of both signs
    rng = np.random.default_rng(5)
    for parts in ((4, 2, 2, 1), (7, 3), (5, 5, 1, 1, 1), (1, 1, 1)):
        d = sum(parts)
        N = np.zeros((d, d), dtype=np.int64)
        start = 0
        for size in parts:
            for i in range(start, start + size - 1):
                N[i, i + 1] = 1
            start += size
        for p, eigenvalue in ((2, 1), (3, 0), (7, 5), (1000003, 12)):
            P = np.eye(d, dtype=np.int64)[rng.permutation(d)]
            M = P @ N @ P.T + eigenvalue * np.eye(d, dtype=np.int64)
            got = jcf_partition_single_eigenvalue(MatrixGFp(p, M), eigenvalue)
            assert got.parts == parts, (parts, p)
