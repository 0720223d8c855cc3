import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import normanform
from normanform import delta, oracle
from normanform.jordan import lambda_of
from normanform.oracle import (DimensionCapExceeded, _closed_rank, _graded_ranks,
                               _rank_profiles, nilpotent_mu, oracle_lambda, oracle_nilpotent)
from reference import (MatrixGFp, _rank_sequence, _row_echelon, build_tensor, dn_exact,
                       jcf_partition_single_eigenvalue, rank_gfp)


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
    # one subprocess: scipy never loads, and numpy loads only at the oracle's first
    # elimination, so every command that does not eliminate starts without it;
    # (3, 3, 2) is the first cell with r <= s <= 21, p in {2, 3, 5, 7} that eliminates
    commands = [["pi", "--r", "5", "--s", "7", "--p", "3"],
                ["lambda", "--r", "4", "--s", "9", "--p", "2"],
                ["standard", "--r", "8", "--s", "12", "--p", "5"],
                ["delta", "--r", "6", "--s", "10", "--p", "3"],
                ["green", "--r", "3", "--s", "5", "--p", "2"],
                ["group", "--verify", "--r", "12", "--p", "3"],
                ["group", "--census", "--r", "6", "--p", "2"],
                ["table", "--name", "pi3"],
                ["sweep", "--checks", "six-way,involution,fast-path,wreath",
                 "--rmax", "4", "--primes", "2,3"],
                ["oracle", "--kind", "nilpotent", "--r", "7", "--s", "9", "--p", "2"]]
    code = ("import contextlib, io, sys, normanform.cli\n"
            "loaded = lambda: sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})\n"
            "print(loaded())\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = normanform.cli.main(argv)\n"
            "    print(argv[0], code, loaded())\n"
            "print(normanform.oracle_lambda(3, 3, 2).parts)\n"
            "print(loaded())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines() == (["[]"] + [f"{argv[0]} 0 []" for argv in commands]
                                        + ["(4, 4, 1)", "['numpy']"])


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


# -- the graded oracle against the literal Kronecker matrix -------------------------

KINDS = (("unipotent", oracle_lambda), ("nilpotent", oracle_nilpotent))


def dense_partition(r, s, p, kind):
    eigenvalue = 1 if kind == "unipotent" else 0
    return jcf_partition_single_eigenvalue(build_tensor(r, s, p, kind, cap=r * s), eigenvalue)


def test_graded_matches_dense_grid():
    for kind, graded in KINDS:
        for p in (2, 3, 5, 7):
            for r in range(1, 9):
                for s in range(r, 13):
                    assert graded(r, s, p) == dense_partition(r, s, p, kind), (r, s, p, kind)
        for r, s in ((1, 1), (2, 5), (4, 4), (5, 9), (7, 12)):
            assert graded(r, s, 1000003) == dense_partition(r, s, 1000003, kind), (r, s, kind)


# r * s <= 400 keeps each dense elimination small; the dense grid above and
# criterion 1 carry the breadth
@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(1, 20).flatmap(lambda r: st.tuples(st.just(r), st.integers(r, 400 // r))),
       st.sampled_from((2, 3, 5, 7, 11, 13)))
def test_graded_matches_dense_random(rs, p):
    r, s = rs
    for kind, graded in KINDS:
        assert graded(r, s, p) == dense_partition(r, s, p, kind), (r, s, p, kind)


def coefficient(kind, k, t, p):
    """Coefficient of x^t in f^k: f = x + Y (unipotent) or xy (nilpotent)."""
    if kind == "unipotent":
        return comb(k, t) % p if 0 <= t <= k else 0
    return int(t == k)


def lower_block(r, s, shift, d):
    """Rows 0..b and columns c..e of the lower block of the dual pair d <-> top - d - shift."""
    d = min(d, r + s - 2 - shift - d)
    return min(d, r - 1), max(0, d + shift - s + 1), min(d + shift, r - 1)


def test_block_shortcut_and_duality_match_elimination():
    # every block of every power, written out and eliminated, against the rank-profile
    # count of its lower dual block and, where one applies, the closed rule; and
    # against the block at the dual degree
    for kind, _ in KINDS:
        deg, eigenvalue = (1, 1) if kind == "unipotent" else (2, 0)
        for p in (2, 3, 5):
            for r in range(1, 7):
                for s in range(r, 9):
                    top = r + s - 2
                    ranks = []
                    for k in range(1, top // deg + 1):
                        shift = k * deg
                        coef = [coefficient(kind, k, t, p) for t in range(r)]
                        counts = _rank_profiles(np.array([coef], dtype=np.int64), p)[0]
                        nonzero = [t for t in range(r) if coef[t]]
                        rank = {}
                        for d in range(top - shift + 1):
                            a, b = max(0, d - s + 1), min(d, r - 1)
                            c, e = max(0, d + shift - s + 1), min(d + shift, r - 1)
                            block = np.array([[coefficient(kind, k, j - i, p)
                                               for j in range(c, e + 1)]
                                              for i in range(a, b + 1)], dtype=np.int64)
                            rank[d] = _row_echelon(block, p)[0]
                            lower = lower_block(r, s, shift, d)
                            assert counts[lower[:2]] == rank[d], (r, s, p, kind, k, d)
                            if nonzero:
                                assert _closed_rank(nonzero[0], nonzero[-1], *lower) in (
                                    None, rank[d]), (r, s, p, kind, k, d)
                            else:
                                assert rank[d] == 0
                        for d in rank:
                            assert rank[d] == rank[top - d - shift], (r, s, p, kind, k, d)
                        ranks.append(sum(rank.values()))
                    while ranks and ranks[-1] == 0:
                        ranks.pop()
                    N = (build_tensor(r, s, p, kind).entries
                         - eigenvalue * np.eye(r * s, dtype=np.int64)) % p
                    dense = _rank_sequence(N, p)
                    assert ranks == dense, (r, s, p, kind)
                    if kind == "unipotent":
                        assert dense == _graded_ranks(r, s, p), (r, s, p)
                    else:  # rank (xy)^k = (r-k)(s-k), as oracle_nilpotent counts it
                        assert dense == [(r - k) * (s - k) for k in range(1, r)], (r, s, p)


@st.composite
def coefficient_stacks(draw):
    """(coefficient rows of one length r <= 12, p), some rows repeated in the stack."""
    r = draw(st.integers(1, 12))
    p = draw(st.sampled_from((2, 3, 5, 7, 1000003)))
    row = st.lists(st.one_of(st.just(0), st.integers(1, p - 1)), min_size=r, max_size=r)
    distinct = draw(st.lists(row, min_size=1, max_size=4))
    repeats = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=4))
    return draw(st.permutations(distinct + repeats)), p


@settings(max_examples=60, deadline=None)
@given(coefficient_stacks())
def test_rank_profiles_match_elimination_of_every_block(stack_p):
    # rows 0..b by columns c..r-1 of T[i, i'] = coef[i' - i], written out and eliminated
    stack, p = stack_p
    r = len(stack[0])
    counts = _rank_profiles(np.array(stack, dtype=np.int64), p)
    assert counts.shape == (len(stack), r, r)
    for coef, count in zip(stack, counts):
        for b in range(r):
            for c in range(r):
                block = np.array([[coef[j - i] if j >= i else 0 for j in range(c, r)]
                                  for i in range(b + 1)], dtype=np.int64)
                assert count[b, c] == _row_echelon(block, p)[0], (coef, p, b, c)


def nilpotent_closed_form(r, s):
    """N_r (x) N_s: s-r+1 blocks of size r and two of each size below r, at every p."""
    return (r,) * (s - r + 1) + tuple(j for j in range(r - 1, 0, -1) for _ in range(2))


def test_oracle_nilpotent_needs_no_elimination(monkeypatch):
    # one nonzero offset in every power of xy: the single-diagonal rule ranks each block
    def refuse(*args):
        raise AssertionError("oracle_nilpotent eliminated a matrix")

    monkeypatch.setattr(oracle, "_rank_profiles", refuse)
    for p in (2, 3, 5):
        for r in range(1, 17):
            for s in range(r, 17):
                assert oracle_nilpotent(r, s, p).parts == nilpotent_closed_form(r, s), (r, s, p)


def test_graded_oracle_never_calls_the_delta_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle called the delta route")

    # every module that bound delta_profile by name, delta itself included
    original = delta.delta_profile
    for module in list(sys.modules.values()):
        if getattr(module, "delta_profile", None) is original:
            monkeypatch.setattr(module, "delta_profile", refuse)
    with pytest.raises(AssertionError):
        lambda_of(3, 4, 2)
    for kind, graded in KINDS:
        for p in (2, 3, 5):
            for r in range(1, 7):
                for s in range(r, 9):
                    assert graded(r, s, p) == dense_partition(r, s, p, kind), (r, s, p, kind)


def test_split_stack_matches_one_stack(monkeypatch):
    # a raised cap splits the stack; one or a few matrices per elimination give the same ranks
    expected = {(r, s, p): oracle_lambda(r, s, p)
                for p in (2, 3, 7) for r in range(1, 13) for s in range(r, 15)}
    for entries in (1, 300):
        monkeypatch.setattr(oracle, "_STACK_ENTRIES", entries)
        for (r, s, p), part in expected.items():
            assert oracle_lambda(r, s, p) == part, (r, s, p, entries)


def test_graded_oracle_at_the_int64_edge():
    # the bound (p-1)^2 < 2^63 holds at any dimension: 3037000493 is the largest prime
    # it admits and 3037000507 the next prime; up to (64, 64) the binomials C(k, t)
    # mod p are large residues, so the fraction-free products come near the bound
    cells = [(r, s) for r in (1, 2, 3, 5, 9, 17, 33, 64)
             for s in sorted({r, r + 1, 2 * r - 1, 64}) if s <= 64]
    for p in (10**9 + 7, 3037000493):
        for r, s in cells:
            assert oracle_lambda(r, s, p) == lambda_of(r, s, p), (r, s, p)
            assert oracle_nilpotent(r, s, p).parts == nilpotent_closed_form(r, s), (r, s, p)
    with pytest.raises(ValueError, match="overflows int64"):
        oracle_lambda(1, 1, 3037000507)
    # oracle_nilpotent eliminates nothing, so no bound applies to it
    assert oracle_nilpotent(1, 1, 3037000507).parts == (1,)
    # the dense route keeps its own bound, d * (p-1)^2 < 2^63: (3, 3) is its largest
    # cell at p = 10^9+7, and 1012333499 its largest prime at dimension 9
    for p in (10**9 + 7, 1012333499):
        for kind, graded in KINDS:
            assert graded(3, 3, p) == dense_partition(3, 3, p, kind), (p, kind)


def test_dense_route_is_not_shipped():
    # the dense Kronecker route lives in tests/reference.py only
    for name in ("MatrixGFp", "build_tensor", "rank_gfp", "jcf_partition_single_eigenvalue"):
        assert name not in normanform.__all__, name
        assert not hasattr(oracle, name), name


def test_graded_oracle_at_the_cap():
    # (64, 64) is the largest square cell within the default cap of 4096
    for p in (2, 1000003):
        assert oracle_lambda(64, 64, p) == lambda_of(64, 64, p), p


def exact_det(rows):
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    A = [list(row) for row in rows]
    n, sign, prev = len(A), 1, 1
    for i in range(n - 1):
        pivot = next((j for j in range(i, n) if A[j][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            A[i], A[pivot], sign = A[pivot], A[i], -sign
        for j in range(i + 1, n):
            for m in range(i + 1, n):
                A[j][m] = (A[j][m] * A[i][i] - A[j][i] * A[i][m]) // prev
        prev = A[i][i]
    return sign * A[n - 1][n - 1] if n else 1


def test_dn_is_a_block_determinant():
    # D_n(r, s) is the determinant of the square degree-(n-1) block of (x + Y)^(r+s-2n)
    for r in range(1, 8):
        for s in range(r, 11):
            for n in range(1, r + 1):
                k = r + s - 2 * n
                block = [[comb(k, j - i) if 0 <= j - i <= k else 0 for j in range(r - n, r)]
                         for i in range(n)]
                assert exact_det(block) == dn_exact(r, s, n), (r, s, n)


def test_graded_oracle_large_cell():
    start = time.perf_counter()
    part = oracle_lambda(40, 60, 7)
    assert time.perf_counter() - start < 2.0
    assert part == lambda_of(40, 60, 7)
