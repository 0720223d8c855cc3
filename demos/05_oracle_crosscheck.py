"""Two roads to the same partition: binomial arithmetic vs matrix ranks.

This script prints the Kronecker product over GF(p) literally and reads the
Jordan structure from ranks of powers of the nilpotent part. oracle_lambda
gets the same ranks from the graded blocks instead: each rank is a sum of
small binomial blocks, one per degree of GF(p)[x, Y]/(x^r, Y^s). The oracle
shares no code with the delta route, so agreement is evidence, not tautology.
"""

import numpy as np

from normanform import lambda_of, oracle_lambda

R, S, P = 3, 4, 2


def jordan_block(n):
    """n x n unipotent Jordan block: 1 on the diagonal and the superdiagonal."""
    return np.eye(n, dtype=np.int64) + np.eye(n, k=1, dtype=np.int64)


def rank_mod(A, p):
    """Rank of A over GF(p) by Gaussian elimination."""
    A = A.copy() % p
    rank = 0
    for col in range(A.shape[1]):
        rows = np.nonzero(A[rank:, col])[0]
        if rows.size == 0:
            continue
        A[[rank, rank + rows[0]]] = A[[rank + rows[0], rank]]
        A[rank] = A[rank] * pow(int(A[rank, col]), -1, p) % p
        A[rank + 1:] = (A[rank + 1:] - np.outer(A[rank + 1:, col], A[rank])) % p
        rank += 1
        if rank == A.shape[0]:
            break
    return rank


M = np.kron(jordan_block(R), jordan_block(S)) % P
dimension = M.shape[0]
print(f"J_{R} (x) J_{S} over GF({P}), dimension {dimension}:")
print(M)

N = (M - np.eye(dimension, dtype=np.int64)) % P
print("\nranks of (M - I)^k:")
ranks = [dimension]
Pow = N.copy()
while Pow.any():
    ranks.append(rank_mod(Pow, P))
    Pow = (Pow @ N) % P
ranks.append(0)
for k, rk in enumerate(ranks):
    print(f"  k={k}: rank {rk}")

print("\nblocks of size >= k are counted by consecutive differences:")
diffs = [a - b for a, b in zip(ranks, ranks[1:])]
print("  differences:", diffs)

print(f"\noracle partition : {oracle_lambda(R, S, P).parts}")
print(f"delta-route value: {lambda_of(R, S, P).parts}")

print("\nthe same cross-check, swept:")
for p in (2, 3, 5):
    cells = [(r, s) for r in range(1, 9) for s in range(r, 9)]
    agree = all(oracle_lambda(r, s, p).parts == lambda_of(r, s, p).parts
                for r, s in cells)
    print(f"  p={p}: {len(cells)} cells agree: {agree}")
