"""Two roads to the same partition: binomial arithmetic vs matrix ranks.

This script prints the Kronecker product over GF(p) literally and reads the
Jordan structure from ranks of powers of the nilpotent part. oracle_lambda
gets the same ranks from the graded blocks instead: each rank is a sum of
small binomial blocks, one per degree of GF(p)[x, Y]/(x^r, Y^s). The oracle
shares no code with the delta route, so agreement is evidence, not tautology.
"""

import numpy as np

from normanform import MatrixGFp, build_tensor, lambda_of, oracle_lambda, rank_gfp

R, S, P = 3, 4, 2

M = build_tensor(R, S, P)
print(f"J_{R} (x) J_{S} over GF({P}), dimension {M.dimension}:")
print(M.entries)

N = (M.entries - np.eye(M.dimension, dtype=np.int64)) % P
print("\nranks of (M - I)^k:")
ranks = [M.dimension]
Pow = N.copy()
while Pow.any():
    ranks.append(rank_gfp(MatrixGFp(P, Pow)))
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
