"""The group generated by all the involutions for a fixed block size.

Fixing r and p and letting s run over one period yields finitely many
involutions. Together they generate a wreath product S_a wr D_b, where
r = a*b splits into the part coprime to p and the p-power part: the
involutions permute the residue classes mod b like reflections of a b-gon,
and within the classes they realise every permutation diagonally.
"""

from math import factorial

from normanform import (generator_census, group_generators, phi_image, residue_blocks,
                        verify_wreath)
from normanform.groupengine import PermGroup, expected_wreath_order

R, P = 6, 3

gens = group_generators(R, P)
print(f"generators of the group for (r, p) = ({R}, {P}):")
for g in gens:
    print(f"  {g}")
print(f"census over one period (identity included): {generator_census(R, P)}")

rep = verify_wreath(R, P)
print(f"\nr = {R} = a*b with a = {rep.a}, b = {rep.b}")
print(f"residue blocks mod {rep.b}: {residue_blocks(R, rep.b)}")
print("induced action on blocks:")
for g in gens[:4]:
    print(f"  {g}  ->  {phi_image(g, rep.b)}")

print(f"\norder proved by the {rep.route}: {rep.order}")
print(f"expected (a!)^b * |D_b|: {expected_wreath_order(rep.a, rep.b)}")
print(f"stabilizer-chain order (the tests' reference): {PermGroup(gens, R).order()}")
print(f"full verification verdict: {rep.verdict}")

print("\norders across small r:")
print(f"{'r':>3}  " + "  ".join(f"p={p:<6}" for p in (2, 3, 5)))
for r in range(2, 13):
    cells = []
    for p in (2, 3, 5):
        g = verify_wreath(r, p)
        cells.append(f"{g.order}{'' if g.verdict else '!'}")
    print(f"{r:>3}  " + "  ".join(f"{c:<8}" for c in cells))

# at a ten-digit prime the window lemma reads one period at 2r cells, not p cells
big = verify_wreath(40, 10**9 + 7)
print(f"\n(r, p) = (40, 10^9+7): {big.generator_count} generators, "
      f"order == 40!: {big.order == factorial(40)}, verdict: {big.verdict}")
