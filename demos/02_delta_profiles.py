"""The delta route: binomial determinants decide everything.

D_n(r, s) is a determinant of binomial coefficients; only its residue mod p
matters, recorded as a bit delta_n. The distances L(n) to the nearest set bit
on the left and R(n) on the right assemble both the partition and the
involution. No big integer is ever formed: the bit is read off from Legendre
sums of p-adic valuations of factorials.
"""

from math import comb

from normanform import delta_profile, lambda_of, pi_of


def dn_exact(r: int, s: int, n: int) -> int:
    """D_n(r, s) = prod_{i<n} C(s+r-2n+i, s-n) / C(s-n+i, s-n), as an exact integer."""
    num = den = 1
    for i in range(n):
        num *= comb(s + r - 2 * n + i, s - n)
        den *= comb(s - n + i, s - n)
    return num // den


R, S, P = 6, 11, 3

prof = delta_profile(R, S, P)
print(f"(r, s, p) = ({R}, {S}, {P})")
print(f"delta bits (n = 0..{R}):", prof.delta)
print("L:", prof.L)
print("R:", prof.R)

print("\nexact determinants confirm the bits:")
for n in range(1, R + 1):
    d = dn_exact(R, S, n)
    print(f"  D_{n} = {d}  -> mod {P}: {d % P}  (delta_{n} = {prof.delta[n]})")

lam = lambda_of(R, S, P)
pi = pi_of(R, S, P)
print("\nassembled from L and R:")
print("  lambda_n = r+s-2n+L(n)-R(n) ->", lam.parts)
print("  pi: n -> n+1-L(n)+R(n)      ->", pi)

print("""
The set bits among delta_1..delta_{r-1} are cut points: between consecutive
cut points the involution reverses the interval in place, which is why it
squares to the identity.
""")
print("cut points:", prof.cuts)
