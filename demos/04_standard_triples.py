"""When is the partition the plain staircase? A pure congruence test answers.

Six conditions are equivalent: staircase partition, trivial involution, the
congruence rows on (r, s, p), all left gaps 1, all right gaps 0, all delta
bits set. Five of them are one fact of the delta route's cut points, so the
library checks three routes (that fact, the fast path's involution and the
congruence rows) and refuses to return an answer if they ever disagree.
"""

from normanform import equivalence_report, standard_triple
from normanform.parith import p_power_at_least

print("the congruence criterion at work:\n")
for (r, s, p) in [(1, 9, 2), (2, 3, 5), (2, 2, 2), (3, 6, 2), (3, 4, 2),
                  (4, 13, 3), (5, 9, 3), (8, 8, 2)]:
    rep = standard_triple(r, s, p)
    row = "-" if rep.matched_row is None else rep.matched_row
    print(f"  (r,s,p)=({r:>2},{s:>2},{p})  row={row}  standard={rep.verdict}")

print("\nhow often is a triple standard? one full period of s per (r, p):\n")
print(f"{'r':>3}  " + "  ".join(f"p={p:<2}" for p in (2, 3, 5, 7)))
for r in range(1, 13):
    row = []
    for p in (2, 3, 5, 7):
        pm = p_power_at_least(r, p)[1]
        hits = sum(standard_triple(r, s, p).verdict for s in range(r, r + pm))
        row.append(f"{hits}/{pm}")
    print(f"{r:>3}  " + "  ".join(f"{c:<5}" for c in row))

print("\nsix conditions, one verdict agreed by three routes (raises on any split):")
rep = equivalence_report(6, 11, 3)
for name, value in rep.conditions().items():
    print(f"  {name:<22} {value}")
