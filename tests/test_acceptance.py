"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. All checks are exact
(zero tolerance); the heavy sweeps stay within the stated runtime budgets.
"""

from itertools import combinations
from math import factorial
from pathlib import Path

import normanform as nf
from normanform.cli import main
from normanform.groupengine import PermGroup
from normanform.parith import p_power_at_least
from normanform.perm import compose, conjugate, embed, rev

GOLDEN = Path(__file__).parent / "golden"


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_oracle_equivalence():
    cells = 0
    for p in (2, 3, 5, 7, 11, 13):
        for r in range(1, 31):
            for s in range(r, 31):
                assert nf.oracle_lambda(r, s, p).parts == nf.lambda_of(r, s, p).parts, \
                    (r, s, p)
                cells += 1
    report("1 oracle-equivalence", f"{cells} cells, exact")


def test_criterion_2_involution_law():
    cells = 0
    for p in (2, 3, 5, 7, 11, 13):
        for r in range(1, 31):
            for s in range(r, 31):
                pi = nf.pi_of(r, s, p)
                assert compose(pi, pi).is_identity(), (r, s, p)
                cells += 1
    report("2 involution-law", f"{cells} cells, zero failures")


def test_criterion_3_six_way_equivalence():
    cells = 0
    for p in (2, 3, 5, 7, 11):
        for r in range(1, 31):
            pm = p_power_at_least(r, p)[1]
            for s in range(r, r + pm + 1):
                nf.equivalence_report(r, s, p)  # raises EquivalenceViolation on disagreement
                cells += 1
    report("3 six-way-standardness", f"{cells} cells over one full period each")


def test_criterion_4_table_reproduction(capsys, tmp_path):
    out1 = tmp_path / "pi3.txt"
    code = main(["table", "--name", "pi3", "--primes", "2,3,5,7", "--out", str(out1)])
    assert code == 0
    assert out1.read_bytes() == (GOLDEN / "table_pi3_p2357.txt").read_bytes()
    out2 = tmp_path / "small_s.txt"
    code = main(["table", "--name", "small-s", "--primes", "2,3,5", "--rmax", "25",
                 "--out", str(out2)])
    assert code == 0
    assert out2.read_bytes() == (GOLDEN / "table_small_s_p235_r25.txt").read_bytes()
    report("4 table-reproduction", "pi3 p=2,3,5,7 and small-s p=2,3,5 r<=25 byte-exact")


def test_criterion_5_identity_suite():
    checked = 0
    # staircase values for s <= p <= r+s-2, primes up to 31
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for s in range(1, p + 1):
            for r in range(max(1, p + 2 - s), s + 1):
                assert nf.pi_of(r, s, p) == rev(1, r + s - p, r), (r, s, p)
                checked += 1
    # periodicity and duality over the main sweep
    for p in (2, 3, 5, 7):
        for r in range(1, 31):
            pm = p_power_at_least(r, p)[1]
            for s in range(r, 31):
                pi = nf.pi_of(r, s, p)
                assert pi == nf.pi_of(r, s + pm, p), ("periodicity", r, s, p)
                sp = (-s) % pm
                while sp < r:
                    sp += pm
                assert nf.pi_of(r, sp, p) == conjugate(pi, rev(1, r, r)), \
                    ("duality", r, s, p)
                checked += 2
    # small-s reduction and its mirror for p in {3, 5}, m = 2
    for p in (3, 5):
        pm = p * p
        for r in range(2, pm):
            for s1 in range(1, r):
                inner = embed(nf.pi_of(s1, r, p), r)
                for s0 in range(1, p):
                    got = nf.pi_of(r, s0 * pm + s1, p)
                    assert got == compose(inner, rev(s1 + 1, r, r)), \
                        ("small-s", r, s0, s1, p)
                    got = nf.pi_of(r, (s0 + 1) * pm - s1, p)
                    want = compose(rev(1, r - s1, r), conjugate(inner, rev(1, r, r)))
                    assert got == want, ("mirror", r, s0, s1, p)
                    checked += 2
    # p-power scaling with the fixed-interval cut points retained
    for p in (2, 3, 5):
        for ell in (1, 2):
            q = p**ell
            for r in range(1, 13):
                for s in range(r, 13):
                    if q * q * r * s > nf.DEFAULT_CAP:
                        continue
                    cuts = nf.reversal_cuts(nf.pi_of(r, s, p))
                    assert nf.reversal_cuts(nf.pi_of(q * r, q * s, p)) == \
                        tuple(q * t for t in cuts), ("scaling", r, s, p, ell)
                    checked += 1
    # residue congruence for p-power divisors of r
    for p in (2, 3, 5, 7):
        for r in range(1, 31):
            b = nf.p_parts(r, p).b
            if b == 1:
                continue
            for s in range(r, 31):
                pi = nf.pi_of(r, s, p)
                assert all((pi(n) - (s + 1 - n)) % b == 0 for n in range(1, r + 1)), \
                    ("congruence", r, s, p)
                checked += 1
    # the three reversal-product values above the period, and the module identity
    for p in (2, 3, 5):
        e = 1
        while p**e <= 81:
            b = p**e
            for a in range(2, 81 // b + 1):
                if a % p == 0:
                    continue
                r = a * b
                pm = p_power_at_least(r, p)[1]
                if pm > 81:
                    continue
                assert nf.pi_of(r, pm + b, p) == compose(rev(1, b, r), rev(b + 1, r, r))
                if 2 * b < r:
                    want = compose(compose(rev(1, b, r), rev(b + 1, 2 * b, r)),
                                   rev(2 * b + 1, r, r))
                    assert nf.pi_of(r, pm + 2 * b, p) == want
                assert nf.pi_of(r, pm + b + 1, p) == compose(rev(2, b, r), rev(b + 2, r, r))
                dec = nf.decompose(r, pm + b + 1, p).as_dict()
                want_dec: dict[int, int] = {}
                for dim, mult in ((pm + r + b, 1), (pm + r, b - 1),
                                  (pm + r - b, 1), (pm, r - b - 1)):
                    if mult > 0:
                        want_dec[dim] = want_dec.get(dim, 0) + mult
                assert dec == want_dec, ("module-identity", r, p)
                checked += 4
            e += 1
    report("5 identity-suite", f"{checked} instances, zero failures")


def test_criterion_6_wreath_structure():
    anchors = {(4, 2): 8, (6, 2): 72, (6, 3): 48, (12, 2): 10368}
    groups = 0
    for p in (2, 3, 5, 7):
        for r in range(1, 25):
            rep = nf.verify_wreath(r, p)
            assert rep.order == rep.expected_order, (r, p, rep)
            assert rep.verdict, (r, p, rep)
            # the stabilizer chain re-derives the certificate's order and membership
            chain = PermGroup(nf.group_generators(r, p), r)
            assert chain.order() == rep.order, (r, p, rep)
            if rep.a > 1:
                a_cycle = nf.Permutation(tuple(range(2, rep.a + 1)) + (1,))
                for sigma in (nf.transposition(1, 2, rep.a), a_cycle):
                    assert chain.contains(nf.diagonal_embed(sigma, rep.a, rep.b)), (r, p)
            if rep.a > 1:
                assert rep.l9_transposition_found, (r, p)
            if (r, p) in anchors:
                assert rep.order == anchors[(r, p)]
            groups += 1
    # at a ten-digit prime one period is read at its 2r window-lemma cells; b = 1
    big = 10**9 + 7
    for r in range(2, 65):
        rep = nf.verify_wreath(r, big)
        assert rep.verdict and rep.b == 1 and rep.order == factorial(r), (r, big, rep)
        groups += 1
    report("6 wreath-structure", f"{groups} groups, orders exact, chain-checked for p <= 7")


def test_criterion_7_bijection_roundtrips():
    total = 0
    for r in range(1, 13):
        distinct = set()
        for k in range(r):
            for members in combinations(range(1, r), k):
                T = nf.SubsetProfile(r, members)
                eps = nf.subset_to_eps(T)
                pi = nf.subset_to_perm(T)
                assert nf.eps_to_subset(eps) == T
                assert nf.eps_to_perm(eps) == pi
                assert nf.perm_to_eps(pi) == eps
                distinct.add(pi)
                total += 1
        assert len(distinct) == 2 ** (r - 1)
    report("7 bijection-roundtrips", f"{total} subsets across r<=12")


def test_criterion_8_nilpotent_field_independence():
    cells = 0
    for r in range(1, 13):
        for s in range(r, 13):
            parts = {p: nf.oracle_nilpotent(r, s, p).parts for p in (2, 3, 5)}
            assert parts[2] == parts[3] == parts[5], (r, s, parts)
            counts: dict[int, int] = {}
            for v in parts[2]:
                counts[v] = counts.get(v, 0) + 1
            assert counts.get(r, 0) >= s - r + 1, (r, s)
            assert (counts.get(r, 0) - (s - r + 1)) % 2 == 0, (r, s)
            assert all(c % 2 == 0 for v, c in counts.items() if v != r), (r, s)
            for p in (2, 3, 5):
                mu = nf.nilpotent_mu(r, s, p)
                assert mu.size == r * (r - 1) // 2, (r, s, p)
            cells += 1
    report("8 nilpotent-field-independence", f"{cells} cells across p=2,3,5")
