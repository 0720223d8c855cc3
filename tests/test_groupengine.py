import json
import random
import time
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normanform import delta, groupengine, parith
from normanform.cli import main
from normanform.groupengine import (DegreeCapExceeded, PermGroup, _certify,
                                    _generates_dihedral, _joins_blocks, _one_period,
                                    diagonal_embed, expected_wreath_order,
                                    generator_census, group_generators, phi_image,
                                    residue_blocks, verify_wreath)
from normanform.jordan import pi_of
from normanform.parith import p_power_at_least
from normanform.perm import (Permutation, compose, format_cycles, identity, rev,
                             transposition)
from reference import closure, generates_dihedral, joins_blocks_orbit_walk


def random_perm(rng, r):
    imgs = list(range(1, r + 1))
    rng.shuffle(imgs)
    return Permutation(tuple(imgs))


def test_group_order_examples():
    assert PermGroup([transposition(1, 2, 2)], 2).order() == 2
    for r in range(2, 9):
        cyc = Permutation(tuple(range(2, r + 1)) + (1,))
        assert PermGroup([transposition(1, 2, r), cyc], r).order() == factorial(r)


def test_chain_order_equals_closure_order():
    rng = random.Random(99)
    for _ in range(150):
        deg = rng.randint(2, 7)
        gens = [random_perm(rng, deg) for _ in range(rng.randint(1, 3))]
        G = PermGroup(gens, deg)
        assert G.order() == len(closure(gens, deg, limit=5100))


def test_membership_examples():
    G3 = PermGroup([Permutation((2, 3, 1))], 3)
    assert G3.contains(identity(3))
    assert not G3.contains(transposition(1, 2, 3))
    G = PermGroup(group_generators(6, 3), 6)
    assert G.contains(diagonal_embed(transposition(1, 2, 2), 2, 3))


def test_membership_degree_mismatch():
    G = PermGroup([transposition(1, 2, 3)], 3)
    with pytest.raises(ValueError):
        G.contains(identity(4))


def test_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        PermGroup([identity(70)], 70)
    PermGroup([identity(70)], 70, cap=70)


def test_one_degree_guard_for_every_group_function():
    for call in (verify_wreath, group_generators, generator_census):
        with pytest.raises(DegreeCapExceeded, match="degree 65 exceeds cap 64"):
            call(65, 2)
        with pytest.raises(DegreeCapExceeded, match="degree 8 exceeds cap 7"):
            call(8, 2, cap=7)
        # r is checked before the cap
        with pytest.raises(ValueError, match="r must be a positive integer"):
            call(0, 2, cap=-1)
    assert generator_census(65, 2, cap=65) >= len(group_generators(65, 2, cap=65)) > 0


def test_group_generators_examples():
    assert group_generators(2, 2) == [transposition(1, 2, 2)]
    gens3 = {format_cycles(g) for g in group_generators(3, 2)}
    assert gens3 == {"(1,2)", "(1,3)", "(2,3)"}
    gens4 = {format_cycles(g) for g in group_generators(4, 2)}
    assert "(1,4)(2,3)" in gens4 and "(2,4)" in gens4


def test_generator_census_examples():
    assert generator_census(2, 2) == 2
    assert generator_census(3, 2) == 4
    for (r, p) in [(4, 2), (5, 2), (4, 3), (6, 3), (5, 5)]:
        pm = p_power_at_least(r, p)[1]
        assert generator_census(r, p) <= min(2 * r + 8, pm)


def test_residue_blocks():
    assert residue_blocks(6, 3) == [(1, 4), (2, 5), (3, 6)]
    assert residue_blocks(6, 1) == [(1, 2, 3, 4, 5, 6)]
    with pytest.raises(ValueError):
        residue_blocks(6, 4)
    for degree, b in [(1, 1), (6, 2), (12, 4), (30, 5), (64, 64), (96, 1), (243, 27)]:
        assert residue_blocks(degree, b) == [
            tuple(n for n in range(1, degree + 1) if n % b == j % b) for j in range(1, b + 1)]


def test_group_blocks_cli_at_r8192_is_fast(capsys):
    start = time.perf_counter()
    assert main(["group", "--blocks", "--r", "8192", "--p", "2"]) == 0
    assert time.perf_counter() - start < 1.0
    assert len(json.loads(capsys.readouterr().out)["blocks"]) == 8192


def test_phi_image_examples():
    assert format_cycles(phi_image(pi_of(6, 9, 3), 3)) == "(1,3)"
    assert phi_image(identity(6), 3) == identity(3)
    # full reversal: blocks are reflected
    g = rev(1, 6, 6)
    got = phi_image(g, 3)
    want = Permutation(tuple((6 - n) % 3 + 1 for n in (1, 2, 3)))
    assert got == want


def test_phi_image_rejects_block_breakers():
    with pytest.raises(ValueError):
        phi_image(transposition(1, 2, 6), 3)


def test_phi_image_formula_for_generators():
    # induced block action of pi(r,s,p) is n -> (s - n) mod b + 1
    for (r, p, b) in [(6, 3, 3), (12, 2, 4), (10, 5, 5), (8, 2, 8)]:
        pm = p_power_at_least(r, p)[1]
        for s in range(r, r + pm):
            g = pi_of(r, s, p)
            want = Permutation(tuple((s - n) % b + 1 for n in range(1, b + 1)))
            assert phi_image(g, b) == want, (r, p, s)


def test_phi_is_homomorphism_on_products():
    rng = random.Random(3)
    gens = group_generators(12, 2)
    b = 4
    for _ in range(50):
        g = rng.choice(gens)
        h = rng.choice(gens)
        assert phi_image(compose(g, h), b) == compose(phi_image(g, b), phi_image(h, b))


def test_diagonal_embed_examples():
    assert format_cycles(diagonal_embed(transposition(1, 2, 2), 2, 3)) == "(1,4)(2,5)(3,6)"
    assert diagonal_embed(identity(3), 3, 2) == identity(6)
    cyc = Permutation((2, 3, 1))
    assert diagonal_embed(cyc, 3, 1) == cyc


def dihedral_elements(b):
    """Every element of D_b as a permutation of the block indices [b]:
    j -> (j + c - 1) mod b + 1 and j -> (c - j) mod b + 1; all of S_b for b <= 2."""
    points = range(1, b + 1)
    maps = {Permutation(tuple(images)) for c in range(b)
            for images in ([(j + c - 1) % b + 1 for j in points],
                           [(c - j) % b + 1 for j in points])}
    return sorted(maps, key=lambda g: g.images)


def test_generates_dihedral_accepts_reflections():
    for b in range(1, 9):
        reflections = [Permutation(tuple((c - n) % b + 1 for n in range(1, b + 1)))
                       for c in range(b)]
        assert _generates_dihedral(reflections, b) and generates_dihedral(reflections, b), b
        # the closed form agrees with the chain on every set of up to 3 elements of D_b
        elements = dihedral_elements(b)
        assert len(elements) == expected_wreath_order(1, b)
        for k in range(4):
            for images in combinations(elements, k):
                images = list(images)
                assert _generates_dihedral(images, b) == generates_dihedral(images, b), \
                    (b, images)


def test_generates_dihedral_rejects_other_groups():
    s4 = [transposition(1, 2, 4), Permutation((2, 3, 4, 1))]
    assert PermGroup(s4, 4).order() == 24
    c6 = [Permutation((2, 3, 4, 5, 6, 1))]
    assert PermGroup(c6, 6).order() == 6
    # A_4 on 6 points has order 12 = |D_6|: only the reflection membership rejects it
    a4 = [Permutation((2, 3, 1, 4, 5, 6)), Permutation((2, 1, 4, 3, 5, 6))]
    assert PermGroup(a4, 6).order() == expected_wreath_order(1, 6) == 12
    for images, b in ((s4, 4), (c6, 6), (a4, 6)):
        assert not _generates_dihedral(images, b)
        assert not generates_dihedral(images, b)


def test_expected_wreath_order():
    assert expected_wreath_order(1, 4) == 8
    assert expected_wreath_order(3, 2) == 72
    assert expected_wreath_order(2, 3) == 48
    assert expected_wreath_order(5, 1) == 120
    assert expected_wreath_order(3, 4) == 10368


def test_verify_wreath_examples():
    for (r, p, order) in [(4, 2, 8), (6, 3, 48), (5, 3, 120), (6, 2, 72)]:
        rep = verify_wreath(r, p)
        assert rep.order == order == rep.expected_order
        assert rep.verdict, rep


def test_verify_wreath_r_one_convention():
    rep = verify_wreath(1, 3)
    assert rep.verdict and rep.order == 1


def test_l9_product_is_transposition():
    # pi_1 pi_0 pi_b pi_{b+1} = (1, b+1) whenever a > 1, for b > 1 and for b = 1
    # (the last four cells, r = 2 among them)
    for (r, p) in [(6, 3), (12, 2), (10, 5), (12, 3), (2, 3), (5, 2), (7, 3), (14, 11)]:
        rep = verify_wreath(r, p)
        assert rep.a > 1 and rep.l9_transposition_found, (r, p)
        b = rep.b
        pm = p_power_at_least(r, p)[1]
        pi = {k: pi_of(r, pm + k, p) for k in (0, 1, b, b + 1)}
        product = compose(compose(compose(pi[1], pi[0]), pi[b]), pi[b + 1])
        assert product == transposition(1, b + 1, r)


def test_generators_are_involutions():
    for (r, p) in [(5, 2), (9, 3), (8, 2), (7, 5)]:
        for g in group_generators(r, p):
            assert g.is_involution() and not g.is_identity()


def test_verify_wreath_tests_primality_once(monkeypatch):
    calls = []
    is_prime = parith.is_prime
    monkeypatch.setattr(parith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    for r, p in ((24, 2), (14, 11)):
        calls.clear()
        assert verify_wreath(r, p).verdict
        assert calls == [p], (r, p)


# -- the structural certificate -----------------------------------------------


def block_preserving(a, b, block_map, within):
    """The permutation (i-1)b + j -> (within[j-1](i) - 1)b + block_map(j) of [ab],
    which sends residue block j to block block_map(j)."""
    return Permutation(tuple((within[j - 1](i) - 1) * b + block_map(j)
                             for i in range(1, a + 1) for j in range(1, b + 1)))


@st.composite
def block_preserving_sets(draw):
    a = draw(st.integers(1, 6))
    b = draw(st.integers(1, 12 // a))
    dihedral = dihedral_elements(b)
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            block_map = draw(st.sampled_from(dihedral))
        else:
            block_map = Permutation(tuple(draw(st.permutations(range(1, b + 1)))))
        within = [Permutation(tuple(draw(st.permutations(range(1, a + 1)))))
                  if draw(st.booleans()) else identity(a) for _ in range(b)]
        gens.append(block_preserving(a, b, block_map, within))
    return a, b, gens


@settings(max_examples=300, deadline=None)
@given(block_preserving_sets())
def test_certified_order_equals_chain_order(case):
    a, b, gens = case
    seed = None
    if a > 1:
        # a transposition inside block 1, put in the group so that it can seed
        gens = gens + [transposition(1, b + 1, a * b)]
        assert _certify(gens, a, b, None)[2] is None
        seed = (1, b + 1)
    blocks_invariant, _, order = _certify(gens, a, b, seed)
    assert blocks_invariant
    if order is not None:
        assert order == PermGroup(gens, a * b).order() == expected_wreath_order(a, b)


def test_certificate_misses_alternating_group():
    # A_5, b = 1: no transposition to seed the certificate
    gens = [Permutation((2, 3, 1, 4, 5)), Permutation((2, 3, 4, 5, 1))]
    assert PermGroup(gens, 5).order() == 60
    assert _certify(gens, 5, 1, None) == (True, True, None)
    gens.append(transposition(1, 2, 5))
    assert _certify(gens, 5, 1, (1, 2)) == (True, True, 120)


def test_certificate_misses_partial_transposition_graph():
    # a = 3, b = 2, blocks {1,3,5} and {2,4,6}: the conjugates of (1,3) never reach 5 or 6
    swap = Permutation((2, 1, 4, 3, 6, 5))
    gens = [transposition(1, 3, 6), swap]
    assert PermGroup(gens, 6).order() == 8
    assert _certify(gens, 3, 2, (1, 3)) == (True, True, None)
    gens.append(Permutation((3, 2, 5, 4, 1, 6)))
    assert _certify(gens, 3, 2, (1, 3)) == (True, True, expected_wreath_order(3, 2))


def test_certificate_misses_block_breaker():
    gens = [transposition(1, 2, 4), Permutation((3, 4, 1, 2))]
    assert _certify(gens, 2, 2, None) == (False, False, None)


def test_verify_wreath_reports_a_certificate_miss(monkeypatch, capsys):
    # a certificate that never finds the order is an honest failure, not a second route
    monkeypatch.setattr(groupengine, "_certify", lambda *args: (True, True, None))
    for (r, p) in [(6, 3), (5, 3), (12, 2), (27, 3), (1, 2)]:
        rep = verify_wreath(r, p)
        assert rep.route == "uncertified" and rep.order is None, (r, p)
        assert not rep.diagonal_contained and not rep.verdict, (r, p)
    assert main(["group", "--r", "6", "--p", "3"]) == 1
    out = capsys.readouterr().out
    assert '"order": null' in out and json.loads(out)["verdict"] is False


def test_certificate_alone_for_r1_to_r64():
    """Every cell 1 <= r <= 64, p in {2,3,5,7,11,13} is certified with the expected order."""
    for p in (2, 3, 5, 7, 11, 13):
        for r in range(1, 65):
            rep = verify_wreath(r, p)
            assert rep.route == "certificate" and rep.verdict, (r, p)
            assert rep.order == rep.expected_order, (r, p)


def test_verify_wreath_r60_is_fast():
    start = time.perf_counter()
    rep = verify_wreath(60, 2)
    assert time.perf_counter() - start < 1.0
    assert rep.verdict and rep.route == "certificate"


def test_verify_wreath_b1_is_fast():
    # b = 1, a = 126: the four-fold product seeds the certificate
    start = time.perf_counter()
    rep = verify_wreath(126, 5, cap=126)
    assert time.perf_counter() - start < 1.0
    assert rep.b == 1 and rep.verdict and rep.route == "certificate"


def test_verify_wreath_r1000_p7_is_fast():
    # b = 1, a = 1000: one period of 7^4 = 2401 cells, and a join over 1000 points
    start = time.perf_counter()
    rep = verify_wreath(1000, 7, cap=1000)
    assert time.perf_counter() - start < 4.0
    assert rep.verdict and rep.route == "certificate"


def test_period_cells_take_every_value():
    """The window lemma: the cells of delta._period_cells, fewer than 3r, take
    every value of pi(r, s, p) over one full period in s, and _one_period holds
    pi_of at each cell. On every r <= 40 and p <= 13 with r * p^m <= 2 * 10^5,
    on p in {31, 101, 1009} with r * p^m <= 2 * 10^4, where n < q and n = q
    and the large primes with m = 1 are all met; and on pairs with
    p < r <= p^m up to r = 64, where most residues of the period are
    window-free."""
    pairs = [(r, p) for p in (2, 3, 5, 7, 11, 13) for r in range(1, 41)
             if r * p_power_at_least(r, p)[1] <= 2 * 10**5]
    assert len(pairs) == 240
    pairs += [(r, p) for p in (31, 101, 1009) for r in range(1, 41)
              if r * p_power_at_least(r, p)[1] <= 2 * 10**4]
    pairs += [(64, 61), (64, 59), (50, 47), (64, 31), (64, 17), (40, 37), (30, 29),
              (24, 19), (18, 17)]
    for r, p in pairs:
        p = parith.ensure_prime(p)  # tested once, not at every pi_of
        cells, period = _one_period(r, p, r)
        assert len(cells) < 3 * r, (r, p)
        full = range(r, r + p_power_at_least(r, p)[1])
        assert set(period) == {pi_of(r, s, p) for s in full}, (r, p)
        assert period == [pi_of(r, s, p) for s in cells], (r, p)


def test_one_period_computes_fewer_than_3r_cells(monkeypatch):
    """_one_period computes valuations exactly once at each of its fewer than 3r
    cells, at every r <= 64 and prime p < 128."""
    calls = [0]
    valuations_on = delta._valuations_on

    def counted(*args):
        calls[0] += 1
        return valuations_on(*args)

    monkeypatch.setattr(delta, "_valuations_on", counted)
    for p in filter(parith.is_prime, range(2, 128)):
        for r in range(1, 65):
            calls[0] = 0
            cells, _ = _one_period(r, p, r)
            assert calls[0] == len(cells) < 3 * r, (r, p, calls[0])


def test_period_cells_hold_the_l9_residues():
    """verify_wreath reads pi_k at index (k - cells.start) mod p^m of the period
    for k in {0, 1, b, b+1}; on every r <= 64 and prime p < 128 with a > 1 that
    index is a cell congruent to k mod p^m."""
    for p in filter(parith.is_prime, range(2, 128)):
        for r in range(1, 65):
            _, a, b, _ = parith.p_parts(r, p)
            if a == 1:
                continue
            pm = p_power_at_least(r, p)[1]
            cells = delta._period_cells(r, p)
            for k in (0, 1, b, b + 1):
                i = (k - cells.start) % pm
                assert i < len(cells) and cells[i] % pm == k % pm, (r, p, k)


def test_join_matches_the_orbit_walk():
    """Atkinson's join gives the orbit walk's verdict on the generators of
    every 2 <= r <= 32, p in {2, 3, 5, 7}, for random seed pairs, cross-block
    ones included, and every divisor b of r."""
    rng = random.Random(1975)
    for p in (2, 3, 5, 7):
        for r in range(2, 33):
            gens = [g.images for g in group_generators(r, p)]
            drawn = [tuple(rng.sample(range(1, r + 1), 2)) for _ in range(2)]
            for b in (b for b in range(1, r + 1) if r % b == 0):
                inside = [(1, b + 1)] if b < r else []  # inside block 1
                for seed in drawn + inside:
                    assert _joins_blocks(seed, gens, b) == joins_blocks_orbit_walk(
                        seed, gens, b), (r, p, seed, b)
