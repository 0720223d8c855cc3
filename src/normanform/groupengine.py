"""Permutation-group machinery: residue block systems, the induced block
action, the diagonal embedding, and the wreath-structure verification of the
groups generated by Norman involutions, proved by a structural certificate.
`PermGroup`, a deterministic stabilizer chain, is the tests' reference for the
certificate's order and membership; no route here builds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd
from typing import Iterable, Optional

from . import delta, jordan
from .parith import ensure_prime, p_parts, p_power_at_least
from .perm import Permutation, compose, identity, transposition

DEFAULT_DEGREE_CAP = 64


class DegreeCapExceeded(RuntimeError):
    """Requested degree above the configured guard."""


class _Level:
    """One stabilizer-chain level: base point, own generators, and transversal.

    The transversal maps each orbit point x to a word u_x with beta^(u_x) = x;
    inverses[x] holds u_x^-1, built once with the transversal so that sifting
    never inverts.
    """

    __slots__ = ("beta", "gens", "transversal", "inverses")

    def __init__(self, beta: int, degree: int):
        self.beta = beta
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {beta: identity(degree)}
        self.inverses: dict[int, Permutation] = dict(self.transversal)


class PermGroup:
    """A permutation group of [degree] with a deterministic Schreier-Sims chain,
    the tests' reference for the wreath certificate.

    Base points are chosen greedily as the lowest moved point of each residue,
    so identical generator lists always produce identical chains.
    """

    def __init__(self, generators: Iterable[Permutation], degree: int,
                 cap: int = DEFAULT_DEGREE_CAP):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree!r}")
        if degree > cap:
            raise DegreeCapExceeded(f"degree {degree} exceeds cap {cap}")
        self.degree = degree
        self._levels: list[_Level] = []
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
            self._add_generator(g)
        self._schreier_sims()

    # -- chain construction -------------------------------------------------

    def _strong_gens_from(self, i: int) -> list[Permutation]:
        return [g for lvl in self._levels[i:] for g in lvl.gens]

    def _sift_from(self, i: int, g: Permutation) -> Permutation:
        """Divide g by transversal words level by level; the residue is the obstruction."""
        for lvl in self._levels[i:]:
            x = g(lvl.beta)
            if x not in lvl.inverses:
                return g
            g = compose(g, lvl.inverses[x])
        return g

    def _add_generator(self, g: Permutation) -> None:
        """Sift g through the orbits of the generators added so far and keep
        only a nontrivial residue, so that a generator already in their group
        adds no Schreier generators. The orbits are refreshed for every level
        the residue joins, with no Schreier-Sims pass until all are added."""
        residue = self._sift_from(0, g)
        if not residue.is_identity():
            for i in range(self._insert(residue), -1, -1):
                self._orbit_update(i)

    def _insert(self, g: Permutation) -> int:
        """Store g at the deepest level whose earlier base points it all fixes."""
        i = 0
        while i < len(self._levels) and g(self._levels[i].beta) == self._levels[i].beta:
            i += 1
        if i == len(self._levels):
            self._levels.append(_Level(min(g.support()), self.degree))
        self._levels[i].gens.append(g)
        return i

    def _orbit_update(self, i: int) -> None:
        """Recompute the orbit and transversal of beta_i under the strong generators from i."""
        lvl = self._levels[i]
        gens = self._strong_gens_from(i)
        lvl.transversal = {lvl.beta: identity(self.degree)}
        queue = [lvl.beta]
        while queue:
            x = queue.pop(0)
            u_x = lvl.transversal[x]
            for g in gens:
                y = g(x)
                if y not in lvl.transversal:
                    lvl.transversal[y] = compose(u_x, g)
                    queue.append(y)
        lvl.inverses = {x: u_x.inverse() for x, u_x in lvl.transversal.items()}

    def _process_level(self, i: int) -> Optional[int]:
        """Sift every Schreier generator of level i through the chain below.

        Returns the level index where a missing residue was inserted, or None
        if the level is clean.
        """
        self._orbit_update(i)
        lvl = self._levels[i]
        gens = self._strong_gens_from(i)
        for x in list(lvl.transversal):
            u_x = lvl.transversal[x]
            for g in gens:
                schreier = compose(compose(u_x, g), lvl.inverses[g(x)])
                residue = self._sift_from(i + 1, schreier)
                if not residue.is_identity():
                    j = self._insert(residue)
                    assert j > i
                    return j
        return None

    def _schreier_sims(self) -> None:
        """Bottom-up pass: a level is only left once every Schreier generator
        sifts to the identity through the (already clean) chain below; any
        insertion deeper restarts from that depth, so every level above a new
        generator is reprocessed with it."""
        i = len(self._levels) - 1
        while i >= 0:
            jumped = self._process_level(i)
            i = i - 1 if jumped is None else jumped

    # -- queries ------------------------------------------------------------

    def order(self) -> int:
        """Exact order from the stabilizer chain."""
        out = 1
        for lvl in self._levels:
            out *= len(lvl.transversal)
        return out

    def contains(self, g: Permutation) -> bool:
        """True iff g lies in the group, decided by chain sifting."""
        if g.degree != self.degree:
            raise ValueError(f"degree mismatch: {g.degree} vs {self.degree}")
        return self._sift_from(0, g).is_identity()


# -- Norman-involution generators -------------------------------------------


def _one_period(r: int, p: int, cap: int) -> tuple[range, list[Permutation]]:
    """The cells of delta._period_cells, fewer than 3r from s = 2p^m - r + 1 on,
    which take every value of pi(r, s, p) over one period in s, and pi at each
    cell; equal values share one Permutation, keyed by the cut points."""
    p = ensure_prime(p)
    cells = delta._period_cells(r, p)
    if r > cap:
        raise DegreeCapExceeded(f"degree {r} exceeds cap {cap}")
    run = list(delta._delta_run(r, p, cells))
    shared = {cuts: jordan._pi_at(cuts) for cuts in dict.fromkeys(run)}
    return cells, [shared[cuts] for cuts in run]


def _distinct_nontrivial(period: list[Permutation]) -> list[Permutation]:
    return [g for g in dict.fromkeys(period) if not g.is_identity()]


def group_generators(r: int, p: int, cap: int = DEFAULT_DEGREE_CAP) -> list[Permutation]:
    """Distinct nontrivial pi(r, s, p) over one full period, in order of first
    appearance over the cells of delta._period_cells, from s = 2p^m - r + 1."""
    return _distinct_nontrivial(_one_period(r, p, cap)[1])


def generator_census(r: int, p: int, cap: int = DEFAULT_DEGREE_CAP) -> int:
    """Number of distinct pi(r, s, p) over one period, the identity included."""
    return len(set(_one_period(r, p, cap)[1]))


# -- block systems and wreath structure --------------------------------------


def residue_blocks(degree: int, b: int) -> list[tuple[int, ...]]:
    """Blocks Omega_j = {n in [degree] : n = j (mod b)} for j = 1..b."""
    if b < 1 or degree % b:
        raise ValueError(f"b={b} must divide the degree {degree}")
    return [tuple(range(j, degree + 1, b)) for j in range(1, b + 1)]


def _block_images(images: tuple[int, ...], b: int) -> Optional[tuple[int, ...]]:
    """Block indices of the images of 1..b, for the permutation with these images
    on a degree that b divides; None when it breaks a residue block, that is,
    when some n and n + b land in different blocks."""
    blocks = [(m - 1) % b + 1 for m in images]
    head = blocks[:b]
    return tuple(head) if blocks == head * (len(images) // b) else None


def phi_image(g: Permutation, b: int) -> Permutation:
    """The permutation of block indices induced by g on the residue blocks."""
    if b < 1 or g.degree % b:
        raise ValueError(f"b={b} must divide the degree {g.degree}")
    image = _block_images(g.images, b)
    if image is None:
        raise ValueError(f"{g} does not preserve the residue blocks mod {b}")
    return Permutation(image)


def diagonal_embed(sigma: Permutation, a: int, b: int) -> Permutation:
    """The diagonal copy of sigma: (i-1)b + j -> (sigma(i)-1)b + j."""
    if sigma.degree != a:
        raise ValueError(f"sigma has degree {sigma.degree}, expected a={a}")
    images = [0] * (a * b)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            images[(i - 1) * b + j - 1] = (sigma(i) - 1) * b + j
    return Permutation(tuple(images))


@dataclass(frozen=True)
class GroupReport:
    """Structure verification for the group generated by the Norman involutions.

    `route` is "certificate" when the structural proof decided the order and
    the diagonal membership, and "uncertified" when it was not found; then
    `order` is None and the verdict is false.
    """

    r: int
    p: int
    a: int
    b: int
    generator_count: int
    order: Optional[int]
    expected_order: int
    blocks_invariant: bool
    phi_image_is_dihedral: bool
    diagonal_contained: bool
    l9_transposition_found: bool

    @property
    def route(self) -> str:
        return "certificate" if self.order is not None else "uncertified"

    @property
    def verdict(self) -> bool:
        return (self.order == self.expected_order and self.blocks_invariant
                and self.phi_image_is_dihedral and self.diagonal_contained
                and self.l9_transposition_found)


def expected_wreath_order(a: int, b: int) -> int:
    """(a!)^b * |D_b| with |D_b| = 2b for b >= 3 and b for b in {1, 2}."""
    return factorial(a) ** b * (2 * b if b >= 3 else b)


def _dihedral_form(image: Permutation, b: int) -> Optional[tuple[int, int]]:
    """(e, c) with j -> e*j + c (mod b) for every block index j and e = +-1,
    or None when the block permutation has neither form, that is, lies outside
    D_b. For b <= 2 every block permutation has the form (1, c). The images
    mod b are compared whole with those of the rotation and of the reflection
    that send b to c."""
    residues = [m % b for m in image.images]
    c = residues[-1]
    if residues == [*range(c + 1, b), *range(c + 1)]:
        return 1, c
    if residues == [*range(c - 1, -1, -1), *range(b - 1, c - 1, -1)]:
        return -1, c
    return None


def _generates_dihedral(images: list[Permutation], b: int) -> bool:
    """True iff the block permutations generate D_b, decided in closed form.

    D_1 is trivial and D_2 = S_2. For b >= 3, D_b is the group of maps
    j -> +-j + c (mod b), and a subgroup holding a reflection j -> c0 - j is
    its rotations together with their products with that reflection. Its
    rotations are generated by the rotation offsets and the differences
    c - c0 of the reflection constants, so the images generate all of D_b iff
    each has that form, one is a reflection, and gcd(b, offsets,
    differences) = 1.
    """
    if b <= 2:
        return b == 1 or any(not g.is_identity() for g in images)
    forms = [_dihedral_form(g, b) for g in images]
    if None in forms:
        return False
    reflections = [c for e, c in forms if e == -1]
    if not reflections:
        return False
    rotations = [c for e, c in forms if e == 1]
    return gcd(b, *rotations, *(c - reflections[0] for c in reflections)) == 1


def _joins_blocks(seed: tuple[int, ...], gens: list[tuple[int, ...]], b: int) -> bool:
    """True iff the joins reach b classes: iff b < degree and the finest
    partition of the points that every generator preserves, with seed[0] and
    seed[1] in one class, has at most b classes. Atkinson's join (Math. Comp.
    29, 1975; Holt, Eick and O'Brien, Handbook of CGT, 4.3) finds it with a
    union-find that starts from the seed pair merged. For each merged pair
    (x, y) and generator g it merges the classes of g(x) and g(y), and it
    queues only the pairs that did merge: at most degree - 1 merges and
    O(degree * |gens|) finds. It stops as soon as b classes remain.

    The classes are the components of the conjugates of the transposition
    `seed` under <gens>, read as edges. With blocks that every generator
    preserves and a seed inside one block, b classes are the b residue
    blocks, and a connected transposition graph on a block generates its full
    symmetric group, so then S_a^b <= <gens>."""
    degree = len(gens[0])
    parent = list(range(degree + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    x, y = seed
    parent[x] = y
    components = degree - 1
    if components == b:
        return True
    queue = [(x, y)]
    while queue:
        x, y = queue.pop()
        for g in gens:
            rx, ry = find(g[x - 1]), find(g[y - 1])
            if rx != ry:
                parent[rx] = ry
                components -= 1
                if components == b:
                    return True
                queue.append((rx, ry))
    return False


def _certify(gens: list[Permutation], a: int, b: int,
             seed: Optional[tuple[int, ...]]) -> tuple[bool, bool, Optional[int]]:
    """Structural certificate for <gens> = S_a wr D_b on ab points.

    Returns (every generator preserves the residue blocks, their block
    permutations generate D_b, the proved order or None). `seed` is a
    transposition known to lie in <gens> inside one residue block, or None
    when there is none; for a > 1 the order needs one.
    """
    images = [_block_images(g.images, b) for g in gens]
    if None in images:
        return False, False, None
    images = [Permutation(image) for image in dict.fromkeys(images)]
    if not _generates_dihedral(images, b):
        return True, False, None
    if a > 1 and (seed is None or not _joins_blocks(seed, [g.images for g in gens], b)):
        return True, True, None
    return True, True, expected_wreath_order(a, b)


def verify_wreath(r: int, p: int, cap: int = DEFAULT_DEGREE_CAP) -> GroupReport:
    """Build the group G for (r, p) and check every structural claim.

    Checks: exact order against (a!)^b * |D_b|; block invariance of every
    generator; the induced block action generating exactly the dihedral group;
    containment of the diagonal copy of S_a, which the order decides; and the
    four-fold product recovering the transposition (1, b+1) (for a > 1).
    Skipped checks report True.

    Order and membership come from a certificate. Block-preserving generators
    put the kernel of the block action inside S_a^b, and a closed-form test
    shows that their block permutations generate D_b. Then the product
    (1, b+1), whose conjugates join every residue block, shows that the
    kernel is all of S_a^b. So |G| = (a!)^b * |D_b|, and a block-preserving
    permutation lies in G iff its block permutation lies in D_b. A diagonal
    copy (diagonal_embed) maps each block to itself, so it lies in G exactly
    when the certificate holds. The certificate follows the paper's proof, so
    a miss points to a defect in `pi` or in the certificate. It is reported
    as route "uncertified", with order None and the diagonal copies not shown
    to lie in G.
    """
    p = ensure_prime(p)
    _, a, b, _ = p_parts(r, p)
    cells, period = _one_period(r, p, cap)
    gens = _distinct_nontrivial(period)

    l9_ok = True
    if a > 1:
        # pi(r, s, p) depends on s mod p^m only, and the cells hold every
        # residue from 0 to r, so pi_k sits at index (k - cells.start) mod p^m.
        # For b = 1 the residue forms give Rev(2,r) Rev(1,r) Rev(2,r) Rev(3,r) = (1, 2)
        # for r >= 3, and id (1,2) id id for r = 2.
        pm = p_power_at_least(r, p)[1]
        pi_k = {k: period[(k - cells.start) % pm] for k in (0, 1, b, b + 1)}
        product = compose(compose(compose(pi_k[1], pi_k[0]), pi_k[b]), pi_k[b + 1])
        l9_ok = product == transposition(1, b + 1, r)
    seed = (1, b + 1) if a > 1 and l9_ok else None
    blocks_invariant, phi_ok, order = _certify(gens, a, b, seed)

    return GroupReport(
        r=r, p=p, a=a, b=b,
        generator_count=len(gens),
        order=order,
        expected_order=expected_wreath_order(a, b),
        blocks_invariant=blocks_invariant,
        phi_image_is_dihedral=phi_ok,
        diagonal_contained=order is not None,
        l9_transposition_found=l9_ok,
    )
