"""Permutation-group machinery: a deterministic stabilizer chain for exact order
and membership, residue block systems, the induced block action, the diagonal
embedding, and the wreath-structure verification of the groups generated by
Norman involutions, proved by a structural certificate with the chain as
fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd
from typing import Iterable, Iterator, Optional

from .jordan import pi_of
from .parith import ensure_prime, p_parts, p_power_at_least
from .perm import Permutation, compose, cycles_of, identity, transposition

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
    """A permutation group of [degree] with a deterministic Schreier-Sims chain.

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
        self.generators: list[Permutation] = []
        self._levels: list[_Level] = []
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
            self.generators.append(g)
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


def _one_period(r: int, p: int) -> list[Permutation]:
    """pi(r, s, p) for r <= s <= r + p^m - 1, one full period in s."""
    p = ensure_prime(p)
    pm = p_power_at_least(r, p)[1]
    return [pi_of(r, s, p) for s in range(r, r + pm)]


def _distinct_nontrivial(period: list[Permutation]) -> list[Permutation]:
    return list(dict.fromkeys(g for g in period if not g.is_identity()))


def group_generators(r: int, p: int) -> list[Permutation]:
    """Distinct nontrivial pi(r, s, p) over one full period, in order of first appearance."""
    return _distinct_nontrivial(_one_period(r, p))


def generator_census(r: int, p: int) -> int:
    """Number of distinct pi(r, s, p) over one period, the identity included."""
    return len(set(_one_period(r, p)))


# -- block systems and wreath structure --------------------------------------


def residue_blocks(degree: int, b: int) -> list[tuple[int, ...]]:
    """Blocks Omega_j = {n in [degree] : n = j (mod b)} for j = 1..b."""
    if b < 1 or degree % b:
        raise ValueError(f"b={b} must divide the degree {degree}")
    return [tuple(n for n in range(1, degree + 1) if n % b == j % b) for j in range(1, b + 1)]


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

    `route` names what decided the order and the diagonal membership:
    "certificate" for the structural proof, "chain" for the stabilizer chain.
    """

    r: int
    p: int
    a: int
    b: int
    generator_count: int
    order: int
    expected_order: int
    blocks_invariant: bool
    phi_image_is_dihedral: bool
    diagonal_contained: bool
    l9_transposition_found: bool
    route: str

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
    D_b. For b <= 2 every block permutation has the form (1, c)."""
    c = image.images[b - 1] % b
    for e in (1, -1):
        if all(image.images[j - 1] % b == (e * j + c) % b for j in range(1, b)):
            return e, c
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


def _prime_cycle_seed(images: tuple[int, ...], q: int) -> Optional[tuple[int, ...]]:
    """The q-cycle c of x (q prime) when c is x's only cycle of maximal q-adic
    valuation, else None. Then x^(L/q), L the order of x, fixes every other
    cycle pointwise and is a nontrivial power of c, so c lies in <x>."""
    best, count, seed = 0, 0, None
    for cycle in cycles_of(images):
        v, n = 0, len(cycle)
        while n % q == 0:
            n //= q
            v += 1
        if v > best:
            best, count, seed = v, 1, cycle
        elif v == best:
            count += 1
    return seed if best and count == 1 and len(seed) == q else None


def _short_words(gens: list[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """Products of 1, 2 and 3 generators, shortest first. A word stands for
    its cyclic rotations, which are conjugates of it, and no generator is
    next to itself."""
    def mul(f, g):
        return tuple(g[m - 1] for m in f)

    yield from gens
    for i, f in enumerate(gens):
        for g in gens[i + 1:]:
            yield mul(f, g)
    for i, f in enumerate(gens):
        for j, g in enumerate(gens[i + 1:], start=i + 1):
            fg = mul(f, g)
            for k in range(i + 1, len(gens)):
                if k != j:
                    yield mul(fg, gens[k])


def _joins_blocks(seed: tuple[int, ...], gens: list[tuple[int, ...]], b: int) -> bool:
    """True iff the supports of the conjugates of the cycle `seed` under
    <gens> join the points into b components, merged with a union-find and
    stopping as soon as they do. With blocks that every generator preserves
    and a seed inside one block, b components are the b residue blocks."""
    parent = list(range(len(gens[0]) + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(gens[0])
    start = frozenset(seed)
    seen, queue = {start}, [start]
    while queue:
        support = queue.pop()
        root = find(min(support))
        for x in support:
            rx = find(x)
            if rx != root:
                parent[rx] = root
                components -= 1
        if components == b:
            return True
        for g in gens:
            image = frozenset(g[x - 1] for x in support)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return False


def _kernel_is_full(gens: list[tuple[int, ...]], b: int,
                    seed: Optional[tuple[int, ...]]) -> bool:
    """True iff S_a^b <= <gens> is shown, for generators that preserve the
    residue blocks. A transposition whose conjugates join every block gives
    each block its full symmetric group (connected transposition graphs
    generate S_n). For b = 1 a 3-cycle whose conjugates join all points gives
    the alternating group, and an odd generator then gives S_a. Without a
    given seed the first short word with a seed decides: in S_a wr D_b every
    transposition, and for b = 1 every 3-cycle, has conjugates joining every
    block."""
    if seed is None:
        primes = (2, 3) if b == 1 else (2,)
        seed = next((c for x in _short_words(gens) for q in primes
                     if (c := _prime_cycle_seed(x, q))), None)
        if seed is None:
            return False
    if not _joins_blocks(seed, gens, b):
        return False
    return len(seed) == 2 or any(sum(len(c) - 1 for c in cycles_of(g)) % 2 for g in gens)


def _certify(gens: list[Permutation], a: int, b: int,
             seed: Optional[tuple[int, ...]] = None) -> tuple[bool, bool, Optional[int]]:
    """Structural certificate for <gens> = S_a wr D_b on ab points.

    Returns (every generator preserves the residue blocks, their block
    permutations generate D_b, the proved order or None). `seed` is a
    transposition known to lie in <gens>; without one it is sought among
    short words in the generators.
    """
    images = [_block_images(g.images, b) for g in gens]
    if None in images:
        return False, False, None
    images = [Permutation(image) for image in dict.fromkeys(images)]
    if not _generates_dihedral(images, b):
        return True, False, None
    if a > 1 and not _kernel_is_full([g.images for g in gens], b, seed):
        return True, True, None
    return True, True, expected_wreath_order(a, b)


def verify_wreath(r: int, p: int, cap: int = DEFAULT_DEGREE_CAP) -> GroupReport:
    """Build the group G for (r, p) and check every structural claim.

    Checks: exact order against (a!)^b * |D_b|; block invariance of every
    generator; the induced block action generating exactly the dihedral group;
    containment of the diagonal copies of a transposition and an a-cycle
    (for a > 1); and the four-fold product recovering the transposition
    (1, b+1) (for a > 1 and b > 1). Skipped checks report True.

    Order and membership come from a certificate. Block-preserving generators
    put the kernel of the block action inside S_a^b, and a closed-form test
    shows that their block permutations generate D_b. Then a transposition,
    the product (1, b+1) when b > 1, whose conjugates join every residue
    block shows that the kernel is all of S_a^b (for b = 1, a 3-cycle and an
    odd generator will do). So |G| = (a!)^b * |D_b|, and a block-preserving
    permutation lies in G iff its block permutation lies in D_b. When the
    certificate is not found, a Schreier-Sims chain on the same generators
    decides both; `route` says which answered.
    """
    p = ensure_prime(p)
    _, a, b, _ = p_parts(r, p)
    if r > cap:
        raise DegreeCapExceeded(f"degree {r} exceeds cap {cap}")
    period = _one_period(r, p)
    gens = _distinct_nontrivial(period)

    seed, l9_ok = None, True
    if a > 1 and b > 1:
        # pi(r, p^m + k, p) sits at index p^m + k - r of the period
        pm = p_power_at_least(r, p)[1]
        pi_k = {k: period[pm + k - r] for k in (0, 1, b, b + 1)}
        product = compose(compose(compose(pi_k[1], pi_k[0]), pi_k[b]), pi_k[b + 1])
        l9_ok = product == transposition(1, b + 1, r)
        if l9_ok:
            seed = (1, b + 1)
    blocks_invariant, phi_ok, order = _certify(gens, a, b, seed)

    if a > 1:
        a_cycle = Permutation(tuple(range(2, a + 1)) + (1,))
        diagonals = [diagonal_embed(transposition(1, 2, a), a, b),
                     diagonal_embed(a_cycle, a, b)]
    else:
        diagonals = []
    if order is not None:
        route = "certificate"
        diagonal_ok = all(_dihedral_form(phi_image(d, b), b) is not None for d in diagonals)
    else:
        route = "chain"
        G = PermGroup(gens, r, cap=cap)
        order = G.order()
        diagonal_ok = all(G.contains(d) for d in diagonals)

    return GroupReport(
        r=r, p=p, a=a, b=b,
        generator_count=len(gens),
        order=order,
        expected_order=expected_wreath_order(a, b),
        blocks_invariant=blocks_invariant,
        phi_image_is_dihedral=phi_ok,
        diagonal_contained=diagonal_ok,
        l9_transposition_found=l9_ok,
        route=route,
    )
