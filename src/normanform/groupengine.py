"""Permutation-group machinery: a deterministic stabilizer chain for exact order
and membership, residue block systems, the induced block action, the diagonal
embedding, and the wreath-structure verification of the groups generated by
Norman involutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterable, Optional

from .jordan import pi_of
from .parith import ensure_prime, p_parts, p_power_at_least
from .perm import Permutation, compose, identity, transposition

DEFAULT_DEGREE_CAP = 64


class DegreeCapExceeded(RuntimeError):
    """Requested degree above the configured guard."""


class _Level:
    """One stabilizer-chain level: base point, own generators, and transversal.

    The transversal maps each orbit point x to a word u_x with beta^(u_x) = x.
    """

    __slots__ = ("beta", "gens", "transversal")

    def __init__(self, beta: int, degree: int):
        self.beta = beta
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {beta: identity(degree)}


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
            if not g.is_identity():
                self._insert(g)
        self._schreier_sims()

    # -- chain construction -------------------------------------------------

    def _strong_gens_from(self, i: int) -> list[Permutation]:
        return [g for lvl in self._levels[i:] for g in lvl.gens]

    def _sift_from(self, i: int, g: Permutation) -> Permutation:
        """Divide g by transversal words level by level; the residue is the obstruction."""
        for lvl in self._levels[i:]:
            x = g(lvl.beta)
            if x not in lvl.transversal:
                return g
            g = compose(g, lvl.transversal[x].inverse())
        return g

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
                schreier = compose(compose(u_x, g), lvl.transversal[g(x)].inverse())
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


def group_generators(r: int, p: int) -> list[Permutation]:
    """Distinct nontrivial pi(r, s, p) over one full period, in order of first appearance."""
    return list(dict.fromkeys(g for g in _one_period(r, p) if not g.is_identity()))


def generator_census(r: int, p: int) -> int:
    """Number of distinct pi(r, s, p) over one period, the identity included."""
    return len(set(_one_period(r, p)))


# -- block systems and wreath structure --------------------------------------


def residue_blocks(degree: int, b: int) -> list[tuple[int, ...]]:
    """Blocks Omega_j = {n in [degree] : n = j (mod b)} for j = 1..b."""
    if b < 1 or degree % b:
        raise ValueError(f"b={b} must divide the degree {degree}")
    return [tuple(n for n in range(1, degree + 1) if n % b == j % b) for j in range(1, b + 1)]


def _block_index(n: int, b: int) -> int:
    """Index j in [b] of the residue block containing n."""
    return (n - 1) % b + 1


def phi_image(g: Permutation, b: int) -> Permutation:
    """The permutation of block indices induced by g on the residue blocks."""
    if b < 1 or g.degree % b:
        raise ValueError(f"b={b} must divide the degree {g.degree}")
    image: dict[int, int] = {}
    for n in range(1, g.degree + 1):
        j = _block_index(n, b)
        jj = _block_index(g(n), b)
        if image.setdefault(j, jj) != jj:
            raise ValueError(f"{g} does not preserve the residue blocks mod {b}")
    return Permutation(tuple(image[j] for j in range(1, b + 1)))


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
    """Structure verification for the group generated by the Norman involutions."""

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

    @property
    def verdict(self) -> bool:
        return (self.order == self.expected_order and self.blocks_invariant
                and self.phi_image_is_dihedral and self.diagonal_contained
                and self.l9_transposition_found)


def expected_wreath_order(a: int, b: int) -> int:
    """(a!)^b * |D_b| with |D_b| = 2b for b >= 3 and b for b in {1, 2}."""
    return factorial(a) ** b * (2 * b if b >= 3 else b)


def _generates_dihedral(images: list[Permutation], b: int) -> bool:
    """True iff the images generate D_b, whose reflections n -> (c - n mod b) + 1
    give the shape of the induced block action: iff |<images>| = |D_b| and
    <images> contains every reflection. The order alone would accept any other
    group of order |D_b|. Callers have already checked b <= r against the cap.
    """
    H = PermGroup(images, b, cap=b)
    return H.order() == expected_wreath_order(1, b) and all(
        H.contains(Permutation(tuple((c - n) % b + 1 for n in range(1, b + 1))))
        for c in range(b))


def verify_wreath(r: int, p: int, cap: int = DEFAULT_DEGREE_CAP) -> GroupReport:
    """Build the group for (r, p) and check every structural claim directly.

    Checks: exact order against (a!)^b * |D_b|; block invariance of every
    generator; the induced block action generating exactly the dihedral group;
    containment of the diagonal copies of a transposition and an a-cycle
    (for a > 1); and the four-fold product recovering the transposition
    (1, b+1) (for a > 1 and b > 1). Skipped checks report True.
    """
    p = ensure_prime(p)
    _, a, b, _ = p_parts(r, p)
    if r > cap:
        raise DegreeCapExceeded(f"degree {r} exceeds cap {cap}")
    gens = group_generators(r, p)
    G = PermGroup(gens, r, cap=cap)

    try:
        images = list(dict.fromkeys(phi_image(g, b) for g in gens))
    except ValueError:
        blocks_invariant = phi_ok = False
    else:
        blocks_invariant, phi_ok = True, _generates_dihedral(images, b)

    if a > 1:
        a_cycle = Permutation(tuple(range(2, a + 1)) + (1,))
        diagonal_ok = (G.contains(diagonal_embed(transposition(1, 2, a), a, b))
                       and G.contains(diagonal_embed(a_cycle, a, b)))
    else:
        diagonal_ok = True

    if a > 1 and b > 1:
        pm = p_power_at_least(r, p)[1]
        pi_k = {k: pi_of(r, pm + k, p) for k in (0, 1, b, b + 1)}
        product = compose(compose(compose(pi_k[1], pi_k[0]), pi_k[b]), pi_k[b + 1])
        l9_ok = product == transposition(1, b + 1, r)
    else:
        l9_ok = True

    return GroupReport(
        r=r, p=p, a=a, b=b,
        generator_count=len(gens),
        order=G.order(),
        expected_order=expected_wreath_order(a, b),
        blocks_invariant=blocks_invariant,
        phi_image_is_dihedral=phi_ok,
        diagonal_contained=diagonal_ok,
        l9_transposition_found=l9_ok,
    )
