"""The triangle of bijections between subsets of [r-1], deviation vectors, and
products of disjoint consecutive-interval reversals covering [r].

Subsets T = {t_1 < ... < t_k} of [r-1] carry sentinels t_0 = 0 and t_{k+1} = r;
the intervals between consecutive cut points are reversed in place by the
corresponding permutation, and the deviation vector is constant on each interval.

The two interval maps over cut points, _reversal_images (pi(n) = lo + hi + 1 - n
on (lo, hi]) and _deviation_entries (eps_n = r - lo - hi on (lo, hi]), are the
only home of these formulas: subset_to_perm and subset_to_eps read them at T's
cut points, and the delta route of `jordan` at the cut points of the delta
profile, where lambda = s + eps is Norman's lambda and pi his involution.
_reversal_cycles writes the cycle text of the reversal product straight from
the cut points, for every pi the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .perm import Permutation


class DeviationError(ValueError):
    """A tuple failing one of the deviation-vector conditions.

    kind is one of 'not-weakly-decreasing', 'forbidden-gap' (eps_i - eps_j = j - i),
    or 'out-of-range' (eps_n outside [1-n, r-n]); indices identifies the first
    violation (an (i, j) pair, or (n,)).
    """

    def __init__(self, kind: str, indices: tuple[int, ...], message: str):
        super().__init__(message)
        self.kind = kind
        self.indices = indices


class NotReversalProduct(ValueError):
    """Permutation is not a product of disjoint consecutive-interval reversals."""


@dataclass(frozen=True)
class SubsetProfile:
    """A subset of [r-1], strictly increasing, with sentinel accessors."""

    r: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r!r}")
        prev = 0
        for t in self.members:
            if not 1 <= t <= self.r - 1:
                raise ValueError(f"member {t} outside [1, {self.r - 1}]")
            if t <= prev:
                raise ValueError(f"members must be strictly increasing, got {self.members!r}")
            prev = t

    def cuts(self) -> tuple[int, ...]:
        """Cut points 0 = t_0 < t_1 < ... < t_{k+1} = r, sentinels included."""
        return (0,) + self.members + (self.r,)


@dataclass(frozen=True)
class DeviationVector:
    """A weakly decreasing integer r-tuple avoiding gaps eps_i - eps_j = j - i
    and confined to 1 - n <= eps_n <= r - n."""

    entries: tuple[int, ...]

    def __post_init__(self):
        _check_entries(self.entries)

    @property
    def r(self) -> int:
        return len(self.entries)


def _check_entries(entries: tuple[int, ...]) -> None:
    r = len(entries)
    if r < 1:
        raise ValueError("deviation vector must have at least one entry")
    for n in range(1, r):
        if entries[n - 1] < entries[n]:
            raise DeviationError(
                "not-weakly-decreasing", (n, n + 1),
                f"eps_{n} = {entries[n - 1]} < eps_{n + 1} = {entries[n]}")
    # eps_i - eps_j = j - i iff eps_i + i = eps_j + j: a forbidden gap is a repeated
    # key. Report the least i that repeats, with its least j.
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for n in range(1, r + 1):
        key = entries[n - 1] + n
        if key not in first:
            first[key] = n
        elif key not in second:
            second[key] = n
    if second:
        key = min(second, key=first.__getitem__)
        i, j = first[key], second[key]
        raise DeviationError(
            "forbidden-gap", (i, j),
            f"eps_{i} - eps_{j} = {j - i} = j - i at (i, j) = ({i}, {j})")
    for n in range(1, r + 1):
        if not (1 - n <= entries[n - 1] <= r - n):
            raise DeviationError(
                "out-of-range", (n,),
                f"eps_{n} = {entries[n - 1]} outside [{1 - n}, {r - n}]")


def validate_eps(entries) -> DeviationVector:
    """Validate an integer sequence as a deviation vector, reporting the first violation."""
    return DeviationVector(tuple(int(e) for e in entries))


def _reversal_images(cuts: Sequence[int]) -> tuple[int, ...]:
    """One-line images of the product of reversals of the intervals (lo, hi] between
    consecutive cut points 0 = t_0 < ... < t_{k+1} = r: pi(n) = lo + hi + 1 - n."""
    images: list[int] = []
    for lo, hi in zip(cuts, cuts[1:]):
        images.extend(range(hi, lo, -1))
    return tuple(images)


def _deviation_entries(cuts: Sequence[int]) -> list[int]:
    """eps_1, ..., eps_r constant on each interval (lo, hi] between consecutive cut
    points 0 = t_0 < ... < t_{k+1} = r: eps_n = r - lo - hi."""
    r = cuts[-1]
    entries: list[int] = []
    for lo, hi in zip(cuts, cuts[1:]):
        entries.extend([r - lo - hi] * (hi - lo))
    return entries


def _reversal_cycles(cuts: Sequence[int]) -> str:
    """The cycle text of the same product, as perm.format_cycles writes it: the
    reversal of (lo, hi] has the cycles (lo+1+i, hi-i) for i < (hi-lo)/2, already
    in order of least point."""
    points: list[int] = []
    for lo, hi in zip(cuts, cuts[1:]):
        points.extend(chain.from_iterable(zip(range(lo + 1, lo + 1 + (hi - lo) // 2),
                                              range(hi, lo, -1))))
    return "(%d,%d)" * (len(points) // 2) % tuple(points) or "()"


def _unchecked(cls, **fields):
    """cls(**fields) without its __post_init__ check, for values valid by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def subset_to_perm(T: SubsetProfile) -> Permutation:
    """Product of reversals over the consecutive intervals of T; an involution or identity."""
    return Permutation(_reversal_images(T.cuts()))


def subset_to_eps(T: SubsetProfile) -> DeviationVector:
    """Deviation vector constant on each interval: eps_n = r - t_i - t_{i+1} on [t_i+1, t_{i+1}]."""
    return DeviationVector(tuple(_deviation_entries(T.cuts())))


def eps_to_perm(eps: DeviationVector) -> Permutation:
    """n -> r + 1 - n - eps_n; a bijection of [r] by the vector's invariants."""
    r = eps.r
    return Permutation(tuple(r + 1 - n - eps.entries[n - 1] for n in range(1, r + 1)))


def perm_to_eps(pi: Permutation) -> DeviationVector:
    """eps_n = r + 1 - n - n^pi; requires pi to be a reversal product (inverse of eps_to_perm)."""
    r = pi.degree
    reversal_cuts(pi)  # raises NotReversalProduct outside the domain
    return DeviationVector(tuple(r + 1 - n - pi(n) for n in range(1, r + 1)))


def eps_to_subset(eps: DeviationVector) -> SubsetProfile:
    """The strict-descent set {t in [r-1] : eps_t > eps_{t+1}}."""
    members = tuple(t for t in range(1, eps.r)
                    if eps.entries[t - 1] > eps.entries[t])
    return SubsetProfile(eps.r, members)


def perm_to_subset(pi: Permutation) -> SubsetProfile:
    """Recover T from a reversal product: interior cut points."""
    cuts = reversal_cuts(pi)
    return SubsetProfile(pi.degree, cuts[1:-1])


def reversal_cuts(pi: Permutation) -> tuple[int, ...]:
    """Cut points 0 = t_0 < ... < t_k = r of the (unique) factorization of pi into
    reversals of consecutive intervals covering [r], fixed intervals included.

    Raises NotReversalProduct if no such factorization exists. O(r) scan: the
    interval starting at n must end at n^pi and be reversed in place.
    """
    r = pi.degree
    cuts = [0]
    n = 1
    while n <= r:
        j = pi(n)
        if j < n:
            raise NotReversalProduct(f"{pi} maps {n} backwards across a cut")
        for m in range(n, j + 1):
            if pi(m) != n + j - m:
                raise NotReversalProduct(f"{pi} does not reverse [{n}, {j}] in place")
        cuts.append(j)
        n = j + 1
    return tuple(cuts)
