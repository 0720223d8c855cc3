"""The central computations: the Jordan partition lambda(r, s, p) of a tensor
product of unipotent Jordan blocks, its Norman permutation pi(r, s, p), and the
deviation vector, all via the delta route; plus a dispatcher of closed-form
fast-path identities usable as independent evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import corr
from .corr import DeviationVector, SubsetProfile
from .delta import DeltaProfile, delta_profile
from .parith import check_rsp, p_adic_valuation, p_power_at_least
from .perm import Permutation, compose, conjugate, embed, identity, rev, transposition


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        prev = None
        for part in self.parts:
            if part < 1:
                raise ValueError(f"parts must be positive, got {self.parts!r}")
            if prev is not None and part > prev:
                raise ValueError(f"parts must be weakly decreasing, got {self.parts!r}")
            prev = part

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> tuple[tuple[int, int], ...]:
        """(part, multiplicity) pairs, parts descending."""
        out: list[tuple[int, int]] = []
        for part in self.parts:
            if out and out[-1][0] == part:
                out[-1] = (part, out[-1][1] + 1)
            else:
                out.append((part, 1))
        return tuple(out)


@dataclass(frozen=True)
class JordanResult:
    """lambda, pi, epsilon and the underlying delta profile for one (r, s, p)."""

    r: int
    s: int
    p: int
    lam: Partition
    pi: Permutation
    epsilon: DeviationVector
    profile: DeltaProfile
    method: str


def lambda_of(r: int, s: int, p: int) -> Partition:
    """The Jordan partition of rs with exactly r parts: lambda_n = r+s-2n+L(n)-R(n)."""
    prof = delta_profile(r, s, p)
    return _lambda_from_profile(prof)


def _lambda_from_profile(prof: DeltaProfile) -> Partition:
    r, s = prof.r, prof.s
    parts = tuple(r + s - 2 * n + prof.L[n - 1] - prof.R[n - 1] for n in range(1, r + 1))
    lam = Partition(parts)
    assert lam.size == r * s
    return lam


def pi_of(r: int, s: int, p: int) -> Permutation:
    """The Norman permutation n -> n + 1 - L(n) + R(n); an involution or the identity."""
    prof = delta_profile(r, s, p)
    return _pi_from_profile(prof)


def _pi_from_profile(prof: DeltaProfile) -> Permutation:
    r = prof.r
    return Permutation(tuple(n + 1 - prof.L[n - 1] + prof.R[n - 1] for n in range(1, r + 1)))


def deviation(r: int, s: int, p: int) -> DeviationVector:
    """The deviation vector (lambda_1 - s, ..., lambda_r - s)."""
    lam = lambda_of(r, s, p)
    return corr.validate_eps(part - s for part in lam.parts)


def jordan_result(r: int, s: int, p: int) -> JordanResult:
    """Assemble lambda, pi, epsilon for (r, s, p) and assert their mutual consistency."""
    p = check_rsp(r, s, p)
    prof = delta_profile(r, s, p)
    lam = _lambda_from_profile(prof)
    pi = _pi_from_profile(prof)
    eps = corr.validate_eps(part - s for part in lam.parts)
    # the reversal-product route through the descent set must agree
    via_subset = corr.subset_to_perm(SubsetProfile(r, prof.descent_set()))
    if via_subset != pi:
        raise RuntimeError(f"pi routes disagree for (r,s,p)=({r},{s},{p})")
    for n in range(1, r + 1):
        if pi(n) != (r + 1 - n) + s - lam.parts[n - 1]:
            raise RuntimeError(f"pi/lambda inconsistency at n={n} for ({r},{s},{p})")
    if not pi.is_involution():
        raise RuntimeError(f"pi({r},{s},{p}) is not an involution")
    return JordanResult(r, s, p, lam, pi, eps, prof, "delta-route")


@dataclass(frozen=True)
class FastPathResult:
    """A fast-path value and the identity chain that produced it."""

    perm: Permutation
    rule: str


def pi_fast_path(r: int, s: int, p: int) -> Optional[FastPathResult]:
    """Evaluate pi(r, s, p) by closed-form identities alone, if any applies.

    Returns None when no identity chain resolves; the delta route is never
    consulted, so a returned value is an independent check of pi_of.
    """
    p = check_rsp(r, s, p)
    return _fast(r, s, p, allow_mirror=True)


def pi3_modulus(p: int) -> int:
    """The period in s of pi(3, s, p): p^2 for p = 2, else p."""
    return p * p if p == 2 else p


def _pi3(s: int, p: int) -> Permutation:
    """pi(3, s, p) from the small-r table, read at s mod pi3_modulus(p)."""
    q = pi3_modulus(p)
    x = s % q
    if x == 0:
        return rev(1, 3, 3)
    if x == 1:
        return rev(2, 3, 3)
    if x == q - 1:
        return transposition(1, 2, 3)
    return identity(3)


class SmallResidueForm(NamedTuple):
    """pi(r, s, p) in closed form for s = residue mod p^m (p^m >= r), from r = rmin on."""

    formula: str  # as `table --name small-s` prints it
    rmin: int
    value: Callable[[int, int], FastPathResult]  # (r, p) -> value and its rule


# The closed forms at the residues 0..3: the fast path dispatches on this table
# and `table --name small-s` checks it against the delta route.
SMALL_RESIDUES = {
    0: SmallResidueForm("Rev(1,r)", 1, lambda r, p: FastPathResult(rev(1, r, r), "residue-0")),
    1: SmallResidueForm("Rev(2,r)", 2, lambda r, p: FastPathResult(rev(2, r, r), "residue-1")),
    2: SmallResidueForm("(1,2)Rev(3,r) if p|r else Rev(3,r)", 3, lambda r, p: (
        FastPathResult(rev(3, r, r), "residue-2") if r % p else
        FastPathResult(compose(transposition(1, 2, r), rev(3, r, r)), "residue-2-pdivr"))),
    3: SmallResidueForm("pi(3,r,p)Rev(4,r)", 4, lambda r, p: FastPathResult(
        compose(embed(_pi3(r, p), r), rev(4, r, r)), "residue-3")),
}


def _fast(r: int, s: int, p: int, allow_mirror: bool) -> Optional[FastPathResult]:
    # Small r: closed values.
    if r == 1:
        return FastPathResult(identity(1), "r=1")
    if r == 2:
        value = transposition(1, 2, 2) if s % p == 0 else identity(2)
        return FastPathResult(value, "r=2")
    if r == 3:
        return FastPathResult(_pi3(s, p), "r=3-table")

    # Characteristic inside the staircase window: one long reversal.
    if s <= p <= r + s - 2:
        return FastPathResult(rev(1, r + s - p, r), "char-window")

    pm = p_power_at_least(r, p)[1]
    sigma = s % pm  # periodicity: pi depends on s only through this residue

    # Small residues 0..3.
    if sigma in SMALL_RESIDUES:
        return SMALL_RESIDUES[sigma].value(r, p)

    # Residues b, 2b, b+1 above p^m for r with nontrivial p-part b.
    b = p ** p_adic_valuation(r, p)
    if 1 < b < r:
        if sigma == b:
            return FastPathResult(compose(rev(1, b, r), rev(b + 1, r, r)), "residue-b")
        if sigma == 2 * b and 2 * b < r:
            value = compose(compose(rev(1, b, r), rev(b + 1, 2 * b, r)), rev(2 * b + 1, r, r))
            return FastPathResult(value, "residue-2b")
        if sigma == b + 1:
            return FastPathResult(compose(rev(2, b, r), rev(b + 2, r, r)), "residue-b+1")

    # Reduction to a smaller first argument when the residue is below r.
    if 1 <= sigma < r and r < pm:
        inner = _fast(sigma, r, p, allow_mirror)
        if inner is not None:
            value = compose(embed(inner.perm, r), rev(sigma + 1, r, r))
            return FastPathResult(value, f"small-s({inner.rule})")

    # Mirrored reduction: residue just below a multiple of p^m.
    if r < pm and pm - r < sigma <= pm - 1:
        s1 = pm - sigma
        inner = _fast(s1, r, p, allow_mirror)
        if inner is not None:
            value = compose(rev(1, r - s1, r), conjugate(embed(inner.perm, r), rev(1, r, r)))
            return FastPathResult(value, f"mirror-small-s({inner.rule})")

    # p-power scaling: strip a common p-power from both arguments.
    ell = min(p_adic_valuation(r, p), p_adic_valuation(s, p))
    if ell >= 1:
        q = p**ell
        inner = _fast(r // q, s // q, p, allow_mirror)
        if inner is not None:
            cuts = corr.reversal_cuts(inner.perm)
            value = identity(r)
            for lo, hi in zip(cuts, cuts[1:]):
                value = compose(value, rev(q * lo + 1, q * hi, r))
            return FastPathResult(value, f"p-power-scaling({inner.rule})")

    # Duality: conjugate the value at the negated residue by the full reversal.
    if allow_mirror and sigma != 0:
        s_partner = pm - sigma
        while s_partner < r:
            s_partner += pm
        inner = _fast(r, s_partner, p, allow_mirror=False)
        if inner is not None:
            value = conjugate(inner.perm, rev(1, r, r))
            return FastPathResult(value, f"duality({inner.rule})")

    return None
