"""The central computations: the Jordan partition lambda(r, s, p) of a tensor
product of unipotent Jordan blocks, its Norman permutation pi(r, s, p), and the
deviation vector, all via the delta route; plus _lam, a base-p recursion for
lambda with no Legendre sums, read by pi_fast_path and green.decompose.

The delta route ends at the cut points 0 = t_0 < ... < t_{k+1} = r of the delta
profile, and reads everything from the two interval maps of `corr`.
On each interval (lo, hi], lo = n - L(n) and hi = n + R(n), so
lambda_n = s + eps_n = s + r - lo - hi is Norman's r + s - 2n + L(n) - R(n), and
pi(n) = r + 1 - n + s - lambda_n = lo + hi + 1 - n reverses the interval. As
sum (hi - lo)(r - lo - hi) = r^2 - sum (hi^2 - lo^2) = 0, sum eps = 0 and
|lambda| = rs.
The values skip their classes' checks, as the cut points rise strictly from 0 to
r: pi is a bijection, lambda_n >= s - r + 1 >= 1 weakly decreases, and eps is a
deviation vector by the triangle theorem of `corr`.

The recursion carries lambda as runs {part: multiplicity}. Its parts are distinct,
so, largest first, the multiplicities are the interval lengths and their partial
sums the cut points. For r <= s, with lambda(r, s) = lambda(s, r) and q the least
p-power >= r, the first step that applies is taken:
- staircase, r <= 1 or r + s - 1 <= p: each part r + s + 1 - 2n, n in [r], once
  (lambda(0, s) has no runs). It precedes digits, which would call itself at q = p.
- period, s = aq + b >= q: the runs of lambda(r, b) shifted by aq, and a run aq
  of multiplicity r - b if b < r (Glasby, Praeger and Xia, J. Algebra 2016).
- mirror, s < q < r + s, b = q - s: the runs c of lambda(b, r) reflected to
  q - c, and a run q of multiplicity r - b.
- digits, r + s <= q, Q = q/p, r = r0 Q + r1, s = s0 Q + s1 (0 <= r1, s1 < Q), in
  the manner of Renaud (J. Algebra 1979): (m - 1)Q + c for runs m of
  lambda(r0+1, s0+1) and c of lambda(r1, s1), and (m + 1)Q - c for runs m of
  lambda(r0, s0) and c of lambda(Q-r1, Q-s1), of the product multiplicity; and
  mQ, |s1 - r1| times as often as m, for runs m of lambda(r0, s0+1) if r1 < s1,
  else of lambda(r0+1, s0). The multiplicities of a part that two pairs give add.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

from . import corr
from .corr import DeviationVector
from .delta import DeltaProfile, delta_profile
from .parith import check_rsp, ensure_prime, p_power_at_least
from .perm import Permutation, compose, embed, identity, rev, transposition


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
    method: ClassVar[str] = "delta-route"


def lambda_of(r: int, s: int, p: int) -> Partition:
    """The Jordan partition of rs with exactly r parts: lambda_n = s + eps_n."""
    return _lam_at(s, corr._deviation_entries(delta_profile(r, s, p).cuts))


def pi_of(r: int, s: int, p: int) -> Permutation:
    """The Norman permutation n -> lo + hi + 1 - n on (lo, hi]; an involution or the identity."""
    return _pi_at(delta_profile(r, s, p).cuts)


def deviation(r: int, s: int, p: int) -> DeviationVector:
    """The deviation vector (lambda_1 - s, ..., lambda_r - s)."""
    return jordan_result(r, s, p).epsilon


def jordan_result(r: int, s: int, p: int) -> JordanResult:
    """Assemble lambda, pi and epsilon for (r, s, p) from the cut points of one delta profile."""
    p = check_rsp(r, s, p)
    prof = delta_profile(r, s, p)
    entries = corr._deviation_entries(prof.cuts)
    eps = corr._unchecked(DeviationVector, entries=tuple(entries))
    return JordanResult(r, s, p, _lam_at(s, entries), _pi_at(prof.cuts), eps, prof)


def _lam_at(s: int, entries: list[int]) -> Partition:
    return corr._unchecked(Partition, parts=tuple([s + e for e in entries]))


def _pi_at(cuts: tuple[int, ...]) -> Permutation:
    return corr._unchecked(Permutation, images=corr._reversal_images(cuts))


@dataclass(frozen=True)
class FastPathResult:
    """A fast-path value and the top step of the lambda recursion that produced it."""

    perm: Permutation
    rule: str


def pi_fast_path(r: int, s: int, p: int) -> FastPathResult:
    """pi(r, s, p) as n -> r + 1 - n + s - lambda_n, written run by run, with lambda
    from the base-p recursion of the module docstring; the delta route is never
    consulted, so the value is an independent check of pi_of."""
    p = check_rsp(r, s, p)
    rule, runs = _lam(r, s, p)
    images: list[int] = []
    for part in sorted(runs, reverse=True):  # the run of part holds n in (lo, lo + runs[part]]
        lo = len(images)
        images.extend(range(r + s - part - lo, r + s - part - lo - runs[part], -1))
    return FastPathResult(Permutation(tuple(images)), rule)


def _lam(r: int, s: int, p: int) -> tuple[str, dict[int, int]]:
    """The step taken for lambda(min(r, s), max(r, s), p), and its runs {part: multiplicity}."""
    r, s = min(r, s), max(r, s)
    if r <= 1 or r + s - 1 <= p:
        return "staircase", dict.fromkeys(range(r + s - 1, s - r, -2), 1)
    q = p_power_at_least(r, p)[1]
    if s >= q:
        a, b = divmod(s, q)
        runs = {a * q + c: k for c, k in _lam(r, b, p)[1].items()}
        if b < r:
            runs[a * q] = r - b
        return "period", runs
    if r + s > q:
        b = q - s
        runs = {q - c: k for c, k in _lam(b, r, p)[1].items()}
        runs[q] = r - b
        return "mirror", runs
    Q = q // p
    r0, r1 = divmod(r, Q)
    s0, s1 = divmod(s, Q)
    runs = {}
    for outer, inner, sign in ((_lam(r0 + 1, s0 + 1, p)[1], _lam(r1, s1, p)[1], 1),
                               (_lam(r0, s0, p)[1], _lam(Q - r1, Q - s1, p)[1], -1)):
        for m, k in outer.items():
            for c, j in inner.items():
                part = (m - sign) * Q + sign * c
                runs[part] = runs.get(part, 0) + k * j
    if r1 != s1:
        middle = _lam(r0, s0 + 1, p)[1] if r1 < s1 else _lam(r0 + 1, s0, p)[1]
        for m, k in middle.items():
            runs[m * Q] = runs.get(m * Q, 0) + k * abs(s1 - r1)
    return "digits", runs


def pi3_classes(p: int) -> list[tuple[str, range, Permutation]]:
    """(label, residues, value) for each class of s mod q in the small-r table of
    pi(3, s, p), where q, the least p-power >= 3 (p^2 for p = 2, else p), is its
    period in s. The "otherwise" class is empty for p = 3."""
    q = p_power_at_least(3, p)[1]
    return [("0", range(0, 1), rev(1, 3, 3)), ("1", range(1, 2), rev(2, 3, 3)),
            ("-1", range(q - 1, q), transposition(1, 2, 3)),
            ("otherwise", range(2, q - 1), identity(3))]


def pi3_value(s: int, p: int) -> Permutation:
    """pi(3, s, p): the value of the class in pi3_classes that holds s mod q."""
    p = ensure_prime(p)
    x = s % p_power_at_least(3, p)[1]
    return next(value for _, residues, value in pi3_classes(p) if x in residues)


class SmallResidueForm(NamedTuple):
    """pi(r, s, p) in closed form for s = residue mod p^m (p^m >= r), from r = rmin on."""

    formula: str  # as `table --name small-s` prints it
    rmin: int
    value: Callable[[int, int], Permutation]  # (r, p) -> pi(r, p^m + residue, p)


# The closed forms at the residues 0..3, which `table --name small-s` checks
# against the delta route.
SMALL_RESIDUES = {
    0: SmallResidueForm("Rev(1,r)", 1, lambda r, p: rev(1, r, r)),
    1: SmallResidueForm("Rev(2,r)", 2, lambda r, p: rev(2, r, r)),
    2: SmallResidueForm("(1,2)Rev(3,r) if p|r else Rev(3,r)", 3, lambda r, p: (
        rev(3, r, r) if r % p else compose(transposition(1, 2, r), rev(3, r, r)))),
    3: SmallResidueForm("pi(3,r,p)Rev(4,r)", 4, lambda r, p: compose(
        embed(pi3_value(r, p), r), rev(4, r, r))),
}
