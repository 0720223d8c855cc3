"""Tensor decompositions V_r (x) V_s as multisets of indecomposable dimensions,
and the closed-form decomposition identities used by the group-structure proofs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jordan import _lam
from .parith import check_rsp, ensure_prime, p_power_at_least


# p-part-step and above-period run over r = a * b with 2 <= a <= A_MAX
A_MAX = 10


class GreenIdentityViolation(RuntimeError):
    """A closed-form decomposition identity failed (an implementation bug)."""


@dataclass(frozen=True)
class GreenDecomposition:
    """Summands as (dimension, multiplicity) pairs, dimensions descending."""

    summands: tuple[tuple[int, int], ...]

    @property
    def total(self) -> int:
        return sum(d * m for d, m in self.summands)

    def as_dict(self) -> dict[int, int]:
        return dict(self.summands)


@dataclass(frozen=True)
class GreenIdentityReport:
    """One record per identity instance checked: (name, parameters, expected summands)."""

    p: int
    e_max: int
    instances: tuple[tuple[str, tuple[int, ...], tuple[tuple[int, int], ...]], ...]

    @property
    def checked(self) -> int:
        return len(self.instances)


def decompose(r: int, s: int, p: int) -> GreenDecomposition:
    """The runs of the Jordan partition from the recursion of `jordan`, parts descending."""
    p = check_rsp(r, s, p)
    return GreenDecomposition(tuple(sorted(_lam(r, s, p)[1].items(), reverse=True)))


def _expected(pairs: list[tuple[int, int]]) -> GreenDecomposition:
    """Normalise an expected right-hand side: drop zero multiplicities, sort descending."""
    kept = sorted(((d, m) for d, m in pairs if m > 0), reverse=True)
    return GreenDecomposition(tuple(kept))


def check_green_identities(p: int, e_max: int) -> GreenIdentityReport:
    """Verify the closed-form decompositions for every b = p^e, e <= e_max.

    Checks V_1 (x) V_b = V_b; V_b (x) V_{b+1} = V_{2b} + (b-1) V_b for b > 1;
    V_{b+1} (x) V_r = V_{r+b} + (b-1) V_r + V_{r-b} for r with p-part b > 1;
    and V_r (x) V_{p^m+b+1} = V_{p^m+r+b} + (b-1) V_{p^m+r} + V_{p^m+r-b}
    + (r-b-1) V_{p^m} for b < r <= p^m. Any mismatch raises
    GreenIdentityViolation naming the instance.
    """
    p = ensure_prime(p)
    if e_max < 1:
        raise ValueError(f"e_max must be >= 1, got {e_max!r}")
    instances = []

    def check(name: str, params: tuple[int, ...], got: GreenDecomposition,
              expected: GreenDecomposition) -> None:
        if got.summands != expected.summands:
            raise GreenIdentityViolation(
                f"{name} at {params}: computed {got.summands}, expected {expected.summands}")
        instances.append((name, params, expected.summands))

    for e in range(0, e_max + 1):
        b = p**e
        check("unit", (b,), decompose(1, b, p), _expected([(b, 1)]))
        if b == 1:
            continue
        check("adjacent", (b,), decompose(b, b + 1, p),
              _expected([(2 * b, 1), (b, b - 1)]))
        for a in range(2, A_MAX + 1):
            if a % p == 0:
                continue
            r = a * b
            check("p-part-step", (b, r), decompose(b + 1, r, p),
                  _expected([(r + b, 1), (r, b - 1), (r - b, 1)]))
            pm = p_power_at_least(r, p)[1]
            check("above-period", (b, r, pm), decompose(r, pm + b + 1, p),
                  _expected([(pm + r + b, 1), (pm + r, b - 1),
                             (pm + r - b, 1), (pm, r - b - 1)]))
    return GreenIdentityReport(p, e_max, tuple(instances))
