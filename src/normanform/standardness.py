"""Standardness of (r, s, p): the congruence criterion on the triple, and a
check that three independent routes agree on it.

The paper's six equivalent conditions are the staircase lambda_n = r+s+1-2n,
the identity pi, the congruence table, all L(n) = 1, all R(n) = 0 and all
delta = 1. Five of them are one fact of the delta route's cut points: the
profile has r + 1 of them. So the check compares three routes that share no
code: that fact, the identity of pi from the fast path's base-p recursion,
and the congruence criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import jordan
from .delta import delta_profile
from .parith import check_rsp, p_power_at_least


class EquivalenceViolation(RuntimeError):
    """The three provably equivalent standardness routes disagreed (an implementation bug)."""

    def __init__(self, r: int, s: int, p: int, routes: dict[str, bool]):
        odd = sum(routes.values()) == 1  # the value that only one route gives
        self.route = next(name for name, v in routes.items() if v == odd)
        super().__init__(
            f"standardness route {self.route} differs at (r,s,p)=({r},{s},{p}): "
            f"it says {routes[self.route]}, the other routes say {not routes[self.route]}")


@dataclass(frozen=True)
class StandardnessReport:
    """Verdict of the congruence criterion, with the row that matched and its quantities.

    The row-4 quantities a, b, h, i, j are populated only for odd p with r > p.
    """

    r: int
    s: int
    p: int
    m: int
    matched_row: Optional[int]
    verdict: bool
    a: Optional[int] = None
    b: Optional[int] = None
    h: Optional[int] = None
    i: Optional[int] = None
    j: Optional[int] = None


def standard_triple(r: int, s: int, p: int) -> StandardnessReport:
    """Decide standardness of (r, s, p) by the congruence table.

    Rows: r = 1 (always standard); 2 <= r <= p with (s-r+1) mod p <= p+2-2r;
    p = 2, r = 3 with s = 2 mod 4; p odd, r > p with the a/b/h/i/j congruences.
    For p = 2 and r >= 4 no row applies and the triple is not standard.
    """
    p = check_rsp(r, s, p)
    m = p_power_at_least(r, p)[0]
    if r == 1:
        return StandardnessReport(r, s, p, m, matched_row=1, verdict=True)
    if r <= p:
        verdict = (s - r + 1) % p <= p + 2 - 2 * r
        return StandardnessReport(r, s, p, m, matched_row=2, verdict=verdict)
    if p == 2 and r == 3:
        return StandardnessReport(r, s, p, m, matched_row=3, verdict=s % 4 == 2)
    if p % 2 == 1:
        q = p ** (m - 1)
        a = r % q
        b = s % q
        h = (q - 1) // 2
        i = r // q
        j = ((s - r + 1) % (q * p)) // q
        verdict = (a - h in (0, 1)) and (b - h in (0, 1)) and (2 * i + j <= p - 1)
        return StandardnessReport(r, s, p, m, matched_row=4, verdict=verdict,
                                  a=a, b=b, h=h, i=i, j=j)
    return StandardnessReport(r, s, p, m, matched_row=None, verdict=False)


# The six provably equivalent conditions, in the order of the `standard` payload.
CONDITIONS = ("standard_partition", "identity_permutation", "standard_triple",
              "all_left_gaps_one", "all_right_gaps_zero", "all_delta_one")


@dataclass(frozen=True)
class EquivalenceReport:
    """The congruence criterion's report; all six conditions share its verdict."""

    r: int
    s: int
    p: int
    triple: StandardnessReport

    @property
    def verdict(self) -> bool:
        return self.triple.verdict

    def conditions(self) -> dict[str, bool]:
        return dict.fromkeys(CONDITIONS, self.verdict)


def equivalence_report(r: int, s: int, p: int) -> EquivalenceReport:
    """Standardness by the three routes of the module docstring, which must agree:
    they are provably equivalent, so a disagreement is an implementation bug and
    raises EquivalenceViolation naming the route that differs."""
    p = check_rsp(r, s, p)
    triple = standard_triple(r, s, p)
    routes = {"delta_route": len(delta_profile(r, s, p).cuts) == r + 1,
              "fast_path": jordan.pi_fast_path(r, s, p).perm.is_identity(),
              "standard_triple": triple.verdict}
    if len(set(routes.values())) != 1:
        raise EquivalenceViolation(r, s, p, routes)
    return EquivalenceReport(r, s, p, triple)
