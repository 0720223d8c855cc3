"""Standardness of (r, s, p): the flat partition lambda_n = r+s+1-2n, the
congruence criterion on the triple, and the six-way equivalence check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import corr, jordan
from .delta import delta_profile
from .parith import check_rsp, p_power_at_least


class EquivalenceViolation(RuntimeError):
    """The six provably-equivalent standardness conditions disagreed (an implementation bug)."""

    def __init__(self, r: int, s: int, p: int, conditions: dict[str, bool]):
        true_ones = sorted(k for k, v in conditions.items() if v)
        false_ones = sorted(k for k, v in conditions.items() if not v)
        super().__init__(
            f"standardness conditions disagree at (r,s,p)=({r},{s},{p}): "
            f"true={true_ones}, false={false_ones}")
        self.conditions = conditions


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


def standard_partition(lam: jordan.Partition, r: int, s: int) -> bool:
    """True iff lambda_n = r + s + 1 - 2n for every n."""
    if len(lam) != r:
        raise ValueError(f"partition has {len(lam)} parts, expected r={r}")
    return all(part == r + s + 1 - 2 * n for n, part in enumerate(lam.parts, start=1))


@dataclass(frozen=True)
class EquivalenceReport:
    """The six standardness conditions as ordered (name, value) pairs, and the
    congruence-criterion report behind the standard_triple one."""

    r: int
    s: int
    p: int
    pairs: tuple[tuple[str, bool], ...]
    triple: StandardnessReport

    def conditions(self) -> dict[str, bool]:
        return dict(self.pairs)

    @property
    def verdict(self) -> bool:
        return self.conditions()["standard_partition"]


def equivalence_report(r: int, s: int, p: int) -> EquivalenceReport:
    """Evaluate all six conditions and insist they agree.

    lambda, pi and the gaps come from one delta profile; the congruence
    criterion does not use it. Disagreement raises EquivalenceViolation naming
    the differing conditions; the six are provably equivalent, so a violation
    is an implementation bug.
    """
    p = check_rsp(r, s, p)
    prof = delta_profile(r, s, p)
    triple = standard_triple(r, s, p)
    lam = jordan._lam_at(s, corr._deviation_entries(prof.cuts))
    report = EquivalenceReport(r, s, p, (
        ("standard_partition", standard_partition(lam, r, s)),
        ("identity_permutation", jordan._pi_at(prof.cuts).is_identity()),
        ("standard_triple", triple.verdict),
        ("all_left_gaps_one", all(v == 1 for v in prof.L)),
        ("all_right_gaps_zero", all(v == 0 for v in prof.R)),
        ("all_delta_one", all(prof.delta)),
    ), triple)
    if len({value for _, value in report.pairs}) != 1:
        raise EquivalenceViolation(r, s, p, report.conditions())
    return report
