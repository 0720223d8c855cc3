"""The four workloads: seeded inputs, the timed operation, and its record.

A workload's round is the list `inputs(seed)` returns; every run attempts
whole rounds of it. `run` is the timed part and calls the program only;
`record` turns its result into plain tuples for the checker in checks.py,
outside the timed region. The program's functions are looked up through
their modules on every call, so a traced run sees the wrapped ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from normanform import green, groupengine, jordan, oracle, standardness

import checks

# The 19-digit prime of the baseline table. Trial division in
# parith.is_prime cannot finish for it, so its cells run under the 1 s
# per-input deadline and are expected to fail until that fault is mended.
HUGE_PRIME = 10**18 + 3
HUGE_PRIME_CELLS = ((3, 4, HUGE_PRIME), (12, 20, HUGE_PRIME))
DEADLINE_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], list]
    warmup: tuple
    run: Callable
    record: Callable
    check: Callable[[list], list]
    known_fault: Callable[[tuple], bool] = lambda inp: False

    def deadline(self, inp) -> Optional[float]:
        return DEADLINE_S if self.known_fault(inp) else None


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _rotation(rng: random.Random, values, count: int) -> list:
    """`count` values cycling through `values` from a seeded offset, so each
    value is dealt evenly across the list whatever the seed."""
    offset = rng.randrange(len(values))
    return [values[(i + offset) % len(values)] for i in range(count)]


def _images(perm):
    return None if perm is None else perm.images


# -- point-queries ---------------------------------------------------------------


def _point_inputs(seed: int) -> list:
    """100 triples: r stratified over 60..160, s uniform up to 10^12, p cycling
    through {2,3,5,7} along the strata."""
    rng = _rng("point-queries", seed)
    count = 100
    primes = _rotation(rng, (2, 3, 5, 7), count)
    out = []
    for i in range(count):
        r = 60 + int((i + rng.random()) * 101 / count)
        out.append((r, rng.randint(r, 10**12), primes[i]))
    rng.shuffle(out)
    return out


def _point_run(inp):
    r, s, p = inp
    return (jordan.jordan_result(r, s, p), jordan.pi_fast_path(r, s, p),
            standardness.standard_triple(r, s, p))


def _point_record(inp, raw):
    jr, fast, std = raw
    return (*inp, jr.lam.parts, jr.pi.images, jr.epsilon.entries,
            _images(fast and fast.perm), std.verdict)


# -- period-sweep ----------------------------------------------------------------

# Digits of the large primes by r: their trial division runs inside every
# binomial valuation, so larger r gets smaller primes to bound a cell's cost.
_LARGE_PRIME_DIGITS = {1: 10, 2: 10, 3: 10, 4: 9, 5: 9, 6: 9,
                       7: 8, 8: 8, 9: 8, 10: 7, 11: 7, 12: 7}


def _sweep_inputs(seed: int) -> list:
    """Per (r, p) with r <= 24 and p <= 11: twenty cells of one period
    r <= s <= r + p^m (both ends, residues 0 and 1, a seeded residue in each
    eighth of the period and the eight duals); four cells per r <= 12 at a
    7- to 10-digit prime; and the 19-digit-prime cells."""
    rng = _rng("period-sweep", seed)
    out = []
    for p in (2, 3, 5, 7, 11):
        for r in range(1, 25):
            q = checks.period(r, p)
            # one seeded residue in each eighth of the period, and its dual
            cuts = [q * k // 8 for k in range(9)]
            seeded = [lo + rng.randrange(max(1, hi - lo)) for lo, hi in zip(cuts, cuts[1:])]
            residues = (0, 1 % q, *seeded, *(-sigma % q for sigma in seeded))
            out += [(r, r, p), (r, r + q, p)]
            out += [(r, r + (sigma - r) % q, p) for sigma in residues]
    for r, digits in _LARGE_PRIME_DIGITS.items():
        low = 10 ** (digits - 1)
        p = checks.next_prime(low + rng.randrange(low // 20))
        for s in (rng.randrange(r, 3 * r + 1), rng.randrange(r, 3 * r + 1)):
            out += [(r, s, p), (r, p - s, p)]
    out += HUGE_PRIME_CELLS
    rng.shuffle(out)
    return out


def _sweep_run(inp):
    r, s, p = inp
    return (standardness.equivalence_report(r, s, p), jordan.pi_fast_path(r, s, p),
            jordan.jordan_result(r, s, p), green.decompose(r, s, p))


def _sweep_record(inp, raw):
    report, fast, jr, dec = raw
    return (*inp, jr.lam.parts, jr.pi.images, _images(fast and fast.perm),
            report.verdict, dec.summands)


# -- oracle-crosscheck -------------------------------------------------------------

ORACLE_S_MAX = 21
NILPOTENT_S_MAX = 12
NILPOTENT_PRIMES = (2, 3, 5)


def _oracle_inputs(seed: int) -> list:
    """Every pair r <= s <= 21 at one prime of {2,3,5,7}, and every pair
    r <= s <= 12 as a nilpotent cell; primes are dealt evenly by the seed."""
    rng = _rng("oracle-crosscheck", seed)
    pairs = [(r, s) for s in range(1, ORACLE_S_MAX + 1) for r in range(1, s + 1)]
    primes = _rotation(rng, (2, 3, 5, 7), len(pairs))
    out = [("lambda", r, s, p) for (r, s), p in zip(pairs, primes)]
    pairs = [(r, s) for s in range(1, NILPOTENT_S_MAX + 1) for r in range(1, s + 1)]
    primes = _rotation(rng, NILPOTENT_PRIMES, len(pairs))
    out += [("nilpotent", r, s, p) for (r, s), p in zip(pairs, primes)]
    rng.shuffle(out)
    return out


def _oracle_run(inp):
    kind, r, s, p = inp
    if kind == "lambda":
        return oracle.oracle_lambda(r, s, p), jordan.lambda_of(r, s, p)
    return ({q: oracle.oracle_nilpotent(r, s, q) for q in NILPOTENT_PRIMES},
            oracle.nilpotent_mu(r, s, p))


def _oracle_record(inp, raw):
    first, second = raw
    if inp[0] == "lambda":
        return (*inp, first.parts, second.parts)
    return (*inp, {q: part.parts for q, part in first.items()}, second.parts)


# -- wreath-groups ---------------------------------------------------------------

WREATH_R_MAX = 14
WREATH_PRIME_POWERS = ((32, 2), (64, 2), (27, 3), (25, 5), (49, 7))


def _wreath_inputs(seed: int) -> list:
    """2 <= r <= 14 for p in {2,3,5,7,11} and five prime-power degrees; the set
    is fixed and the seed orders it. r stops at 14 so that a run holds about
    six rounds. Operation costs rise geometrically through the set, so p50 and
    p90 each rest on the few operations near them, and on a noisy 2-core VM
    they only hold steady when every operation is timed several times: with
    one round of r <= 20, p90 swung by 22% between runs, and with three
    rounds of r <= 16, p50 by 20%."""
    out = [(r, p) for p in (2, 3, 5, 7, 11) for r in range(2, WREATH_R_MAX + 1)]
    out += WREATH_PRIME_POWERS
    _rng("wreath-groups", seed).shuffle(out)
    return out


def _wreath_run(inp):
    return groupengine.verify_wreath(*inp)


def _wreath_record(inp, raw):
    return (*inp, raw.order, raw.verdict)


WORKLOADS = {w.name: w for w in (
    Workload("point-queries", _point_inputs, (60, 10**12 - 11, 5), _point_run, _point_record,
             checks.check_point_queries),
    Workload("period-sweep", _sweep_inputs, (12, 20, 5), _sweep_run, _sweep_record,
             checks.check_period_sweep, lambda inp: inp[2] == HUGE_PRIME),
    Workload("oracle-crosscheck", _oracle_inputs, ("lambda", 12, 12, 3), _oracle_run,
             _oracle_record, checks.check_oracle_crosscheck),
    Workload("wreath-groups", _wreath_inputs, (6, 3), _wreath_run, _wreath_record,
             checks.check_wreath_groups),
)}
