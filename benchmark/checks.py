"""Reference computations and result checkers for the benchmark.

Nothing here imports normanform. The Jordan partition is recomputed from
Legendre's formula (base-p digit sums), reversal products are recognised by
a scan of this file's own, and wreath orders come from a factorisation done
here. Each checker takes plain tuples, as the workloads record them, and
returns a list of error strings; an empty list means the results passed.
"""

from __future__ import annotations

from math import factorial

# -- number theory -------------------------------------------------------------


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases; exact below 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, e = n - 1, 0
    while d % 2 == 0:
        d //= 2
        e += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(e - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Least prime >= n."""
    while not is_probable_prime(n):
        n += 1
    return n


def period(r: int, p: int) -> int:
    """Least power q = p^m with q >= r."""
    q = 1
    while q < r:
        q *= p
    return q


def split_p_part(r: int, p: int) -> tuple[int, int]:
    """(a, b) with r = a * b, b a power of p and p not dividing a."""
    b = 1
    while r % (b * p) == 0:
        b *= p
    return r // b, b


def wreath_order(a: int, b: int) -> int:
    """|S_a wr D_b| = (a!)^b * |D_b|, with |D_1| = 1, |D_2| = 2 and |D_b| = 2b above."""
    return factorial(a) ** b * (2 * b if b >= 3 else b)


# -- Legendre route to lambda(r, s, p) ----------------------------------------


def _digit_sum_prefix(x: int, p: int) -> int:
    """Sum of the base-p digit sums of 0, 1, ..., x - 1."""
    total = 0
    w = 1
    half = p * (p - 1) // 2
    while w < x:
        hi, rem = divmod(x, w * p)
        d, low = divmod(rem, w)
        total += hi * w * half + w * d * (d - 1) // 2 + d * low
        w *= p
    return total


def _legendre_sum(x: int, p: int) -> int:
    """F(x) = sum_{k<x} v_p(k!), using v_p(k!) = (k - S_p(k)) / (p - 1)."""
    return (x * (x - 1) // 2 - _digit_sum_prefix(x, p)) // (p - 1)


def dn_valuation(r: int, s: int, p: int, n: int) -> int:
    """v_p(D_n(r, s)) from seven values of F."""
    def F(x):
        return _legendre_sum(x, p)
    return (F(s + r - n) - F(s + r - 2 * n) - F(r) + F(r - n)
            - F(s) + F(s - n) + F(n))


def reference_lambda(r: int, s: int, p: int) -> tuple[int, ...]:
    """lambda_n = r + s - 2n + L(n) - R(n) from the delta bits of D_1 .. D_{r-1}."""
    delta = [1] + [int(dn_valuation(r, s, p, n) == 0) for n in range(1, r)] + [1]
    parts = []
    for n in range(1, r + 1):
        left = next(d for d in range(1, n + 1) if delta[n - d])
        right = next(d for d in range(0, r - n + 1) if delta[n + d])
        parts.append(r + s - 2 * n + left - right)
    return tuple(parts)


def staircase(r: int, s: int) -> tuple[int, ...]:
    return tuple(r + s + 1 - 2 * n for n in range(1, r + 1))


# -- permutations as image tuples ----------------------------------------------


def rev(i: int, j: int, r: int) -> tuple[int, ...]:
    """Images of the reversal of [i, j] in degree r; the identity when i >= j."""
    return tuple(i + j - n if i <= n <= j else n for n in range(1, r + 1))


def conjugate_by(f: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, ...]:
    """w^-1 f w for an involution w, as images: n -> w(f(w(n)))."""
    return tuple(w[f[w[n] - 1] - 1] for n in range(len(f)))


def is_involution(f: tuple[int, ...]) -> bool:
    return all(f[m - 1] == n for n, m in enumerate(f, start=1))


def is_reversal_product(f: tuple[int, ...]) -> bool:
    """True iff f reverses each interval of some cover of [r] by consecutive intervals."""
    n = 1
    while n <= len(f):
        j = f[n - 1]
        if j < n or any(f[m - 1] != n + j - m for m in range(n, j + 1)):
            return False
        n = j + 1
    return True


def multiplicities(parts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(part, count) pairs, parts descending."""
    return tuple((v, parts.count(v)) for v in sorted(set(parts), reverse=True))


# -- per-workload checkers -------------------------------------------------------


def _lambda_pi_errors(r, s, p, lam, pi) -> list[str]:
    """Properties every (lambda, pi) pair must have, and the Legendre reference."""
    where = f"(r,s,p)=({r},{s},{p})"
    errors = []
    if len(lam) != r or sum(lam) != r * s:
        errors.append(f"{where}: lambda {lam} is not a partition of rs into r parts")
    want = reference_lambda(r, s, p)
    if lam != want:
        errors.append(f"{where}: lambda {lam} != Legendre reference {want}")
    if len(pi) != r or any(pi[n - 1] != r + 1 - n + s - lam[n - 1] for n in range(1, r + 1)):
        errors.append(f"{where}: pi {pi} does not satisfy pi(n) = r+1-n+s-lambda_n")
    if not is_involution(pi):
        errors.append(f"{where}: pi {pi} is not an involution")
    if not is_reversal_product(pi):
        errors.append(f"{where}: pi {pi} is not a product of interval reversals")
    return errors


def check_point_queries(records) -> list[str]:
    """records: (r, s, p, lam, pi, eps, fast_pi or None, standard verdict)."""
    errors = []
    for r, s, p, lam, pi, eps, fast, standard in records:
        errors += _lambda_pi_errors(r, s, p, lam, pi)
        if eps != tuple(part - s for part in lam):
            errors.append(f"({r},{s},{p}): epsilon {eps} != lambda - s")
        if fast is not None and fast != pi:
            errors.append(f"({r},{s},{p}): fast path {fast} != pi {pi}")
        if standard != (lam == staircase(r, s)):
            errors.append(f"({r},{s},{p}): standard_triple says {standard}, lambda {lam}")
    return errors


def check_period_sweep(records) -> list[str]:
    """records: (r, s, p, lam, pi, fast_pi or None, equivalence verdict, summands)."""
    errors = []
    by_residue: dict[tuple[int, int, int], tuple[int, ...]] = {}
    for r, s, p, lam, pi, fast, verdict, summands in records:
        where = f"(r,s,p)=({r},{s},{p})"
        errors += _lambda_pi_errors(r, s, p, lam, pi)
        if fast is not None and fast != pi:
            errors.append(f"{where}: fast path {fast} != pi {pi}")
        if verdict != (lam == staircase(r, s)):
            errors.append(f"{where}: equivalence verdict {verdict}, lambda {lam}")
        if summands != multiplicities(lam):
            errors.append(f"{where}: decompose {summands} != multiplicities of {lam}")
        if p >= r + s - 1 and lam != staircase(r, s):
            errors.append(f"{where}: p >= r+s-1 but lambda {lam} is not the staircase")
        q = period(r, p)
        if s % q == 0 and pi != rev(1, r, r):
            errors.append(f"{where}: s = 0 mod {q} but pi {pi} != Rev(1,r)")
        if q > 1 and s % q == 1 and pi != rev(2, r, r):
            errors.append(f"{where}: s = 1 mod {q} but pi {pi} != Rev(2,r)")
        key = (r, p, s % q)
        if by_residue.setdefault(key, pi) != pi:
            errors.append(f"{where}: pi {pi} differs from pi at s + k*{q} ({by_residue[key]})")
    for (r, p, sigma), pi in by_residue.items():
        dual = by_residue.get((r, p, -sigma % period(r, p)))
        if dual is not None and dual != conjugate_by(pi, rev(1, r, r)):
            errors.append(f"(r,p)=({r},{p}): pi at residue {sigma} and its dual {dual} "
                          "are not conjugate by Rev(1,r)")
    return errors


def check_oracle_crosscheck(records) -> list[str]:
    """records: ("lambda", r, s, p, oracle_parts, delta_parts) or
    ("nilpotent", r, s, p_mu, {p: parts}, mu)."""
    errors = []
    for kind, r, s, p, a, b in records:
        where = f"{kind} (r,s,p)=({r},{s},{p})"
        if kind == "lambda":
            if a != b:
                errors.append(f"{where}: oracle {a} != delta route {b}")
            want = reference_lambda(r, s, p)
            if a != want:
                errors.append(f"{where}: oracle {a} != Legendre reference {want}")
            if len(a) != r or sum(a) != r * s:
                errors.append(f"{where}: {a} is not a partition of rs into r parts")
            continue
        fields = list(a.values())
        if any(parts != fields[0] for parts in fields):
            errors.append(f"{where}: nilpotent parts depend on the field: {a}")
        mu = b
        paired = tuple(sorted((r,) * (s - r + 1) + mu + mu, reverse=True))
        if a[p] != paired:
            errors.append(f"{where}: parts {a[p]} != (s-r+1) x [r] plus mu {mu} twice")
        if sum(mu) != r * (r - 1) // 2:
            errors.append(f"{where}: |mu| = {sum(mu)} != r(r-1)/2")
        if mu != tuple(range(r - 1, 0, -1)):
            errors.append(f"{where}: mu {mu} != (r-1, ..., 1), the characteristic-free type")
    return errors


ANCHORS = {(4, 2): 8, (6, 2): 72, (6, 3): 48, (12, 2): 10368}


def check_wreath_groups(records) -> list[str]:
    """records: (r, p, order, verdict)."""
    errors = []
    for r, p, order, verdict in records:
        a, b = split_p_part(r, p)
        want = wreath_order(a, b)
        if order != want:
            errors.append(f"(r,p)=({r},{p}): order {order} != (a!)^b |D_b| = {want}")
        if not verdict:
            errors.append(f"(r,p)=({r},{p}): verify_wreath verdict is false")
        if ANCHORS.get((r, p), order) != order:
            errors.append(f"(r,p)=({r},{p}): order {order} != anchor {ANCHORS[(r, p)]}")
    return errors
