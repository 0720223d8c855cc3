"""Permutations of {1, ..., r} in one-line form, with reversals and cycle notation.

Composition is left-to-right throughout: n^(f*g) = (n^f)^g, matching the
exponent action used everywhere else in this package.
"""

from __future__ import annotations

from dataclasses import dataclass


class CycleParseError(ValueError):
    """Malformed cycle-notation text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Permutation:
    """A bijection of [r] = {1, ..., r}; images[n-1] is the image of n."""

    images: tuple[int, ...]

    def __post_init__(self):
        r = len(self.images)
        if sorted(self.images) != list(range(1, r + 1)):
            raise ValueError(f"images {self.images!r} are not a bijection of [{r}]")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, n: int) -> int:
        """Image n^pi of a point n in [r]."""
        if not 1 <= n <= self.degree:
            raise ValueError(f"point {n} outside [1, {self.degree}]")
        return self.images[n - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for n, m in enumerate(self.images, start=1):
            inv[m - 1] = n
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(m == n for n, m in enumerate(self.images, start=1))

    def is_involution(self) -> bool:
        """Identity or order 2."""
        return all(self.images[m - 1] == n for n, m in enumerate(self.images, start=1))

    def support(self) -> tuple[int, ...]:
        """Moved points, ascending."""
        return tuple(n for n, m in enumerate(self.images, start=1) if m != n)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its least point, sorted by least point."""
        seen = [False] * (self.degree + 1)
        out = []
        for start, n in enumerate(self.images, start=1):
            if seen[start] or n == start:
                continue
            cyc = [start]
            while n != start:
                seen[n] = True
                cyc.append(n)
                n = self.images[n - 1]
            out.append(tuple(cyc))
        return tuple(out)

    def __str__(self) -> str:
        return format_cycles(self)


def identity(r: int) -> Permutation:
    if r < 1:
        raise ValueError(f"degree must be >= 1, got {r!r}")
    return Permutation(tuple(range(1, r + 1)))


def rev(i: int, j: int, r: int) -> Permutation:
    """The reversal sending (i, i+1, ..., j) to (j, j-1, ..., i), fixing the rest.

    Identity when i == j.
    """
    if not 1 <= i <= j <= r:
        raise ValueError(f"need 1 <= i <= j <= r, got i={i}, j={j}, r={r}")
    images = list(range(1, r + 1))
    for n in range(i, j + 1):
        images[n - 1] = i + j - n
    return Permutation(tuple(images))


def transposition(i: int, j: int, r: int) -> Permutation:
    """The transposition (i, j) in degree r."""
    if not (1 <= i <= r and 1 <= j <= r and i != j):
        raise ValueError(f"need distinct points in [1, {r}], got {i}, {j}")
    images = list(range(1, r + 1))
    images[i - 1], images[j - 1] = j, i
    return Permutation(tuple(images))


def compose(f: Permutation, g: Permutation) -> Permutation:
    """Left-to-right product: n^(f*g) = (n^f)^g."""
    if f.degree != g.degree:
        raise ValueError(f"degree mismatch: {f.degree} vs {g.degree}")
    return Permutation(tuple(g.images[m - 1] for m in f.images))


def conjugate(f: Permutation, g: Permutation) -> Permutation:
    """g^-1 * f * g; relabels the points of f by g."""
    return compose(compose(g.inverse(), f), g)


def embed(f: Permutation, r: int) -> Permutation:
    """View f in a larger degree r, fixing the new points."""
    if r < f.degree:
        raise ValueError(f"cannot embed degree {f.degree} into degree {r}")
    return Permutation(f.images + tuple(range(f.degree + 1, r + 1)))


def format_cycles(f: Permutation) -> str:
    """Canonical cycle text: cycles by least point, 1-cycles omitted, identity '()'."""
    cycs = f.cycles()
    if not cycs:
        return "()"
    return "".join("(" + ",".join(map(str, cyc)) + ")" for cyc in cycs)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle text like '(1,5)(2,4)' into a permutation of [degree]."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree!r}")
    images = list(range(1, degree + 1))
    used: set[int] = set()
    pos = 0
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    pos = skip_ws(pos)
    if pos == n:
        raise CycleParseError("empty input", pos)
    while pos < n:
        if text[pos] != "(":
            raise CycleParseError(f"expected '(' but found {text[pos]!r}", pos)
        pos = skip_ws(pos + 1)
        cycle: list[int] = []
        while pos < n and text[pos] != ")":
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos == start:
                raise CycleParseError(f"expected a point but found {text[pos]!r}", pos)
            point = int(text[start:pos])
            if not 1 <= point <= degree:
                raise CycleParseError(f"point {point} outside [1, {degree}]", start)
            if point in used:
                raise CycleParseError(f"repeated point {point}", start)
            used.add(point)
            cycle.append(point)
            pos = skip_ws(pos)
            if pos < n and text[pos] == ",":
                pos = skip_ws(pos + 1)
                if pos < n and text[pos] == ")":
                    raise CycleParseError("expected a point but found ')'", pos)
            elif pos < n and text[pos] != ")":
                raise CycleParseError(f"expected ',' or ')' but found {text[pos]!r}", pos)
        if pos == n:
            raise CycleParseError("unterminated cycle", pos)
        pos = skip_ws(pos + 1)
        for a, b in zip(cycle, cycle[1:]):
            images[a - 1] = b
        if len(cycle) > 1:
            images[cycle[-1] - 1] = cycle[0]
    return Permutation(tuple(images))
