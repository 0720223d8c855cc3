from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from normanform.corr import (DeviationError, NotReversalProduct, SubsetProfile,
                             _reversal_cycles, eps_to_perm, eps_to_subset, perm_to_eps,
                             perm_to_subset, reversal_cuts, subset_to_eps, subset_to_perm,
                             validate_eps)
from normanform.delta import delta_profile
from normanform.jordan import pi_of
from normanform.perm import Permutation, format_cycles, identity


def all_subsets(r):
    for k in range(r):
        for members in combinations(range(1, r), k):
            yield SubsetProfile(r, members)


def test_validate_eps_examples():
    assert validate_eps((0, 0, 0)).entries == (0, 0, 0)
    assert validate_eps((2, 0, -2)).entries == (2, 0, -2)
    with pytest.raises(DeviationError) as info:
        validate_eps((1, 0, -1))
    assert info.value.kind == "forbidden-gap"
    assert info.value.indices == (1, 2)


def _first_violation_by_pair_scan(entries):
    """(kind, indices, message) of the first violation, with the full O(r^2) pair scan."""
    r = len(entries)
    for n in range(1, r):
        if entries[n - 1] < entries[n]:
            return ("not-weakly-decreasing", (n, n + 1),
                    f"eps_{n} = {entries[n - 1]} < eps_{n + 1} = {entries[n]}")
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            if entries[i - 1] - entries[j - 1] == j - i:
                return ("forbidden-gap", (i, j),
                        f"eps_{i} - eps_{j} = {j - i} = j - i at (i, j) = ({i}, {j})")
    for n in range(1, r + 1):
        if not (1 - n <= entries[n - 1] <= r - n):
            return ("out-of-range", (n,),
                    f"eps_{n} = {entries[n - 1]} outside [{1 - n}, {r - n}]")
    return None


@given(st.lists(st.integers(-12, 12), min_size=1, max_size=14), st.booleans())
def test_validate_eps_matches_pair_scan(entries, descending):
    if descending:
        entries.sort(reverse=True)
    expected = _first_violation_by_pair_scan(entries)
    if expected is None:
        assert validate_eps(entries).entries == tuple(entries)
        return
    with pytest.raises(DeviationError) as info:
        validate_eps(entries)
    assert (info.value.kind, info.value.indices, str(info.value)) == expected


def test_validate_eps_error_kinds():
    with pytest.raises(DeviationError) as info:
        validate_eps((0, 1))
    assert info.value.kind == "not-weakly-decreasing"
    with pytest.raises(DeviationError) as info:
        validate_eps((3, 3, 3))  # eps_1 = 3 > r - 1 = 2
    assert info.value.kind == "out-of-range"
    assert info.value.indices == (1,)


def test_subset_profile_validation():
    with pytest.raises(ValueError):
        SubsetProfile(4, (3, 2))
    with pytest.raises(ValueError):
        SubsetProfile(4, (4,))
    assert SubsetProfile(4, (2,)).cuts() == (0, 2, 4)


def test_subset_to_perm_examples():
    assert format_cycles(subset_to_perm(SubsetProfile(3, ()))) == "(1,3)"
    for r in range(1, 8):
        assert subset_to_perm(SubsetProfile(r, tuple(range(1, r)))) == identity(r)
    assert format_cycles(subset_to_perm(SubsetProfile(4, (2,)))) == "(1,2)(3,4)"


def test_subset_to_eps_examples():
    assert subset_to_eps(SubsetProfile(4, (2,))).entries == (2, 2, -2, -2)
    assert subset_to_eps(SubsetProfile(3, (1, 2))).entries == (2, 0, -2)
    assert subset_to_eps(SubsetProfile(3, ())).entries == (0, 0, 0)


def test_eps_to_perm_examples():
    assert format_cycles(eps_to_perm(validate_eps((0, 0, 0)))) == "(1,3)"
    assert eps_to_perm(validate_eps((2, 0, -2))) == identity(3)
    assert format_cycles(eps_to_perm(validate_eps((2, 2, -2, -2)))) == "(1,2)(3,4)"


def test_perm_to_eps_examples():
    assert perm_to_eps(identity(3)).entries == (2, 0, -2)
    assert perm_to_eps(Permutation((3, 2, 1))).entries == (0, 0, 0)
    with pytest.raises(NotReversalProduct):
        perm_to_eps(Permutation((2, 3, 1)))  # a 3-cycle is not a reversal product


def test_eps_to_subset_examples():
    assert eps_to_subset(validate_eps((0, 0, 0))).members == ()
    assert eps_to_subset(validate_eps((2, 0, -2))).members == (1, 2)
    assert eps_to_subset(validate_eps((2, 2, -2, -2))).members == (2,)


def test_triangle_identity_all_subsets():
    for r in range(1, 13):
        seen = set()
        for T in all_subsets(r):
            eps = subset_to_eps(T)
            pi = subset_to_perm(T)
            assert eps_to_subset(eps) == T
            assert eps_to_perm(eps) == pi
            assert perm_to_eps(pi) == eps
            assert perm_to_subset(pi) == T
            assert (pi * pi).is_identity()
            assert pi.is_identity() == (T.members == tuple(range(1, r)))
            seen.add(pi)
        assert len(seen) == 2 ** (r - 1)


def test_identity_deviation_characterisation():
    for r in range(1, 13):
        eps = validate_eps(tuple(r + 1 - 2 * n for n in range(1, r + 1)))
        assert eps_to_perm(eps).is_identity()


def test_block_values_step_at_least_two():
    for r in range(2, 11):
        for T in all_subsets(r):
            eps = subset_to_eps(T).entries
            cuts = T.cuts()
            values = [eps[lo] for lo in cuts[:-1]]
            for a, b in zip(values, values[1:]):
                assert a >= b + 2


def test_reversal_cuts():
    assert reversal_cuts(identity(4)) == (0, 1, 2, 3, 4)
    assert reversal_cuts(Permutation((3, 2, 1))) == (0, 3)
    assert reversal_cuts(subset_to_perm(SubsetProfile(5, (2, 3)))) == (0, 2, 3, 5)
    with pytest.raises(NotReversalProduct):
        reversal_cuts(Permutation((2, 3, 4, 1)))


def test_reversal_cycles_match_the_cycle_walk():
    # the cycle text written from the cut points against the walk of pi's cycles,
    # on every r <= 30, r <= s <= 60, p <= 11, and on every subset of [r-1], r <= 8
    cells = 0
    for p in (2, 3, 5, 7, 11):
        for r in range(1, 31):
            for s in range(r, 61):
                cuts = delta_profile(r, s, p).cuts
                assert _reversal_cycles(cuts) == format_cycles(pi_of(r, s, p)), (r, s, p)
                cells += 1
    assert cells == 6825
    for r in range(1, 9):
        for T in all_subsets(r):
            assert _reversal_cycles(T.cuts()) == format_cycles(subset_to_perm(T)), T
