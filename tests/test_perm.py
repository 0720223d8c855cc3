import random

import pytest
from hypothesis import given, strategies as st

from normanform.perm import (CycleParseError, Permutation, compose, conjugate, embed,
                             format_cycles, identity, parse_cycles, rev, transposition)


def random_perm(rng, r):
    imgs = list(range(1, r + 1))
    rng.shuffle(imgs)
    return Permutation(tuple(imgs))


def test_rev_examples():
    assert format_cycles(rev(1, 5, 5)) == "(1,5)(2,4)"
    assert rev(3, 3, 5) == identity(5)
    assert format_cycles(rev(2, 4, 5)) == "(2,4)"


def test_rev_rejects_bad_bounds():
    with pytest.raises(ValueError):
        rev(3, 2, 5)
    with pytest.raises(ValueError):
        rev(1, 6, 5)


def test_rev_is_involution_up_to_degree_30():
    for r in range(1, 31):
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                f = rev(i, j, r)
                assert compose(f, f) == identity(r)


def test_rev_cycle_decomposition_formula():
    for r in range(1, 16):
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                want = tuple((i + k, j - k) for k in range((j - i - 1) // 2 + 1))
                assert rev(i, j, r).cycles() == want


def test_compose_examples():
    t = transposition(1, 2, 2)
    assert compose(t, t) == identity(2)
    assert compose(rev(1, 4, 4), rev(2, 4, 4)).images == (2, 3, 4, 1)
    f = rev(2, 5, 6)
    assert compose(f, identity(6)) == f


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_compose_is_left_to_right():
    f = rev(1, 4, 4)
    g = rev(2, 4, 4)
    assert compose(f, g)(1) == g(f(1))


def test_conjugate_examples():
    # relabeling of an interval reversal by the full reversal
    assert conjugate(rev(4, 5, 5), rev(1, 5, 5)) == rev(1, 2, 5)
    assert conjugate(identity(6), rev(2, 5, 6)) == identity(6)
    assert conjugate(transposition(1, 2, 4), rev(1, 4, 4)) == transposition(3, 4, 4)


def test_compose_associative_and_conjugate_tower():
    rng = random.Random(11)
    for _ in range(300):
        r = rng.randint(1, 20)
        f, g, h = (random_perm(rng, r) for _ in range(3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        assert conjugate(f, compose(g, h)) == conjugate(conjugate(f, g), h)


def test_inverse_and_involution_flags():
    rng = random.Random(5)
    for _ in range(100):
        r = rng.randint(1, 15)
        f = random_perm(rng, r)
        assert compose(f, f.inverse()) == identity(r)
    assert rev(1, 7, 9).is_involution()
    assert identity(4).is_involution()
    assert not Permutation((2, 3, 1)).is_involution()


def test_format_examples():
    assert format_cycles(identity(5)) == "()"
    assert format_cycles(rev(1, 5, 5)) == "(1,5)(2,4)"
    assert parse_cycles("(1,3)(4,6)", 6).images == (3, 2, 1, 6, 5, 4)


def test_parse_cycles_errors():
    with pytest.raises(CycleParseError):
        parse_cycles("(1,2", 4)
    with pytest.raises(CycleParseError):
        parse_cycles("(1,2)(2,3)", 4)  # repeated point
    with pytest.raises(CycleParseError):
        parse_cycles("(1,5)", 4)  # point above degree
    with pytest.raises(CycleParseError):
        parse_cycles("1,2", 4)
    for text in ("(1,2,)", "(1,)"):  # an empty item after a comma
        with pytest.raises(CycleParseError, match="expected a point"):
            parse_cycles(text, 4)
    err = None
    try:
        parse_cycles("(1,2)(9,3)", 4)
    except CycleParseError as exc:
        err = exc
    assert err is not None and err.position == 6


def test_parse_format_roundtrip_random():
    rng = random.Random(2024)
    for r in range(1, 21):
        for _ in range(1000):
            f = random_perm(rng, r)
            assert parse_cycles(format_cycles(f), r) == f


@given(st.integers(1, 12), st.randoms(use_true_random=False))
def test_parse_format_roundtrip_hypothesis(r, rnd):
    f = random_perm(rnd, r)
    assert parse_cycles(format_cycles(f), r) == f


def test_identity_parse():
    assert parse_cycles("()", 5) == identity(5)
    assert parse_cycles(" ( ) ", 3) == identity(3)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_embed():
    assert embed(transposition(1, 2, 2), 5).images == (2, 1, 3, 4, 5)
    with pytest.raises(ValueError):
        embed(identity(5), 3)
