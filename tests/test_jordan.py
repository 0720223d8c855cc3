import random
import sys
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from normanform import corr, delta, green, groupengine, oracle, parith, standardness
from normanform.corr import (DeviationVector, reversal_cuts, subset_to_eps, subset_to_perm,
                             SubsetProfile)
from normanform.jordan import (Partition, _lam, deviation, jordan_result, lambda_of,
                               pi3_value, pi_fast_path, pi_of)
from normanform.parith import p_parts, p_power_at_least
from normanform.perm import Permutation, compose, conjugate, format_cycles, identity, rev


def test_partition_type():
    part = Partition((4, 4, 1))
    assert part.size == 9 and len(part) == 3
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_lambda_examples():
    assert lambda_of(2, 2, 5).parts == (3, 1)
    assert lambda_of(2, 3, 3).parts == (3, 3)
    assert lambda_of(3, 3, 2).parts == (4, 4, 1)
    assert lambda_of(4, 5, 7).parts == (7, 7, 4, 2)


def test_lambda_rejects_r_above_s():
    with pytest.raises(ValueError):
        lambda_of(3, 2, 5)


def test_pi_examples():
    assert format_cycles(pi_of(3, 4, 2)) == "(1,3)"
    assert format_cycles(pi_of(2, 2, 2)) == "(1,2)"
    assert pi_of(3, 6, 2) == identity(3)


def test_deviation_examples():
    assert deviation(2, 2, 5).entries == (1, -1)
    assert deviation(3, 4, 2).entries == (0, 0, 0)
    assert deviation(3, 3, 2).entries == (1, 1, -2)


def test_standard_partition_when_p_large():
    for r in range(1, 9):
        for s in range(r, 9):
            p = 17 if 17 >= r + s - 1 else 31
            assert lambda_of(r, s, p).parts == tuple(r + s + 1 - 2 * n for n in range(1, r + 1))


def test_jordan_result_consistency():
    for (r, s, p) in [(2, 2, 2), (3, 5, 3), (5, 12, 3), (6, 11, 3), (8, 20, 2)]:
        res = jordan_result(r, s, p)
        assert res.lam.size == r * s and len(res.lam) == r
        assert (res.pi * res.pi).is_identity()
        for n in range(1, r + 1):
            assert res.pi(n) == (r + 1 - n) + s - res.lam.parts[n - 1]
        assert res.epsilon.entries == tuple(v - s for v in res.lam.parts)
        assert res.method == "delta-route"


def test_small_r_table_values():
    # pi(3, s, p): residues 0, 1, -1 of s mod p^e (e = 2 for p = 2, else 1)
    assert format_cycles(pi_of(3, 4, 2)) == "(1,3)"
    assert format_cycles(pi_of(3, 5, 2)) == "(2,3)"
    assert format_cycles(pi_of(3, 3, 2)) == "(1,2)"
    assert pi_of(3, 6, 2) == identity(3)
    assert format_cycles(pi_of(3, 6, 3)) == "(1,3)"
    assert format_cycles(pi_of(3, 7, 3)) == "(2,3)"
    assert format_cycles(pi_of(3, 5, 3)) == "(1,2)"  # 5 = -1 mod 3: never trivial for p = 3
    assert format_cycles(pi_of(3, 10, 5)) == "(1,3)"
    assert pi_of(3, 12, 5) == identity(3)


def test_known_closed_values():
    assert format_cycles(pi_of(6, 9, 3)) == "(1,6)(2,5)(3,4)"
    assert format_cycles(pi_of(5, 12, 3)) == "(1,2)(4,5)"
    assert format_cycles(pi_of(6, 12, 3)) == "(1,3)(4,6)"
    assert format_cycles(pi_of(6, 11, 3)) == "(1,2)(3,6)(4,5)"


def test_fast_path_examples():
    hit = pi_fast_path(6, 9, 3)
    assert hit is not None and hit.perm == rev(1, 6, 6)
    hit = pi_fast_path(5, 12, 3)
    assert hit is not None and format_cycles(hit.perm) == "(1,2)(4,5)"
    hit = pi_fast_path(6, 12, 3)
    assert hit is not None and format_cycles(hit.perm) == "(1,3)(4,6)"
    hit = pi_fast_path(6, 11, 3)
    assert hit is not None and format_cycles(hit.perm) == "(1,2)(3,6)(4,5)"


def test_fast_path_agrees_with_delta_route():
    # every cell of one period r <= s <= r + p^m, plus two more, answers
    for p in (2, 3, 5, 7, 11, 13):
        for r in range(1, 41):
            pm = p_power_at_least(r, p)[1]
            for s in range(r, r + pm + 3):
                hit = pi_fast_path(r, s, p)
                assert hit.perm == pi_of(r, s, p), (r, s, p, hit.rule)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200), st.integers(0, 10**12),
       st.sampled_from((2, 3, 5, 7, 11, 13, 1000003, 10**9 + 7)))
def test_fast_path_matches_pi_of_random(r, ds, p):
    s = min(r + ds, 10**12)
    assert pi_fast_path(r, s, p).perm == pi_of(r, s, p), (r, s, p)


def test_runs_give_the_cut_points_of_the_delta_route():
    # largest part first, the multiplicities of the runs are the interval lengths
    cells = [(r, s, p) for p in (2, 3, 5, 7, 11, 13) for r in range(1, 31) for s in range(r, 31)]
    rng = random.Random(27)
    for _ in range(200):
        r = rng.randint(1, 10**4)
        cells.append((r, rng.randint(r, 10**18), rng.choice((2, 3, 5, 7, 101, 10**9 + 7))))
    for r, s, p in cells:
        runs = _lam(r, s, p)[1]
        assert all(k > 0 for k in runs.values()), (r, s, p)
        parts = sorted(runs, reverse=True)
        cuts = (0, *accumulate(runs[part] for part in parts))
        assert cuts == delta.delta_profile(r, s, p).cuts, (r, s, p)
        lam = lambda_of(r, s, p).parts
        assert [lam[t] for t in cuts[:-1]] == parts, (r, s, p)


def test_fast_path_rules_name_the_top_step():
    assert pi_fast_path(3, 4, 7).rule == "staircase"
    assert pi_fast_path(1, 10**12, 2).rule == "staircase"
    assert pi_fast_path(5, 12, 3).rule == "period"
    assert pi_fast_path(6, 8, 3).rule == "mirror"
    assert pi_fast_path(4, 5, 3).rule == "digits"


def test_fast_path_never_calls_the_delta_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("the fast path called the delta route")

    # every module that bound delta_profile by name, delta itself included
    original = delta.delta_profile
    expected = {(r, s, p): pi_of(r, s, p)
                for p in (2, 3, 5, 7) for r in range(1, 13) for s in range(r, 30)}
    for module in list(sys.modules.values()):
        if getattr(module, "delta_profile", None) is original:
            monkeypatch.setattr(module, "delta_profile", refuse)
    with pytest.raises(AssertionError):
        pi_of(3, 4, 2)
    for (r, s, p), pi in expected.items():
        assert pi_fast_path(r, s, p).perm == pi, (r, s, p)


def test_interval_maps_have_one_home(monkeypatch):
    def refuse(*args):
        raise AssertionError("an interval map of corr was called")

    monkeypatch.setattr(corr, "_reversal_images", refuse)
    monkeypatch.setattr(corr, "_deviation_entries", refuse)
    T = SubsetProfile(5, (2,))
    for call in (lambda: pi_of(5, 12, 3), lambda: lambda_of(5, 12, 3),
                 lambda: deviation(5, 12, 3), lambda: jordan_result(5, 12, 3),
                 lambda: groupengine.group_generators(5, 3),
                 lambda: subset_to_perm(T), lambda: subset_to_eps(T)):
        with pytest.raises(AssertionError, match="interval map"):
            call()
    # the fast path stays independent of corr
    assert format_cycles(pi_fast_path(5, 12, 3).perm) == "(1,2)(4,5)"


def test_pi3_value_matches_the_delta_route():
    # the table pi3 golden stops at p = 7
    for p in (2, 3, 5, 7, 11, 13):
        q = p_power_at_least(3, p)[1]
        for s in range(3, 3 + 3 * q):
            assert pi3_value(s, p) == pi_of(3, s, p), (s, p)


def test_periodicity():
    for p in (2, 3, 5, 7):
        for r in range(1, 21):
            pm = p_power_at_least(r, p)[1]
            for s in range(r, 21):
                assert pi_of(r, s, p) == pi_of(r, s + pm, p)
                assert pi_of(r, s, p) == pi_of(r, s + 2 * pm, p)


def test_duality():
    for p in (2, 3, 5, 7):
        for r in range(1, 21):
            pm = p_power_at_least(r, p)[1]
            for s in range(r, 21):
                sp = (-s) % pm
                while sp < r:
                    sp += pm
                assert pi_of(r, sp, p) == conjugate(pi_of(r, s, p), rev(1, r, r))


def test_p_power_scaling_keeps_fixed_points():
    # the factorization carries cut points, so 1-cycles scale to full reversals
    cuts = reversal_cuts(pi_of(3, 5, 3))
    assert cuts == (0, 2, 3)  # includes the fixed interval [3, 3]
    assert pi_of(9, 15, 3) == compose(rev(1, 6, 9), rev(7, 9, 9))


def test_p_power_scaling_sweep():
    for p in (2, 3, 5):
        for ell in (1, 2):
            q = p**ell
            for r in range(1, 11):
                for s in range(r, 11):
                    if q * q * r * s > 4096:
                        continue
                    cuts = reversal_cuts(pi_of(r, s, p))
                    assert reversal_cuts(pi_of(q * r, q * s, p)) == tuple(q * t for t in cuts)


def test_congruence_for_p_power_divisors():
    for p in (2, 3, 5):
        for r in range(1, 25):
            b = p_parts(r, p).b
            if b == 1:
                continue
            for s in range(r, r + 12):
                pi = pi_of(r, s, p)
                for n in range(1, r + 1):
                    assert (pi(n) - (s + 1 - n)) % b == 0


def test_pi_equals_reversal_product_of_descents():
    for p in (2, 3):
        for r in range(1, 15):
            for s in range(r, 15):
                res = jordan_result(r, s, p)
                T = SubsetProfile(r, res.profile.cuts[1:-1])
                assert subset_to_perm(T) == res.pi
                assert res.epsilon == subset_to_eps(T)
                L, R = res.profile.L, res.profile.R
                assert res.lam.parts == tuple(r + s - 2 * n + L[n - 1] - R[n - 1]
                                              for n in range(1, r + 1))


def test_each_query_tests_primality_once(monkeypatch):
    calls = []
    is_prime = parith.is_prime
    monkeypatch.setattr(parith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    for query in (jordan_result, lambda_of, pi_of, deviation, green.decompose, pi_fast_path,
                  standardness.standard_triple, standardness.equivalence_report):
        for r, s, p in ((12, 20, 10**18 + 3), (24, 40, 2), (9, 30, 3), (27, 31, 3)):
            calls.clear()
            query(r, s, p)
            assert calls == [p], (query.__name__, r, s, p)


def _revalidated(value):
    """value rebuilt through its class's checking constructor, which raises on an
    invalid value; equal to value, and hashing equal, or the test fails."""
    checked = type(value)(*vars(value).values())
    assert checked == value and hash(checked) == hash(value), value
    return checked


def test_delta_route_values_pass_the_validating_constructors():
    # the delta route builds Partition, Permutation and DeviationVector unchecked;
    # this is the evidence that they would pass the checks they skip
    cells = [(r, s, p) for p in (2, 3, 5, 7, 11, 13) for r in range(1, 31) for s in range(r, 31)]
    cells += [(r, 10**12 + d, p) for r in (1, 2, 17, 60, 160) for d in (-1, 0, 1, 12345)
              for p in (2, 3, 7, 10**9 + 7)]
    for r, s, p in cells:
        res = jordan_result(r, s, p)
        for value, again in ((res.lam, lambda_of(r, s, p)), (res.pi, pi_of(r, s, p)),
                             (res.epsilon, deviation(r, s, p))):
            assert _revalidated(value) == again and hash(value) == hash(again), (r, s, p)
        assert len(res.lam) == r and res.lam.size == r * s, (r, s, p)
        corr.validate_eps(res.epsilon.entries)
    for r in range(2, 25):
        for p in (2, 3, 5, 7, 11, 13):
            for g in groupengine.group_generators(r, p):
                _revalidated(g)


def test_only_the_delta_route_skips_the_checks(monkeypatch):
    counts = {cls: 0 for cls in (Partition, Permutation, DeviationVector)}
    for cls in counts:
        check = cls.__post_init__

        def counted(self, cls=cls, check=check):
            counts[cls] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    r, s, p = 12, 10**12 + 5, 3
    jordan_result(r, s, p), lambda_of(r, s, p), pi_of(r, s, p), deviation(r, s, p)
    groupengine.group_generators(r, p)
    assert set(counts.values()) == {0}
    # the independent routes still validate what they return; the equivalence
    # report checks only the fast path's permutation
    standardness.equivalence_report(r, s, p)
    assert counts == {Partition: 0, Permutation: 1, DeviationVector: 0}
    pi_fast_path(r, s, p)
    assert counts[Permutation] == 2
    oracle.oracle_lambda(6, 9, 3)
    assert counts[Partition] == 1
