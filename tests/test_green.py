import pytest

from normanform.green import GreenIdentityViolation, check_green_identities, decompose
from normanform.oracle import oracle_lambda


def test_decompose_examples():
    assert decompose(2, 3, 3).summands == ((3, 2),)
    assert decompose(3, 4, 3).summands == ((6, 1), (3, 2))
    assert decompose(4, 6, 3).summands == ((9, 1), (6, 2), (3, 1))


def test_dimension_conservation():
    for p in (2, 3, 5):
        for r in range(1, 13):
            for s in range(r, 13):
                assert decompose(r, s, p).total == r * s


def test_decompose_matches_oracle_multiset():
    for p in (2, 3):
        for r in range(1, 11):
            for s in range(r, 11):
                got = decompose(r, s, p).as_dict()
                want = {}
                for v in oracle_lambda(r, s, p).parts:
                    want[v] = want.get(v, 0) + 1
                assert got == want


def test_check_identities_small_primes():
    for p in (2, 3, 5):
        report = check_green_identities(p, e_max=2)
        assert report.checked > 4
        names = {name for name, _, _ in report.instances}
        assert {"unit", "adjacent", "p-part-step", "above-period"} <= names


def test_identities_reach_b_near_10_to_the_18():
    for p, e_max in ((2, 59), (3, 37), (5, 25), (7, 21)):
        report = check_green_identities(p, e_max)
        assert max(params[0] for _, params, _ in report.instances) == p**e_max > 2 * 10**17


def test_explicit_identity_instances():
    # V_6 (x) V_13 = V_18 + 2 V_15 + V_12 + 2 V_9 over GF(3)
    assert decompose(6, 13, 3).summands == ((18, 1), (15, 2), (12, 1), (9, 2))
    # V_1 (x) V_1 = V_1
    assert decompose(1, 1, 3).summands == ((1, 1),)
    # V_5 (x) V_12 = V_16 + 3 V_12 + V_8 over GF(2): p-part of 12 is 4
    assert decompose(5, 12, 2).summands == ((16, 1), (12, 3), (8, 1))


def test_identity_violation_failure_path(monkeypatch):
    import normanform.green as green_mod

    monkeypatch.setattr(green_mod, "_lam", lambda r, s, p: ("staircase", {r * s: 1}))
    with pytest.raises(GreenIdentityViolation):
        check_green_identities(3, e_max=1)


def test_e_max_validation():
    with pytest.raises(ValueError):
        check_green_identities(3, e_max=0)
