import dataclasses
import json

import pytest

from normanform import delta, jordan, standardness
from normanform.cli import main
from normanform.jordan import lambda_of
from normanform.parith import is_prime, p_power_at_least
from normanform.standardness import EquivalenceViolation, equivalence_report, standard_triple


def test_row_1_always_standard():
    for p in (2, 3, 7):
        for s in (1, 4, 100):
            rep = standard_triple(1, s, p)
            assert rep.verdict and rep.matched_row == 1


def test_row_2_arithmetic():
    rep = standard_triple(2, 2, 2)
    assert rep.matched_row == 2 and not rep.verdict  # 1 <= 0 fails
    rep = standard_triple(2, 5, 5)
    assert rep.matched_row == 2 and not rep.verdict  # 4 <= 3 fails
    rep = standard_triple(2, 3, 5)
    assert rep.matched_row == 2 and rep.verdict      # 2 <= 3 holds


def test_row_3_mod_four():
    assert standard_triple(3, 6, 2).verdict
    assert standard_triple(3, 6, 2).matched_row == 3
    assert not standard_triple(3, 4, 2).verdict
    assert not standard_triple(3, 5, 2).verdict
    assert not standard_triple(3, 7, 2).verdict


def test_p_two_r_at_least_four_never_standard():
    for r in range(4, 20):
        for s in range(r, r + 10):
            rep = standard_triple(r, s, 2)
            assert rep.matched_row is None and not rep.verdict


def test_row_4_quantities_populated():
    rep = standard_triple(4, 13, 3)  # p odd, r > p: m = 2
    assert rep.matched_row == 4
    assert rep.m == 2
    assert rep.a == 4 % 3 and rep.b == 13 % 3 and rep.h == 1
    assert rep.i == 4 // 3 and rep.j == ((13 - 4 + 1) % 9) // 3
    assert standard_triple(2, 3, 5).a is None


def test_equivalence_examples():
    rep = equivalence_report(3, 6, 2)
    assert all(rep.conditions().values())
    rep = equivalence_report(2, 2, 2)
    assert not any(rep.conditions().values())
    rep = equivalence_report(1, 7, 3)
    assert all(rep.conditions().values())


def test_one_report_answers_all_six_conditions():
    for cell, verdict in (((3, 6, 2), True), ((2, 2, 2), False)):
        for report in (standard_triple(*cell), equivalence_report(*cell)):
            assert isinstance(report, standardness.StandardnessReport)
            assert report.conditions() == dict.fromkeys(standardness.CONDITIONS, verdict)
            assert len(report.conditions()) == 6
        assert equivalence_report(*cell) == standard_triple(*cell)


def test_six_way_sweep_small():
    for p in (2, 3, 5):
        for r in range(1, 16):
            pm = p_power_at_least(r, p)[1]
            for s in range(r, r + pm + 1):
                equivalence_report(r, s, p)  # raises on any disagreement


def _drop_a_cut_point(monkeypatch):
    cuts = delta._cuts
    monkeypatch.setattr(delta, "_cuts", lambda vals: cuts(vals)[:1] + cuts(vals)[2:])


def _staircase_recursion(monkeypatch):
    monkeypatch.setattr(jordan, "_lam", lambda r, s, p: (
        "staircase", dict.fromkeys(range(r + s - 1, s - r, -2), 1)))


def _flipped_criterion(monkeypatch):
    criterion = standardness.standard_triple
    monkeypatch.setattr(standardness, "standard_triple", lambda r, s, p: dataclasses.replace(
        criterion(r, s, p), verdict=not criterion(r, s, p).verdict))


@pytest.mark.parametrize("route, seed, cell", [
    ("delta_route", _drop_a_cut_point, (3, 6, 2)),  # a standard cell loses a cut point
    ("fast_path", _staircase_recursion, (2, 2, 2)),  # a non-standard cell reads the staircase
    ("standard_triple", _flipped_criterion, (2, 2, 2)),
])
def test_a_seeded_wrong_route_is_named(capsys, monkeypatch, route, seed, cell):
    seed(monkeypatch)
    with pytest.raises(EquivalenceViolation, match=f"route {route} differs") as info:
        equivalence_report(*cell)
    assert info.value.route == route
    r, s, p = map(str, cell)
    assert main(["standard", "--r", r, "--s", s, "--p", p, "--json"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "verification-failure" and f"route {route} differs" in error["message"]
    assert main(["sweep", "--checks", "six-way", "--rmax", "3", "--primes", "2"]) == 1
    first_failure = capsys.readouterr().out.split("first failure", 1)[1]
    assert f"standardness route {route} differs" in first_failure


def test_large_characteristic_always_standard():
    primes = [p for p in range(2, 62) if is_prime(p)]
    for p in primes:
        for r in range(2, p + 1):
            for s in range(r, p + 2 - r + 1):
                if p >= r + s - 1:
                    assert standard_triple(r, s, p).verdict, (r, s, p)
                    assert lambda_of(r, s, p).parts == tuple(
                        r + s + 1 - 2 * n for n in range(1, r + 1)), (r, s, p)


def test_row_two_congruence_reformulation():
    # (s-r+1) mod p <= p+2-2r  <=>  (s-r) mod p <= p+1-2r or (s-r) mod p = p-1
    for p in (3, 5, 7, 11, 13):
        for r in range(2, (p + 1) // 2 + 1):
            for s in range(r, r + 3 * p):
                left = (s - r + 1) % p <= p + 2 - 2 * r
                right = ((s - r) % p <= p + 1 - 2 * r) or ((s - r) % p == p - 1)
                assert left == right, (r, s, p)
