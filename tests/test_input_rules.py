"""Each input rule has one home: every command answers a bad input with the same
message, and every valid r >= 1 is answered by every group mode."""

import json

import pytest

from normanform.cli import main
from normanform.groupengine import generator_census, group_generators, verify_wreath
from normanform.parith import check_rsp, ensure_prime

QUERIES = ("lambda", "pi", "delta", "standard", "green", "oracle")


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the flags themselves
        code = exc.code
    return code, capsys.readouterr().out


def test_check_rsp_tests_the_prime_first():
    with pytest.raises(ValueError, match="p must be a prime"):
        check_rsp(0, 3, 4)
    with pytest.raises(ValueError, match=r"need 1 <= r <= s, got r=0, s=3$"):
        check_rsp(0, 3, 2)
    with pytest.raises(ValueError, match=r"need 1 <= r <= s, got r=4, s=3$"):
        check_rsp(4, 3, 2)
    p = check_rsp(3, 3, 5)
    assert p == 5 and ensure_prime(p) is p


@pytest.mark.parametrize("p, message", [
    ("2", "need 1 <= r <= s, got r=0, s=3"),
    ("4", "p must be a prime >= 2, got 4"),
])
def test_query_commands_share_one_message(capsys, p, message):
    want = json.dumps({"error": {"code": "invalid-argument", "message": message}},
                      separators=(", ", ": ")) + "\n"
    for command in QUERIES:
        assert run(capsys, command, "--r", "0", "--s", "3", "--p", p) == (2, want), command
    assert run(capsys, "oracle", "--r", "0", "--s", "3", "--p", p,
               "--kind", "nilpotent") == (2, want)


def test_group_modes_share_one_rule_for_r(capsys):
    want = ('{"error": {"code": "invalid-argument", '
            '"message": "r must be a positive integer, got 0"}}\n')
    for mode in ((), ("--verify",), ("--census",), ("--blocks",)):
        assert run(capsys, "group", "--r", "0", "--p", "2", *mode) == (2, want), mode


def test_group_answers_r_one_in_every_mode(capsys):
    assert group_generators(1, 2) == [] and group_generators(1, 7) == []
    assert generator_census(1, 3) == 1
    assert verify_wreath(1, 3) == verify_wreath(1, 3, cap=1)
    assert run(capsys, "group", "--r", "1", "--p", "2", "--census") == (
        0, '{"r": 1, "p": 2, "census": 1}\n')
    assert run(capsys, "group", "--r", "1", "--p", "2", "--blocks") == (
        0, '{"r": 1, "p": 2, "b": 1, "blocks": [[1]]}\n')
    code, out = run(capsys, "group", "--r", "1", "--p", "2")
    assert code == 0 and json.loads(out)["verdict"] is True
    code, out = run(capsys, "group", "--r", "1", "--p", "2", "--cap", "0")
    assert code == 2 and json.loads(out)["error"]["code"] == "usage"


def test_grid_checks_rmax_before_primes(capsys):
    for command in (("table", "--name", "small-s"), ("sweep",)):
        code, out = run(capsys, *command, "--rmax", "0", "--primes", "x")
        assert code == 2, command
        assert json.loads(out)["error"]["message"] == "--rmax must be >= 1, got 0", command


def test_abbreviated_flags_are_rejected(capsys):
    for argv in (("table", "--name", "pi3", "--p", "3", "--primes", "5"),
                 ("table", "--name", "pi3", "--pr", "3"),
                 ("sweep", "--rm", "3"),
                 ("pi", "--r", "3", "--s", "4", "--p", "2", "--js")):
        code, out = run(capsys, *argv)
        assert code == 2 and out == "", argv


def test_a_cap_below_one_is_a_usage_error(capsys, monkeypatch):
    for argv, message in ((("group", "--r", "6", "--p", "3", "--cap", "0"), "--cap must be >= 1, got 0"),
                          (("sweep", "--checks", "wreath", "--cap", "-1"), "--cap must be >= 1, got -1"),
                          (("oracle", "--r", "2", "--s", "2", "--p", "2", "--cap", "0"),
                           "--cap must be >= 1, got 0")):
        code, out = run(capsys, *argv)
        assert (code, json.loads(out)["error"]) == (2, {"code": "usage", "message": message}), argv
    monkeypatch.setenv("NORMAN_CAP", "0")
    code, out = run(capsys, "group", "--r", "6", "--p", "3")
    assert (code, json.loads(out)["error"]) == (
        2, {"code": "usage", "message": "NORMAN_CAP must be >= 1, got 0"})
    code, out = run(capsys, "group", "--r", "6", "--p", "3", "--cap", "6")  # the flag wins
    assert code == 0 and json.loads(out)["verdict"] is True


def test_the_cap_is_read_only_where_a_run_uses_it(capsys, monkeypatch):
    monkeypatch.setenv("NORMAN_CAP", "x")
    assert run(capsys, "sweep", "--checks", "six-way", "--rmax", "2", "--primes", "2") == (
        0, "six-way: 5/5 passed\n")
    for argv in (("group", "--verify", "--r", "4", "--p", "2"),
                 ("group", "--census", "--r", "4", "--p", "2"),
                 ("oracle", "--r", "2", "--s", "2", "--p", "2"),
                 ("sweep", "--checks", "wreath,oracle-equiv", "--rmax", "2", "--primes", "2")):
        code, out = run(capsys, *argv)
        assert (code, json.loads(out)["error"]) == (2, {
            "code": "usage", "message": "NORMAN_CAP must be an integer, got 'x'"}), argv
    monkeypatch.setenv("NORMAN_CAP", "0")
    assert run(capsys, "group", "--blocks", "--r", "4", "--p", "2") == (
        0, '{"r": 4, "p": 2, "b": 4, "blocks": [[1], [2], [3], [4]]}\n')


def test_a_list_of_r_entries_too_large_is_a_resource_cap(capsys):
    # from r = 2 * 10^18 on Python refuses the list size before allocating it
    for r in (2 * 10**18, 10**20):
        for command in ("lambda", "pi", "delta", "standard"):
            code, out = run(capsys, command, "--r", str(r), "--s", str(r), "--p", "3")
            assert (code, json.loads(out)["error"]["code"]) == (2, "resource-cap"), (command, r)
    code, out = run(capsys, "group", "--census", "--r", str(10**20), "--p", "3",
                    "--cap", str(10**20))
    assert (code, json.loads(out)["error"]["code"]) == (2, "resource-cap")
