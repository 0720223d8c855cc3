import json
import time
from pathlib import Path

import pytest

from normanform import parith, standardness
from normanform import jordan, perm
from normanform.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_pi_text(capsys):
    code, out = run(capsys, "pi", "--r", "3", "--s", "4", "--p", "2")
    assert code == 0 and out.strip() == "(1,3)"


def test_lambda_json(capsys):
    code, payload = run_json(capsys, "lambda", "--r", "2", "--s", "3", "--p", "3", "--json")
    assert code == 0
    assert payload["lambda"] == [3, 3]
    assert payload["pi"] == "(1,2)"
    assert payload["epsilon"] == [0, 0]
    assert payload["method"] == "delta-route"
    assert payload["swapped"] is False


def test_query_bytes_on_swapped_input(capsys):
    assert run(capsys, "lambda", "--r", "7", "--s", "3", "--p", "5", "--json") == (
        0, '{"r": 3, "s": 7, "p": 5, "lambda": [9, 7, 5], "pi": "()", "epsilon": [2, 0, -2], '
           '"method": "delta-route", "swapped": true}\n')
    assert run(capsys, "lambda", "--r", "9", "--s", "5", "--p", "2") == (0, "13 8 8 8 8\n")
    assert run(capsys, "pi", "--r", "9", "--s", "5", "--p", "2") == (0, "(2,5)(3,4)\n")
    assert run(capsys, "pi", "--r", "9", "--s", "5", "--p", "2", "--json") == (
        0, '{"r": 5, "s": 9, "p": 2, "lambda": [13, 8, 8, 8, 8], "pi": "(2,5)(3,4)", '
           '"epsilon": [4, -1, -1, -1, -1], "method": "delta-route", "swapped": true}\n')


def test_pi_at_19_digit_prime(capsys):
    start = time.perf_counter()
    assert run(capsys, "pi", "--r", "3", "--s", "4", "--p", "1000000000000000003") == (0, "()\n")
    assert time.perf_counter() - start < 1.0


def test_long_queries_answer_within_a_second(capsys):
    for argv in (("pi", "--r", "2000", "--s", "5000", "--p", "3"),
                 ("lambda", "--r", "1000", "--s", "1000000000007", "--p", "5")):
        start = time.perf_counter()
        code, out = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 0 and out.endswith("\n")


def test_standard_evaluates_the_criterion_once(capsys, monkeypatch):
    calls = []
    criterion = standardness.standard_triple

    def counted(*args):
        calls.append(args)
        return criterion(*args)

    monkeypatch.setattr(standardness, "standard_triple", counted)
    assert run(capsys, "standard", "--r", "3", "--s", "6", "--p", "2") == (
        0, "standard=true row=3\n")
    assert calls == [(3, 6, 2)]


def test_swap_metadata(capsys):
    code, payload = run_json(capsys, "lambda", "--r", "3", "--s", "2", "--p", "3", "--json")
    assert code == 0
    assert payload["r"] == 2 and payload["s"] == 3
    assert payload["swapped"] is True


def test_standard_json(capsys):
    code, payload = run_json(capsys, "standard", "--r", "3", "--s", "6", "--p", "2", "--json")
    assert code == 0
    assert payload["verdict"] is True and payload["matched_row"] == 3
    assert set(payload["conditions"]) == {
        "standard_partition", "identity_permutation", "standard_triple",
        "all_left_gaps_one", "all_right_gaps_zero", "all_delta_one"}
    assert all(payload["conditions"].values())


def test_standard_text(capsys):
    code, out = run(capsys, "standard", "--r", "2", "--s", "2", "--p", "2")
    assert code == 0 and out.strip() == "standard=false row=2"


def test_delta_schema(capsys):
    code, payload = run_json(capsys, "delta", "--r", "2", "--s", "2", "--p", "2")
    assert code == 0
    assert payload == {"r": 2, "s": 2, "p": 2, "delta": [1, 0, 1], "L": [1, 2], "R": [1, 0]}


def test_oracle_cli(capsys):
    code, payload = run_json(capsys, "oracle", "--r", "3", "--s", "4", "--p", "2")
    assert code == 0 and payload["partition"] == [4, 4, 4]
    code, payload = run_json(capsys, "oracle", "--r", "2", "--s", "2", "--p", "2",
                             "--kind", "nilpotent")
    assert code == 0 and payload["partition"] == [2, 1, 1]


def test_oracle_cap_exit_code(capsys):
    code, payload = run_json(capsys, "oracle", "--r", "40", "--s", "40", "--p", "2",
                             "--cap", "100")
    assert code == 2 and payload["error"]["code"] == "resource-cap"


def test_oracle_modulus_overflow_exit_code(capsys):
    # (p-1)^2 exceeds int64 at p = 10^10+19, whatever the dimension
    code, payload = run_json(capsys, "oracle", "--r", "3", "--s", "4", "--p", "10000000019")
    assert code == 2 and payload["error"]["code"] == "invalid-argument"


def test_oracle_nilpotent_answers_past_the_int64_bound(capsys):
    # the int64 bound guards the unipotent elimination; the nilpotent oracle eliminates nothing
    code, payload = run_json(capsys, "oracle", "--kind", "nilpotent", "--r", "1", "--s", "1",
                             "--p", "3037000507")
    assert code == 0 and payload["partition"] == [1]


def test_oracle_answers_at_large_prime(capsys):
    # (p-1)^2 < 2^63 at p = 10^9+7, so the oracle answers at every dimension within its cap
    code, payload = run_json(capsys, "oracle", "--r", "3", "--s", "4", "--p", "1000000007")
    assert code == 0
    _, query = run_json(capsys, "lambda", "--r", "3", "--s", "4", "--p", "1000000007", "--json")
    assert payload["partition"] == query["lambda"] == [6, 4, 2]


def test_norman_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("NORMAN_CAP", "10")
    code, payload = run_json(capsys, "oracle", "--r", "4", "--s", "4", "--p", "2")
    assert code == 2 and payload["error"]["code"] == "resource-cap"
    monkeypatch.setenv("NORMAN_CAP", "junk")
    code, payload = run_json(capsys, "oracle", "--r", "2", "--s", "2", "--p", "2")
    assert code == 2 and payload["error"]["code"] == "usage"


def test_green_cli(capsys):
    code, payload = run_json(capsys, "green", "--r", "4", "--s", "6", "--p", "3")
    assert code == 0
    assert payload["summands"] == [{"dim": 9, "mult": 1}, {"dim": 6, "mult": 2},
                                   {"dim": 3, "mult": 1}]


def test_green_cli_at_r_10_to_the_18(capsys):
    r, s = 10**18, 10**18 + 1
    code, payload = run_json(capsys, "green", "--r", str(r), "--s", str(s), "--p", "2")
    assert code == 0
    assert sum(row["dim"] * row["mult"] for row in payload["summands"]) == r * s


def test_group_cli(capsys):
    code, payload = run_json(capsys, "group", "--r", "6", "--p", "3", "--verify")
    assert code == 0 and payload["verdict"] is True and payload["order"] == 48
    code, payload = run_json(capsys, "group", "--r", "3", "--p", "2", "--census")
    assert code == 0 and payload["census"] == 4
    code, payload = run_json(capsys, "group", "--r", "6", "--p", "3", "--blocks")
    assert code == 0 and payload["blocks"] == [[1, 4], [2, 5], [3, 6]]


def test_group_and_pi3_answer_at_a_ten_digit_prime(capsys):
    """One period at p = 10^9 + 7 is read at its window-lemma cells, not p cells."""
    code, out = run(capsys, "group", "--census", "--r", "64", "--p", "1000000007")
    assert code == 0 and '"census": 126' in out
    code, out = run(capsys, "table", "--name", "pi3", "--primes", "1000000007")
    assert code == 0 and [line.split()[-1] for line in out.splitlines()[2:]] == ["ok"] * 4


def test_group_census_honours_the_cap(capsys, monkeypatch):
    start = time.perf_counter()
    code, payload = run_json(capsys, "group", "--census", "--r", "8000", "--p", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and payload["error"] == {"code": "resource-cap",
                                              "message": "degree 8000 exceeds cap 64"}
    code, payload = run_json(capsys, "group", "--census", "--r", "65", "--p", "2",
                             "--cap", "65")
    assert code == 0 and payload["census"] > 1
    monkeypatch.setenv("NORMAN_CAP", "5")
    code, payload = run_json(capsys, "group", "--census", "--r", "6", "--p", "3")
    assert code == 2 and payload["error"]["message"] == "degree 6 exceeds cap 5"


def test_corr_cli_three_inputs(capsys):
    code, a = run_json(capsys, "corr", "--r", "4", "--t", "2")
    code2, b = run_json(capsys, "corr", "--eps", "2,2,-2,-2")
    code3, c = run_json(capsys, "corr", "--r", "4", "--pi", "(1,2)(3,4)")
    assert code == code2 == code3 == 0
    assert a == b == c
    assert a["pi"] == "(1,2)(3,4)" and a["subset"] == [2]


def test_corr_usage_errors(capsys):
    code, payload = run_json(capsys, "corr", "--r", "4")
    assert code == 2 and payload["error"]["code"] == "usage"
    code, payload = run_json(capsys, "corr", "--eps", "1,0,-1")
    assert code == 2 and payload["error"]["code"] == "invalid-argument"
    code, payload = run_json(capsys, "corr", "--r", "2", "--pi", "(1,2,)")
    assert code == 2 and payload["error"]["code"] == "invalid-argument"


def test_corr_r_must_match_the_eps_length(capsys):
    code, payload = run_json(capsys, "corr", "--eps", "0", "--r", "5")
    assert code == 2 and payload["error"] == {
        "code": "usage", "message": "--r 5 differs from the length 1 of --eps"}
    code, payload = run_json(capsys, "corr", "--eps", "2,2,-2,-2", "--r", "4")
    assert code == 0 and payload["r"] == 4 and payload["subset"] == [2]


def test_empty_list_items_are_usage_errors(capsys):
    for argv in (("corr", "--eps", "1,,0"), ("corr", "--eps", ""), ("corr", "--eps", "2,-2,"),
                 ("corr", "--r", "4", "--t", "1,,3"),
                 ("table", "--name", "pi3", "--primes", ""),
                 ("sweep", "--checks", "involution", "--rmax", "2", "--primes", "2,,3")):
        code, payload = run_json(capsys, *argv)
        assert code == 2 and payload["error"]["code"] == "usage", argv
        assert "comma-separated integer list" in payload["error"]["message"], argv
    # an empty --t is still the empty subset
    code, payload = run_json(capsys, "corr", "--r", "3", "--t", "")
    assert code == 0 and payload["subset"] == [] and payload["pi"] == "(1,3)"


def test_a_repeated_prime_runs_once(capsys):
    assert run(capsys, "sweep", "--checks", "involution", "--rmax", "2",
               "--primes", "2,2") == (0, "involution: 3/3 passed\n")
    once = run(capsys, "table", "--name", "small-s", "--primes", "2", "--rmax", "3")
    assert run(capsys, "table", "--name", "small-s", "--primes", "2,2", "--rmax", "3") == once
    code, out = run(capsys, "sweep", "--checks", "involution", "--rmax", "1",
                    "--primes", "3,2,3", "--format", "csv")
    assert code == 0 and [line.split(",")[2] for line in out.splitlines()[1:]] == ["2", "3"]


def test_invalid_argument_exit(capsys):
    code, payload = run_json(capsys, "pi", "--r", "3", "--s", "4", "--p", "4")
    assert code == 2 and payload["error"]["code"] == "invalid-argument"
    # beyond the range where primality is decided exactly
    code, payload = run_json(capsys, "pi", "--r", "3", "--s", "4",
                             "--p", "3317044064679887385961981")
    assert code == 2 and payload["error"]["code"] == "invalid-argument"


def test_table_pi3(capsys):
    code, out = run(capsys, "table", "--name", "pi3", "--primes", "2,3")
    assert code == 0
    assert "(1,3)" in out and "(2,3)" in out and "(1,2)" in out
    assert "FAIL" not in out


def test_table_small_s(capsys):
    code, out = run(capsys, "table", "--name", "small-s", "--primes", "2", "--rmax", "10")
    assert code == 0 and "FAIL" not in out


def test_table_rows_fail_on_a_wrong_closed_form(capsys, monkeypatch):
    classes = jordan.pi3_classes
    monkeypatch.setattr(jordan, "pi3_classes", lambda p: [
        (label, residues, (0, 1, 2, 3) if label == "0" else cuts)
        for label, residues, cuts in classes(p)])
    code, out = run(capsys, "table", "--name", "pi3", "--primes", "5")
    assert code == 1 and out.splitlines()[2].split() == ["0", "(1,3)", "FAIL"]
    monkeypatch.setitem(jordan.SMALL_RESIDUES, 1, jordan.SmallResidueForm(
        "Rev(2,r)", 2, lambda r, p: (0, 1, r) if r % 2 else (0, r)))
    code, out = run(capsys, "table", "--name", "small-s", "--primes", "3", "--rmax", "6")
    assert code == 1 and out.splitlines()[3].split()[-1] == "FAIL(r=2,4,6)"


def test_every_printed_pi_is_written_from_cut_points(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("the cycle walk was called")

    monkeypatch.setattr(perm.Permutation, "cycles", refuse)
    assert run(capsys, "table", "--name", "pi3", "--primes", "2,3,5,7") == (
        0, (GOLDEN / "table_pi3_p2357.txt").read_text())
    assert run_json(capsys, "corr", "--t", "1", "--r", "4") == (
        0, {"r": 4, "subset": [1], "epsilon": [3, -1, -1, -1], "pi": "(2,4)"})
    assert run_json(capsys, "corr", "--pi", "(1,2)", "--r", "3") == (
        0, {"r": 3, "subset": [2], "epsilon": [1, 1, -2], "pi": "(1,2)"})
    assert run(capsys, "pi", "--r", "4", "--s", "6", "--p", "3") == (0, "(2,3)\n")
    assert run_json(capsys, "pi", "--r", "4", "--s", "6", "--p", "3", "--json")[1]["pi"] == "(2,3)"


def test_table_small_s_empty_range_is_vacuous(capsys):
    # residue 3 starts at r = 4, so rmax = 3 leaves it no r to check
    code, out = run(capsys, "table", "--name", "small-s", "--primes", "3", "--rmax", "3")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [(row[0], row[-2], row[-1]) for row in rows] == [
        ("0", "1..3", "ok"), ("1", "2..3", "ok"), ("2", "3..3", "ok"), ("3", "()", "vacuous")]


def test_sweep_rejects_smax_below_one(capsys):
    for smax in ("0", "-5", "x"):
        code, payload = run_json(capsys, "sweep", "--checks", "fast-path", "--rmax", "3",
                                 "--smax", smax)
        assert code == 2 and payload["error"]["code"] == "usage", smax
    code, out = run(capsys, "sweep", "--checks", "fast-path", "--rmax", "1", "--smax", "1",
                    "--primes", "2")
    assert code == 0 and out == "fast-path: 1/1 passed\n"


def test_sweep_fast_path_answers_every_cell(capsys):
    code, out = run(capsys, "sweep", "--checks", "fast-path", "--rmax", "12", "--smax",
                    "period", "--primes", "2,3,5,7,11,13", "--format", "csv")
    assert code == 0
    details = {line.split(",")[5] for line in out.splitlines()[1:]}
    assert details == {"staircase", "period", "mirror", "digits"}


def test_sweep_csv(capsys):
    code, out = run(capsys, "sweep", "--checks", "involution,bijection-roundtrip",
                    "--rmax", "5", "--primes", "2,3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,s,p,check,status,detail"
    assert all(",fail," not in line for line in lines[1:])
    # fixed column order and sorted rows make the artifact diffable
    assert lines[1].startswith("1,")


def test_sweep_table_format(capsys):
    code, out = run(capsys, "sweep", "--checks", "oracle-equiv", "--rmax", "4",
                    "--primes", "2", "--format", "table")
    assert code == 0 and "oracle-equiv" in out and "passed" in out


def test_sweep_six_way_period(capsys):
    code, out = run(capsys, "sweep", "--checks", "six-way", "--rmax", "6",
                    "--primes", "2,3", "--format", "table")
    assert code == 0


def test_sweep_smax_period_applies_to_every_check(capsys):
    code, out = run(capsys, "sweep", "--checks", "involution,six-way", "--rmax", "2",
                    "--primes", "3", "--smax", "period", "--format", "csv")
    assert code == 0
    cells: dict[str, list[tuple[str, str]]] = {}
    for line in out.splitlines()[1:]:
        r, s, _, check, _, _ = line.split(",")
        cells.setdefault(check, []).append((r, s))
    # one full period s = r..r+p^m: p^m = 1 for r = 1 and 3 for r = 2
    period = [("1", "1"), ("1", "2"), ("2", "2"), ("2", "3"), ("2", "4"), ("2", "5")]
    assert cells == {"involution": period, "six-way": period}


def test_sweep_all_checks_golden(capsys):
    code, out = run(capsys, "sweep", "--checks",
                    "oracle-equiv,involution,fast-path,six-way,bijection-roundtrip,wreath",
                    "--rmax", "8", "--smax", "20", "--primes", "2,3", "--format", "csv")
    assert code == 0
    assert out.encode() == (GOLDEN / "sweep_all_r8_s20_p23.csv").read_bytes()


def test_sweep_wreath_golden(capsys):
    code, out = run(capsys, "sweep", "--checks", "wreath", "--rmax", "24",
                    "--primes", "2,3,5,7,11", "--format", "csv")
    assert code == 0
    assert out.encode() == (GOLDEN / "sweep_wreath_r24.csv").read_bytes()


def test_group_verify_golden_at_prime_power_degrees(capsys):
    out = b""
    for r, p in ((32, 2), (64, 2), (27, 3), (25, 5), (49, 7)):
        code, text = run(capsys, "group", "--r", str(r), "--p", str(p), "--verify")
        assert code == 0
        out += text.encode()
    assert out == (GOLDEN / "group_verify_prime_powers.jsonl").read_bytes()


def test_sweep_unknown_check(capsys):
    code, payload = run_json(capsys, "sweep", "--checks", "nonsense")
    assert code == 2 and payload["error"]["code"] == "usage"


def test_empty_ranges_and_lists_are_usage_errors(capsys):
    for argv in (("table", "--name", "small-s", "--rmax", "0"),
                 ("table", "--name", "small-s", "--rmax", "-3"),
                 ("table", "--name", "pi3", "--primes", ","),
                 ("sweep", "--rmax", "0"),
                 ("sweep", "--primes", ",")):
        code, payload = run_json(capsys, *argv)
        assert code == 2 and payload["error"]["code"] == "usage", argv


def test_each_invocation_tests_each_prime_once(capsys, monkeypatch):
    calls = []
    is_prime = parith.is_prime
    monkeypatch.setattr(parith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    for argv, primes in (
            (("group", "--r", "24", "--p", "2"), [2]),
            (("sweep", "--checks",
              "oracle-equiv,involution,fast-path,six-way,bijection-roundtrip,wreath",
              "--rmax", "8", "--smax", "20", "--primes", "2,3", "--format", "csv"), [2, 3]),
            (("table", "--name", "small-s", "--primes", "2,3,5", "--rmax", "25"), [2, 3, 5])):
        calls.clear()
        code, _ = run(capsys, *argv)
        assert code == 0 and calls == primes, argv


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["delta", "--r", "2", "--s", "2", "--p", "2", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["delta"] == [1, 0, 1]


def test_byte_identical_reruns(capsys):
    a = run(capsys, "lambda", "--r", "6", "--s", "11", "--p", "3", "--json")
    b = run(capsys, "lambda", "--r", "6", "--s", "11", "--p", "3", "--json")
    assert a == b


def check_jsonl_golden(capsys, name):
    """Rerun the argv of each line of a jsonl golden: exit code and stdout must match.
    An argparse rejection exits 2 with nothing on stdout."""
    golden = (GOLDEN / name).read_text().splitlines()
    got = []
    for line in golden:
        argv = json.loads(line)["argv"]
        try:
            code, text = run(capsys, *argv)
        except SystemExit as exc:
            code, text = exc.code, capsys.readouterr().out
        got.append(json.dumps({"argv": argv, "exit": code, "stdout": text}))
    assert got == golden


def test_oracle_cli_golden(capsys):
    # tests/golden/oracle_cli.jsonl holds one line per invocation, recorded from
    # the dense Kronecker oracle: r <= s <= 8 at p in {2, 3} for both kinds, a
    # swapped pair, the cap rejections and the int64 rejection of the unipotent kind
    check_jsonl_golden(capsys, "oracle_cli.jsonl")


def test_cell_cli_golden(capsys):
    # tests/golden/cell_cli.jsonl: lambda, pi, standard, delta, oracle and green, plain,
    # --json and swapped, with bad p, r = 0 and flags a command lacks; oracle --kind and
    # --cap; every group mode with its errors; and corr from each of its three inputs
    check_jsonl_golden(capsys, "cell_cli.jsonl")


def test_group_golden_below_the_period(capsys):
    # tests/golden/group_below_period.jsonl: group --verify and --census at
    # (64, 61) and (40, 37), where p < r <= p^m and most cells of the period
    # take the cut points of their class mod p^(m-1)
    check_jsonl_golden(capsys, "group_below_period.jsonl")


def test_sweep_reports_a_check_with_no_cells(capsys):
    # wreath starts at r = 2, so --rmax 1 gives it no cells
    grid = ("--rmax", "1", "--primes", "2")
    assert run(capsys, "sweep", "--checks", "wreath", *grid) == (0, "wreath: 0/0 passed\n")
    assert run(capsys, "sweep", "--checks", "wreath,six-way", *grid) == (
        0, "six-way: 2/2 passed\nwreath: 0/0 passed\n")
    code, payload = run_json(capsys, "sweep", "--checks", "six-way,wreath", *grid,
                             "--format", "json")
    assert code == 0 and list(payload["summary"]) == ["six-way", "wreath"]
    assert payload["summary"]["wreath"] == {"cells": 0, "passed": 0, "first_failure": None}
    assert {row["check"] for row in payload["rows"]} == {"six-way"}
    assert run(capsys, "sweep", "--checks", "wreath", *grid, "--format", "csv") == (
        0, "r,s,p,check,status,detail\n")


def test_text_queries_skip_jordan_result(capsys, monkeypatch):
    from normanform import jordan

    def refuse(*args):
        raise AssertionError("jordan_result was called")

    monkeypatch.setattr(jordan, "jordan_result", refuse)
    assert run(capsys, "lambda", "--r", "9", "--s", "5", "--p", "2") == (0, "13 8 8 8 8\n")
    assert run(capsys, "pi", "--r", "5", "--s", "9", "--p", "2") == (0, "(2,5)(3,4)\n")
    with pytest.raises(AssertionError, match="jordan_result"):
        main(["pi", "--r", "5", "--s", "9", "--p", "2", "--json"])


def test_sweep_runs_a_repeated_check_once(capsys):
    grid = ("--rmax", "3", "--primes", "2")
    assert run(capsys, "sweep", "--checks", "involution,involution", *grid) == (
        0, "involution: 6/6 passed\n")
    for fmt in ("csv", "json"):
        once = run(capsys, "sweep", "--checks", "involution,fast-path", *grid, "--format", fmt)
        repeated = run(capsys, "sweep", "--checks", "involution,fast-path,involution,fast-path",
                       *grid, "--format", fmt)
        assert repeated == once, fmt


def test_unwritable_out_is_a_usage_error_on_stdout(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    for argv in (("delta", "--r", "2", "--s", "2", "--p", "2"),
                 ("pi", "--r", "3", "--s", "4", "--p", "2"),
                 ("table", "--name", "pi3", "--primes", "2"),
                 ("sweep", "--checks", "involution", "--rmax", "2")):
        code, payload = run_json(capsys, *argv, "--out", str(target))
        assert code == 2 and payload["error"]["code"] == "usage", argv
        assert str(target) in payload["error"]["message"], argv
    assert not target.parent.exists()
