"""Command-line surface: single queries, table reproduction, and sweep harness.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All numeric output is exact; payloads carry no timestamps, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

from . import corr as corr_mod
from . import green as green_mod
from . import groupengine as ge
from . import jordan, oracle, standardness
from .delta import _period_cells, delta_profile
from .parith import ensure_prime, p_parts, p_power_at_least
from .perm import parse_cycles


class UsageError(ValueError):
    """Bad flags or bad input values; rendered with exit code 2."""


def _cap(args) -> dict:
    """The cap override, {} or {"cap": n} from --cap or else the NORMAN_CAP
    environment variable, n >= 1; without one the library's defaults apply."""
    env = os.environ.get("NORMAN_CAP")
    try:
        source, cap = "NORMAN_CAP", None if env is None else int(env)
    except ValueError as exc:
        raise UsageError(f"NORMAN_CAP must be an integer, got {env!r}") from exc
    if getattr(args, "cap", None) is not None:
        source, cap = "--cap", args.cap
    if cap is not None and cap < 1:
        raise UsageError(f"{source} must be >= 1, got {cap}")
    return {} if cap is None else {"cap": cap}


def _emit(args, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return
        except OSError as exc:
            args.out = None  # the usage error goes to stdout instead
            raise UsageError(f"cannot write --out: {exc}") from exc
    sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, separators=(", ", ": ")))


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag} expects a comma-separated integer list, got {text!r}") from exc


def _grid(args) -> tuple[int, tuple[int, ...]]:
    """(rmax, primes) of `table` and `sweep`, each prime checked once for every cell
    and listed once, in order of first appearance."""
    if args.rmax < 1:
        raise UsageError(f"--rmax must be >= 1, got {args.rmax}")
    primes = dict.fromkeys(_parse_int_list(args.primes, "--primes"))
    return args.rmax, tuple(ensure_prime(p) for p in primes)


# -- single-cell commands -----------------------------------------------------


def _cell_query(r, s, p, args):
    if not args.json:  # the text line reads only the value it prints
        if args.command == "lambda":
            return None, " ".join(map(str, jordan.lambda_of(r, s, p).parts))
        return None, corr_mod._reversal_cycles(delta_profile(r, s, p).cuts)
    res = jordan.jordan_result(r, s, p)
    return {"lambda": list(res.lam.parts), "pi": corr_mod._reversal_cycles(res.profile.cuts),
            "epsilon": list(res.epsilon.entries), "method": res.method}, None


def _cell_standard(r, s, p, args):
    report = standardness.equivalence_report(r, s, p)
    row = "none" if report.matched_row is None else str(report.matched_row)
    return ({"m": report.m, "matched_row": report.matched_row, "verdict": report.verdict,
             "conditions": report.conditions()},
            f"standard={str(report.verdict).lower()} row={row}")


def _cell_delta(r, s, p, args):
    prof = delta_profile(r, s, p)
    return {"delta": list(prof.delta), "L": list(prof.L), "R": list(prof.R)}, None


def _cell_oracle(r, s, p, args):
    route = oracle.oracle_lambda if args.kind == "unipotent" else oracle.oracle_nilpotent
    part = route(r, s, p, **_cap(args))
    return {"kind": args.kind, "partition": list(part.parts)}, None


def _cell_green(r, s, p, args):
    dec = green_mod.decompose(r, s, p)
    return {"summands": [{"dim": d, "mult": m} for d, m in dec.summands]}, None


# name -> (help, cell, has_text). cell(r, s, p, args), with r <= s, returns the payload
# fields after r, s, p and the text line, or None for the JSON-only commands
# (has_text False); the others print the line unless --json is given. A cell may
# return None for whichever of the two is not emitted.
_CELLS = {
    "lambda": ("Jordan partition of J_r (x) J_s over GF(p)", _cell_query, True),
    "pi": ("the Norman permutation in cycle notation", _cell_query, True),
    "standard": ("standardness of the triple (r, s, p)", _cell_standard, True),
    "delta": ("delta bits and L/R gap functions", _cell_delta, False),
    "oracle": ("brute-force Jordan partition from matrix ranks", _cell_oracle, False),
    "green": ("tensor decomposition as dimension multiset", _cell_green, False),
}
# these payloads carry "swapped" only when it is true; the others always carry it
_SWAPPED_ONLY_WHEN_TRUE = ("delta", "green")


def cmd_cell(args) -> int:
    """One cell (r, s, p): r > s is swapped, since the tensor product is symmetric."""
    swapped = args.r > args.s
    r, s = (args.s, args.r) if swapped else (args.r, args.s)
    fields, text = _CELLS[args.command][1](r, s, args.p, args)
    if text is not None and not args.json:
        _emit(args, text)
        return 0
    payload = {"r": r, "s": s, "p": args.p, **fields}
    if swapped or args.command not in _SWAPPED_ONLY_WHEN_TRUE:
        payload["swapped"] = swapped
    _emit_json(args, payload)
    return 0


def cmd_group(args) -> int:
    if args.census:
        _emit_json(args, {"r": args.r, "p": args.p,
                          "census": ge.generator_census(args.r, args.p, **_cap(args))})
        return 0
    if args.blocks:
        b = p_parts(args.r, args.p).b
        _emit_json(args, {"r": args.r, "p": args.p, "b": b,
                          "blocks": [list(block) for block in ge.residue_blocks(args.r, b)]})
        return 0
    report = ge.verify_wreath(args.r, args.p, **_cap(args))
    _emit_json(args, {**dataclasses.asdict(report), "verdict": report.verdict})
    return 0 if report.verdict else 1


def cmd_corr(args) -> int:
    given = [v is not None for v in (args.t, args.eps, args.pi)]
    if sum(given) != 1:
        raise UsageError("corr needs exactly one of --t, --eps, --pi")
    if args.t is not None:
        if args.r is None:
            raise UsageError("--t requires --r")
        members = tuple(_parse_int_list(args.t, "--t")) if args.t.strip() else ()
        T = corr_mod.SubsetProfile(args.r, members)
    elif args.eps is not None:
        eps = corr_mod.validate_eps(_parse_int_list(args.eps, "--eps"))
        if args.r not in (None, eps.r):
            raise UsageError(f"--r {args.r} differs from the length {eps.r} of --eps")
        T = corr_mod.eps_to_subset(eps)
    else:
        if args.r is None:
            raise UsageError("--pi requires --r")
        pi = parse_cycles(args.pi, args.r)
        T = corr_mod.perm_to_subset(pi)
    _emit_json(args, {
        "r": T.r,
        "subset": list(T.members),
        "epsilon": list(corr_mod.subset_to_eps(T).entries),
        "pi": corr_mod._reversal_cycles(T.cuts()),
    })
    return 0


# -- table reproduction -------------------------------------------------------


def _pi3_rows(p: int, rmax: int) -> tuple[list[tuple[str, str, str]], bool]:
    """Rows (class, value, status) of the small-r table for one prime: the delta
    route at s, s + q and s + 2q for each cell s of delta._period_cells(3, p), which
    take every value over one period q in s, compared by cut points against each
    class of jordan.pi3_classes."""
    q = p_power_at_least(3, p)[1]
    cells = _period_cells(3, p)
    rows = []
    ok = True
    for label, residues, cuts in jordan.pi3_classes(p):
        if not residues:
            rows.append((label, "()", "vacuous"))
            continue
        values = {delta_profile(3, s + k * q, p).cuts for s in cells if s % q in residues
                  for k in range(3)}
        if values == {cuts}:
            rows.append((label, corr_mod._reversal_cycles(cuts), "ok"))
        else:
            ok = False
            rows.append((label, "|".join(sorted(map(corr_mod._reversal_cycles, values))), "FAIL"))
    return rows, ok


def _small_s_rows(p: int, rmax: int) -> tuple[list[tuple[str, str, str, str]], bool]:
    """Rows (case, formula, r-range, status): the cut points of each closed form of
    jordan.SMALL_RESIDUES against those of the delta route at s = p^m + case."""
    rows = []
    all_ok = True
    for case, form in jordan.SMALL_RESIDUES.items():
        if rmax < form.rmin:
            rows.append((str(case), form.formula, "()", "vacuous"))
            continue
        failures = [r for r in range(form.rmin, rmax + 1)
                    if delta_profile(r, p_power_at_least(r, p)[1] + case, p).cuts
                    != form.value(r, p)]
        status = "ok" if not failures else "FAIL(r=" + ",".join(map(str, failures)) + ")"
        all_ok = all_ok and not failures
        rows.append((str(case), form.formula, f"{form.rmin}..{rmax}", status))
    return rows, all_ok


def _render_columns(header: list[str], rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


# name -> (title(p), header, rows(p, rmax)); one block per prime
_TABLES = {
    "pi3": (lambda p: f"pi(3,s,p) for p={p} (modulus {p_power_at_least(3, p)[1]})",
            ["s_mod", "pi", "status"], _pi3_rows),
    "small-s": (lambda p: f"pi(r,s,p) for small s mod p^m, p={p}",
                ["case", "formula", "r", "status"], _small_s_rows),
}


def cmd_table(args) -> int:
    rmax, primes = _grid(args)
    title, header, rows_of = _TABLES[args.name]
    blocks = []
    ok = True
    for p in primes:
        rows, good = rows_of(p, rmax)
        ok = ok and good
        blocks.append(title(p) + "\n" + _render_columns(header, rows))
    _emit(args, "\n\n".join(blocks))
    return 0 if ok else 1


# -- sweep harness ------------------------------------------------------------


def _on_grid(cell, smax_default):
    """Rows (r, s, p, passed, detail) of a per-cell check over p, then 1 <= r <= rmax,
    then r <= s <= smax. smax is an integer, "period" (one full period r..r+p^m per
    (r, p)) or None, when smax_default ("rmax" or "period") applies."""
    def rows(rmax, smax, primes, cap):
        smax = smax_default if smax is None else smax
        if smax == "rmax":
            smax = rmax
        for p in primes:
            for r in range(1, rmax + 1):
                top = r + p_power_at_least(r, p)[1] if smax == "period" else smax
                for s in range(r, top + 1):
                    yield (r, s, p, *cell(r, s, p, cap))
    return rows


def _cell_oracle_equiv(r, s, p, cap):
    return oracle.oracle_lambda(r, s, p, **cap).parts == \
        jordan.lambda_of(r, s, p).parts, ""


def _cell_involution(r, s, p, cap):
    return jordan.pi_of(r, s, p).is_involution(), ""


def _cell_fast_path(r, s, p, cap):
    hit = jordan.pi_fast_path(r, s, p)
    return hit.perm == jordan.pi_of(r, s, p), hit.rule


def _cell_six_way(r, s, p, cap):
    try:
        standardness.equivalence_report(r, s, p)
    except standardness.EquivalenceViolation as exc:
        return False, str(exc)
    return True, ""


def _rows_bijection(rmax, smax, primes, cap):
    from itertools import combinations
    for r in range(1, rmax + 1):
        bad = 0
        total = 0
        for k in range(r):
            for members in combinations(range(1, r), k):
                T = corr_mod.SubsetProfile(r, members)
                eps = corr_mod.subset_to_eps(T)
                total += 1
                if (corr_mod.eps_to_subset(eps) != T
                        or corr_mod.subset_to_perm(T) != corr_mod.eps_to_perm(eps)
                        or corr_mod.perm_to_eps(corr_mod.subset_to_perm(T)) != eps):
                    bad += 1
        yield (r, 0, 0, bad == 0, f"subsets={total}")


def _rows_wreath(rmax, smax, primes, cap):
    for p in primes:
        for r in range(2, rmax + 1):
            report = ge.verify_wreath(r, p, **cap)
            yield (r, 0, p, report.verdict, f"order={report.order}")


# name -> rows(rmax, smax, primes, cap) yielding (r, s, p, passed, detail)
_SWEEP_CHECKS = {
    "oracle-equiv": _on_grid(_cell_oracle_equiv, "rmax"),
    "involution": _on_grid(_cell_involution, "rmax"),
    "fast-path": _on_grid(_cell_fast_path, "rmax"),
    "six-way": _on_grid(_cell_six_way, "period"),
    "bijection-roundtrip": _rows_bijection,
    "wreath": _rows_wreath,
}


def cmd_sweep(args) -> int:
    try:
        smax = args.smax if args.smax in (None, "period") else int(args.smax)
    except ValueError as exc:
        raise UsageError(f"--smax expects an integer or 'period', got {args.smax!r}") from exc
    if isinstance(smax, int) and smax < 1:
        raise UsageError(f"--smax must be >= 1, got {smax}")
    rmax, primes = _grid(args)
    checks = list(dict.fromkeys(c.strip() for c in args.checks.split(",")))
    for c in checks:
        if c not in _SWEEP_CHECKS:
            raise UsageError(f"unknown check {c!r}; known: {', '.join(sorted(_SWEEP_CHECKS))}")
    cap = _cap(args) if {"oracle-equiv", "wreath"} & set(checks) else {}  # the checks that read it
    rows = [(r, s, p, name, okay, detail) for name in checks
            for r, s, p, okay, detail in _SWEEP_CHECKS[name](rmax, smax, primes, cap)]
    rows.sort(key=lambda row: (row[3], row[2], row[0], row[1]))

    columns = ["r", "s", "p", "check", "status", "detail"]
    records = [(r, s, p, c, "pass" if okay else "fail", d) for r, s, p, c, okay, d in rows]
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([columns, *records])
        _emit(args, buf.getvalue())
    elif args.format == "json":
        _emit_json(args, {"summary": _sweep_summary(checks, rows),
                          "rows": [dict(zip(columns, rec)) for rec in records]})
    else:
        lines = []
        for name, info in _sweep_summary(checks, rows).items():
            lines.append(f"{name}: {info['passed']}/{info['cells']} passed"
                         + (f"; first failure {info['first_failure']}"
                            if info["first_failure"] else ""))
        _emit(args, "\n".join(lines))
    return 0 if all(row[4] for row in rows) else 1


def _sweep_summary(checks, rows):
    """Cells, passes and the first failure of each requested check, in name order; a
    check with no cells reads 0/0."""
    summary = {name: {"cells": 0, "passed": 0, "first_failure": None}
               for name in sorted(checks)}
    for r, s, p, check, okay, detail in rows:
        info = summary[check]
        info["cells"] += 1
        if okay:
            info["passed"] += 1
        elif info["first_failure"] is None:
            info["first_failure"] = f"(r={r}, s={s}, p={p}) {detail}".strip()
    return summary


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normanform",
        description="Jordan partitions of tensor products of unipotent Jordan "
                    "blocks over GF(p), and the involutions they define.")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kw):
        sub = subs.add_parser(name, allow_abbrev=False, **kw)
        sub.set_defaults(func=func)
        sub.add_argument("--out", type=str, default=None, help="write output to FILE")
        return sub

    for name, (help_text, _, has_text) in _CELLS.items():
        sub = add(name, cmd_cell, help=help_text)
        for flag in ("--r", "--s", "--p"):
            sub.add_argument(flag, type=int, required=True)
        if has_text:
            sub.add_argument("--json", action="store_true")
        if name == "oracle":
            sub.add_argument("--kind", choices=["unipotent", "nilpotent"], default="unipotent")
            sub.add_argument("--cap", type=int, default=None, help="matrix dimension guard")

    sub = add("group", cmd_group, help="structure of the group of Norman involutions")
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--verify", action="store_true", help="full wreath verification (default)")
    mode.add_argument("--census", action="store_true", help="count distinct generators")
    mode.add_argument("--blocks", action="store_true", help="emit the residue block system")
    sub.add_argument("--cap", type=int, default=None, help="degree guard")

    sub = add("corr", cmd_corr, help="triangle of subset / deviation vector / involution")
    sub.add_argument("--r", type=int)
    sub.add_argument("--t", type=str, default=None, help="subset of [r-1], e.g. '1,3'")
    sub.add_argument("--eps", type=str, default=None, help="deviation vector, e.g. '2,0,-2'")
    sub.add_argument("--pi", type=str, default=None, help="cycle text, e.g. '(1,3)'")

    sub = add("table", cmd_table, help="recompute and verify the closed-form tables")
    sub.add_argument("--name", choices=list(_TABLES), required=True)
    sub.add_argument("--primes", type=str, default="2", help="comma list, e.g. '2,3,5'")
    sub.add_argument("--rmax", type=int, default=25)

    sub = add("sweep", cmd_sweep, help="run verification sweeps over parameter grids")
    sub.add_argument("--checks", type=str, default="oracle-equiv",
                     help=f"comma list of {', '.join(sorted(_SWEEP_CHECKS))}")
    sub.add_argument("--rmax", type=int, default=8)
    sub.add_argument("--smax", type=str, default=None, help="integer or 'period'")
    sub.add_argument("--primes", type=str, default="2,3")
    sub.add_argument("--format", choices=["table", "csv", "json"], default="table")
    sub.add_argument("--cap", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        _emit_json(args, {"error": {"code": "usage", "message": str(exc)}})
        return 2
    except (oracle.DimensionCapExceeded, ge.DegreeCapExceeded,
            MemoryError, OverflowError) as exc:  # the last two: Python refused a list of r entries
        message = str(exc) or "out of memory"
        _emit_json(args, {"error": {"code": "resource-cap", "message": message}})
        return 2
    except standardness.EquivalenceViolation as exc:
        _emit_json(args, {"error": {"code": "verification-failure", "message": str(exc)}})
        return 1
    except ValueError as exc:
        _emit_json(args, {"error": {"code": "invalid-argument", "message": str(exc)}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
