#!/usr/bin/env python3
"""Self-test of the benchmark's checkers: each must pass the program's real
results and reject one corrupted result.

    python3 benchmark/selftest.py

Corruptions: a lambda with two parts swapped (point-queries), a pi that is
not an involution (period-sweep), an oracle partition with one box moved
(oracle-crosscheck) and a group order off by a factor of 2 (wreath-groups).
Exit code 0 when every checker behaves, 1 otherwise.
"""

from __future__ import annotations

import sys

from run import import_program


def _swap_two_parts(rec):
    r, s, p, lam, *rest = rec
    i = next(i for i in range(1, len(lam)) if lam[i] != lam[0])
    lam = list(lam)
    lam[0], lam[i] = lam[i], lam[0]
    return (r, s, p, tuple(lam), *rest)


def _three_cycle(rec):
    r, s, p, lam, pi, *rest = rec
    return (r, s, p, lam, (pi[1], pi[2], pi[0]) + pi[3:], *rest)


def _move_one_box(rec):
    kind, r, s, p, parts, delta_parts = rec
    moved = (parts[0] + 1,) + parts[1:-1] + ((parts[-1] - 1,) if parts[-1] > 1 else ())
    return (kind, r, s, p, moved, delta_parts)


def _double_order(rec):
    r, p, order, verdict = rec
    return (r, p, 2 * order, verdict)


# workload -> (inputs, index of the record to corrupt, corruption, expected message)
CASES = {
    "point-queries": ([(60, 10**12 - 11, 5), (61, 10**9 + 7, 2)], 0, _swap_two_parts,
                      "Legendre reference"),
    "period-sweep": ([(5, s, 3) for s in range(5, 15)], 3, _three_cycle,
                     "not an involution"),
    "oracle-crosscheck": ([("lambda", 6, 9, 3), ("nilpotent", 4, 6, 2)], 0, _move_one_box,
                          "!= delta route"),
    "wreath-groups": ([(12, 2), (6, 3)], 0, _double_order, "(a!)^b |D_b|"),
}


def main() -> int:
    workloads = import_program()
    ok = True
    for name, (inputs, index, corrupt, message) in CASES.items():
        workload = workloads[name]
        records = [workload.record(inp, workload.run(inp)) for inp in inputs]
        clean = workload.check(records)
        records[index] = corrupt(records[index])
        hit = next((e for e in workload.check(records) if message in e), None)
        passed = not clean and hit is not None
        ok &= passed
        print(f"{name}: real results {'pass' if not clean else 'FAIL: ' + clean[0][:160]}; "
              f"corrupted result {'rejected: ' + hit[:160] if passed else 'NOT rejected'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
