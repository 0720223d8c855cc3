#!/usr/bin/env python3
"""Benchmark of normanform: four workloads, end-to-end metrics, layer tracing.

    python3 benchmark/run.py                      # all four workloads, seed 1
    python3 benchmark/run.py --workload point-queries --seed 7 --seconds 30 --trace 0

A run imports the package from src/ of the checkout it sits in, times whole
rounds of the workload's seeded inputs (one caller, one operation in flight)
until --seconds would be exceeded by one more round, checks every result
against benchmark/checks.py, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 the package is
wrapped by benchmark/layertrace.py and the metrics are the per-layer ones, per
round. Exit code 0 on a correct run, 1 if a check failed, 2 if the program
or BENCHMARK.json cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60


class DeadlineExceeded(Exception):
    """An operation ran past its deadline."""


@contextmanager
def deadline(seconds):
    """Raise DeadlineExceeded in the body after `seconds` of wall time (None: no limit)."""
    if seconds is None:
        yield
        return

    def expire(signum, frame):
        raise DeadlineExceeded(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "normanform" / "__init__.py").is_file():
        raise FileNotFoundError(f"no normanform package under {SRC}")
    return spec


def import_program():
    """Import the package from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import normanform
    if Path(normanform.__file__).resolve().parent != SRC / "normanform":
        raise ImportError(f"normanform imported from {normanform.__file__}, not {SRC}")
    import workloads
    return workloads.WORKLOADS


def child_seconds(code: str) -> float:
    """Run `code` in a fresh interpreter; it prints one float, which is returned."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def setup_seconds(workload: str, seed: int) -> float:
    """Fresh interpreter start until the warm-up operation returned (a monotonic
    clock shared by both processes), median of SETUP_PROBES."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


def import_seconds(statement: str) -> float:
    """Median time of `statement` as the first import of a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            f"{statement}; print(time.perf_counter() - t)")
    return statistics.median(child_seconds(code) for _ in range(IMPORT_PROBES))


def measure(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Whole rounds of the workload until one more would pass `seconds`."""
    inputs = workload.inputs(seed)
    workload.run(workload.warmup)
    if tracer is not None:
        tracer.reset()
    latencies, errors, unexpected = [], [], []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        records = []
        for inp in inputs:
            attempted += 1
            if tracer is not None:
                tracer.op = attempted
            try:
                with deadline(workload.deadline(inp)):
                    t0 = time.perf_counter()
                    raw = workload.run(inp)
                    latency = time.perf_counter() - t0
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                if not workload.known_fault(inp):
                    unexpected.append(f"{inp}: {exc!r}")
                    traceback.print_exc(file=sys.stderr)
                continue
            latencies.append(latency)
            records.append(workload.record(inp, raw))
        errors += workload.check(records)
        rounds += 1
        gc.collect()
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    return {"rounds": rounds, "ops_per_round": len(inputs), "attempted": attempted,
            "failed": failed, "latencies": latencies, "errors": errors + unexpected,
            "wall_s": time.perf_counter() - start}


def end_to_end(result: dict, setup: float) -> dict:
    lat = result["latencies"]
    return {
        "setup_s": setup,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, names, rounds: int) -> dict:
    """Per-round values: counts divide exactly, since every round repeats the same calls."""
    values = {"cli.import_s": import_seconds("import normanform.cli"),
              "oracle.import_s": import_seconds("import numpy, scipy.sparse")}
    for name in names:
        if name not in values:
            total = tracer.metric(name)
            values[name] = total // rounds if isinstance(total, int) and total % rounds == 0 \
                else total / rounds
    return values


def run_one(args, spec) -> int:
    workloads = import_program()
    workload = workloads[args.workload]
    if args.probe:
        workload.run(workload.warmup)
        print(time.monotonic())
        return 0
    tracer = None
    setup = 0.0
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        setup = setup_seconds(args.workload, args.seed)
    result = measure(workload, args.seed, args.seconds, tracer)
    if tracer is None:
        values = end_to_end(result, setup)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(tracer, units, result["rounds"])
    correct = not result["errors"]
    for error in result["errors"][:20]:
        print(f"CHECK FAILED {args.workload}: {error}", file=sys.stderr)
    line = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={result['rounds']} "
          f"ops/round={result['ops_per_round']} wall={result['wall_s']:.2f}s")
    for name, metric in line["metrics"].items():
        print(f"#   {name} = {metric['value']:.6g} {metric['unit']}")
    OUT.mkdir(exist_ok=True)
    detail = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  rounds=result["rounds"], wall_s=result["wall_s"],
                  errors=result["errors"], latencies_s=result["latencies"])
    if tracer is not None:
        detail["layers"] = tracer.summary()
        detail["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail))
    print(json.dumps(line))
    return 0 if correct else 1


def run_all(args, spec) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for entry in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", entry["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        line = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0,
                                                    "failed": 0, "metrics": {}}
        print(f"#   attempted={line['attempted']} failed={line['failed']} "
              f"correct={line['correct']}")
        combined["correct"] &= line["correct"] and proc.returncode == 0
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, metric in line["metrics"].items():
            combined["metrics"][f"{entry['name']}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set-up probe: import, run the warm-up operation, print the clock")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all" and not args.probe:
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
