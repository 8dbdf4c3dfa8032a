#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the benchmark is judged.

    python3 perfbench/spread.py --workload default_azure --seeds 1-10 [--seconds 30]

Runs perfbench/run.py once per seed (--trace 0) and reports, per metric, the
median of the per-seed values and their spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median. Prints a table, then one JSON line holding the same figures, the
form in which trajectory points are recorded in perfbench/trajectory.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    """'A-B' -> [A..B]; quartiles need at least two seeds."""
    lo, _, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range: {text!r}")
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(
            f"--seeds {text!r} holds {len(seeds)} seed(s); need at least 2")
    return seeds


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", type=parse_seeds)
    p.add_argument("--seconds", type=int)
    args = p.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]

    values = {}
    seeds = args.seeds
    label = f"{seeds[0]}-{seeds[-1]}"
    for seed in seeds:
        t = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run.py exited {proc.returncode}",
                  file=sys.stderr)
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: {time.monotonic() - t:.0f} s", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"workload": args.workload, "seeds": label,
              "run_seconds": seconds, "metrics": {}}
    print(f"{args.workload}, seeds {label}, {seconds} s per run")
    print(f"  {'metric':22s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        record["metrics"][name] = {"median": med, "spread": round(spread, 4),
                                   "values": v}
        flag = "" if spread <= bounds[name] / 3 else "  > bound/3"
        print(f"  {name:22s} {med:12.6g} {spread:8.4f} {bounds[name]:6.2f}"
              f"{flag}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
