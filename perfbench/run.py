#!/usr/bin/env python3
"""Benchmark of the Libra simulator: one command for every workload.

    python3 perfbench/run.py --workload libra_azure --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and with it the simulator libraries under src/) into
.bench_build/perfbench on first use, then repeats one process of the
workload (perfbench/src/main.cpp) until --seconds have passed, at least
MIN_REPS times. Each repetition sets the workload up from the seed, runs it,
checks its outputs and tears it down. The result is the median of each metric
over the repetitions.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
every repetition twice, untraced and through the timed layer wrappers, and
reports the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when
every correctness check passed, 1 when one failed, 2 on a usage or build
error (no result line).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["libra_azure", "default_azure", "libra_audited_churn"]
MIN_REPS = 3
# Stop starting repetitions after this long, whatever MIN_REPS says, so one
# run always ends well within its time limit.
HARD_STOP_S = 120.0
REP_TIMEOUT_S = 170.0


class BenchError(Exception):
    """A usage, build or environment error: no result can be printed."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")
    return spec


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures once, then brings libra_bench up to date; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no simulator sources under {ROOT}/src")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "libra_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "libra_bench")


def run_rep(binary, workload, seed, traced):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    rep = json.loads(lines[-1])
    if proc.returncode == 1 and not rep["failures"]:
        rep["failures"].append(f"{workload} seed {seed}: exit status 1")
    return rep


def run_workload(binary, spec, workload, seed, seconds, traced):
    """Repeats the workload for `seconds`; returns (summary, failures)."""
    reps = []
    start = time.monotonic()
    while True:
        reps.append(run_rep(binary, workload, seed, traced))
        elapsed = time.monotonic() - start
        if elapsed >= HARD_STOP_S:
            break
        if elapsed >= seconds and len(reps) >= MIN_REPS:
            break

    failures = [f for rep in reps for f in rep["failures"]]
    # Same seed, same inputs: every repetition must simulate the same run.
    digests = sorted({rep["digest"] for rep in reps})
    if len(digests) != 1:
        failures.append(f"{workload} seed {seed}: repetitions disagree "
                        f"(digests {', '.join(digests)})")

    kind = "per_layer" if traced else "end_to_end"
    source = "layers" if traced else "metrics"
    metrics = {}
    for m in spec[kind]:
        values = [rep.get(source, {}).get(m["name"]) for rep in reps]
        if any(not isinstance(v, (int, float)) for v in values):
            failures.append(f"{workload}: metric {m['name']} missing or "
                            f"not a number")
            continue
        metrics[m["name"]] = {"value": statistics.median(values),
                              "unit": m["unit"]}
    shares = {}
    if traced:
        for layer in reps[0]["layer_shares"]:
            shares[layer] = statistics.median(
                rep["layer_shares"][layer] for rep in reps)
    summary = {
        "workload": workload,
        "reps": len(reps),
        "digest": digests[0],
        "attempted": sum(rep["finalized"] for rep in reps),
        "failed": sum(rep["finalized"] - rep["completed"] for rep in reps),
        "latency_samples": reps[0]["latency_samples"],
        "metrics": metrics,
        "shares": shares,
    }
    return summary, failures


def print_summary(s, seed):
    print(f"{s['workload']} seed {seed}: {s['reps']} repetitions, digest "
          f"{s['digest']}, {s['attempted'] // s['reps']} invocations per "
          f"repetition, latency percentiles over {s['latency_samples']} "
          f"completed invocations")
    for name, m in s["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if s["shares"]:
        print("  where the traced run's wall time went (self time):")
        for layer, share in sorted(s["shares"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:38s} {share:7.2%}")
        print(f"    {'sum (medians)':38s} {sum(s['shares'].values()):7.2%}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        raise BenchError("--seed must be >= 0")

    spec = load_spec()
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    failures = []
    summaries = []
    for w in workloads:
        s, f = run_workload(binary, spec, w, args.seed, args.seconds,
                            args.trace == 1)
        print_summary(s, args.seed)
        summaries.append(s)
        failures += f
    for f in failures:
        print(f"CHECK FAILED: {f}")

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v
                   for s in summaries for k, v in s["metrics"].items()}
    result = {
        "correct": not failures,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
