#!/usr/bin/env python3
"""Steadiness study: runs the benchmark command from BENCHMARK.json several
times per workload, each with another seed, and prints for every metric the
median and the spread (distance between the first and third quartile as a
share of the median, as `statistics.quantiles(values, n=4)` gives them),
next to the metric's bound.

Run from the root of a checkout:

    python3 e2ebench/steadiness.py [--runs 10] [--trace 0|1] [--seed-base N]
                                   [--workload NAME ...] [--seconds S]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    # The run's host probes and whole-run figures tell a contended run
    # from a regression.
    for line in lines:
        if line.startswith(("whole run:", "diagnostic")):
            print(f"  {workload} seed {seed}: {line}", flush=True)
    return json.loads(lines[-1]), elapsed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    defs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        values = {d["name"]: [] for d in defs}
        times = []
        for i in range(args.runs):
            result, elapsed = run_once(bench["command"], workload,
                                       args.seed_base + i, seconds, args.trace)
            times.append(elapsed)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {args.seed_base + i}: "
                      f"correct={result['correct']} failed={result['failed']}")
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
        print(f"\n{workload}: {args.runs} runs, {min(times):.1f}-{max(times):.1f} s each")
        for d in defs:
            vals = values[d["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = d.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
                if spread > bound:
                    ok = False
            print(f"  {d['name']:<26} median {med:>14.6g} {d['unit']:<6} spread {spread:7.2%}"
                  f"  bound {bound if bound is not None else '-':<5} {verdict}")
            print(f"    {' '.join(f'{v:.6g}' for v in vals)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
