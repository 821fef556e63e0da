#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload briefly, untraced and traced, twice with the same seed,
and checks that:

- every metric BENCHMARK.json names is reported, with its unit;
- every run is correct and no round trip failed;
- the values fixed by the seed repeat exactly across the two runs.

Run from the root of a checkout (exit code 0 when every check passes):

    python3 e2ebench/smoke.py [--seconds 1] [--seed 7]
"""

import argparse
import json
import subprocess
import sys

# Values fixed by the seed: the in-memory replay serializes through seeded
# sessions, the attack is deterministic, and set-up derives the same stack
# from the same profile. Everything else is a measurement.
EXACT_END_TO_END = ["wire_ratio", "pre_resilience"]
EXACT_PER_LAYER = [
    "obf.transforms",
    "plan.slots",
    "wire.clear_bytes",
    "wire.obf_bytes",
    "protocols.build_allocs",
    "serialize.allocs",
    "parse.allocs",
    "transcode.allocs",
    "sample.allocs",
    "pre.score",
    "pre.ari",
    "pre.static_fraction",
    "pre.random_fraction",
]


def run(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)

    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, defs, exact in ((0, bench["end_to_end"], EXACT_END_TO_END),
                                   (1, bench["per_layer"], EXACT_PER_LAYER)):
            first, second = (run(bench["command"], name, args.seed, args.seconds, trace)
                             for _ in range(2))
            for result in (first, second):
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    problems.append(f"{name} trace {trace}: correct={result['correct']} "
                                    f"attempted={result['attempted']} failed={result['failed']}")
                for d in defs:
                    got = result["metrics"].get(d["name"])
                    if got is None or got["unit"] != d["unit"]:
                        problems.append(f"{name} trace {trace}: {d['name']} [{d['unit']}] "
                                        f"missing or with another unit: {got}")
            for metric in exact:
                a, b = (r["metrics"][metric]["value"] for r in (first, second))
                if a != b:
                    problems.append(f"{name}: {metric} differs across runs of seed "
                                    f"{args.seed}: {a} vs {b}")
            print(f"{name} trace {trace}: {first['attempted']} + {second['attempted']} "
                  f"round trips, seed-fixed values "
                  + ", ".join(f"{m}={first['metrics'][m]['value']:.6g}" for m in exact))

    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
