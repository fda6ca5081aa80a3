#!/usr/bin/env python3
"""A/A spread of one workload: run it k times and summarise each metric.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--seconds 10]
                                [--trace 0] [--first-seed 1]

Runs `perfbench/run.py` k times on the same code, each with the next
seed, and prints for every metric its median, first and third quartiles
(Python's statistics.quantiles, n=4), the interquartile range as a share
of the median, and (max - min) / median. It is the evidence behind the
bounds in BENCHMARK.json: a metric whose IQR share stays well under its
bound is steady enough to gate on. Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    bounds = {}
    bench = os.path.join(os.path.dirname(os.path.dirname(run_py)), "BENCHMARK.json")
    if os.path.isfile(bench):
        with open(bench) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    values = {}
    units = {}
    for k in range(args.runs):
        seed = args.first_seed + k
        done = subprocess.run(
            [sys.executable, run_py, "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"run {k} (seed {seed}) failed with exit {done.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"run {k} (seed {seed}) failed its correctness gate")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {k + 1}/{args.runs} seed {seed}: ok", file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {args.seconds} s (trace {args.trace})")
    print(f"{'metric':<44} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        bound = bounds.get(name)
        bound_s = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:<44} {units[name]:>6} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{iqr:>8.3f} {rng:>8.3f} {bound_s:>6}")


if __name__ == "__main__":
    main()
