#!/usr/bin/env python3
"""Runs workloads N times and prints the spread of every metric.

    python3 perfbench/spread.py --runs 5 --seed 7                 # same seed
    python3 perfbench/spread.py --runs 10 --seed 1 --distinct-seeds
    python3 perfbench/spread.py --runs 3 --seed 7 --trace 1 \
        --workloads serve_auction

For each (workload, metric) it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), min and max, and the spread: the
distance between the quartiles as a share of the median. With --trace 0 the
spread is compared with the metric's bound in BENCHMARK.json and flagged
when above a third of it. With a fixed seed, metrics marked exact in
perfbench/layers.json must read the same on every run; any difference is
flagged. Runs of a workload go one after another, never in parallel.
Exits 1 if any run failed or any flag was raised.
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
WORKLOADS = ["stream_book", "serve_auction", "index_book"]


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--distinct-seeds", action="store_true",
                        help="use seeds seed, seed+1, ... instead of one seed")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: the workloads in "
                        "BENCHMARK.json, else all three")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json")) or {}
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench.get("workloads", [])] or WORKLOADS)
    bounds = {m["name"]: m.get("bound") for m in bench.get("end_to_end", [])}
    layers = load_json(os.path.join(HERE, "layers.json")) or {}
    exact = {name for name, e in layers.get("per_layer", {}).items()
             if e.get("exact")}

    flagged = False
    for workload in workloads:
        values = {}
        units = {}
        for i in range(args.runs):
            seed = args.seed + i if args.distinct_seeds else args.seed
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT)
            elapsed = time.monotonic() - start
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {proc.returncode})")
                flagged = True
                continue
            print(f"{workload} seed {seed}: {elapsed:.1f} s, "
                  f"{result['attempted']} ops, {result['failed']} failed",
                  flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload}: {args.runs} runs, "
              f"seed={args.seed}{'+i' if args.distinct_seeds else ''}")
        print(f"  {'metric':38} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>8}  unit")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                         else (v[0], v[0], v[0]))
            spread = (q3 - q1) / abs(med) if med else float("inf")
            note = ""
            bound = bounds.get(name) if args.trace == 0 else None
            if bound is not None:
                ok = spread < bound / 3
                note = f"  bound {bound} {'ok' if ok else 'TOO WIDE'}"
                flagged |= not ok
            if name in exact and not args.distinct_seeds and len(set(v)) > 1:
                note += "  NOT EXACT"
                flagged = True
            print(f"  {name:38} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{min(v):12.6g} {max(v):12.6g} {spread:8.2%}  "
                  f"{units[name]}{note}")
        print()
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
