#!/usr/bin/env python3
"""Builds the benchmark program and runs one workload, or all three.

    python3 perfbench/run.py --workload stream_book --seed 1
    python3 perfbench/run.py                  # every workload, one table each

The program is built from the library sources in src/ into .bench_build/ at
the root of the checkout (CMake, Release). Each workload's table lists every
metric with its unit; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 1 the
metrics are the per-layer ledger (see perfbench/layers.json for which
end-to-end metric each one should move) instead of the end-to-end metrics.
With --trace 1 it also checks that the traced run printed exactly the
per-layer metrics that BENCHMARK.json and perfbench/layers.json list. A run
does a fixed number of operations per workload; --seconds is accepted, so
callers that pass a time budget still work, and ignored. The exit code is 0
only when the build, every operation and every output check succeeded.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["stream_book", "serve_auction", "index_book"]


def build():
    """Configures (once) and builds the program; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=880)
        if proc.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run_workload(workload, seed, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir,
                                        f"{workload}-seed{seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def load_layer_map():
    with open(os.path.join(HERE, "layers.json")) as f:
        return json.load(f)["per_layer"]


def check_layer_names(workload, result):
    """The traced run must print exactly the per-layer metrics listed in
    perfbench/layers.json and, when present, BENCHMARK.json."""
    lists = {"layers.json": set(load_layer_map())}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as f:
            lists["BENCHMARK.json"] = {m["name"] for m in
                                       json.load(f)["per_layer"]}
    printed = set(result["metrics"])
    ok = True
    for source, names in lists.items():
        if names != printed:
            print(f"run.py: {workload}: traced metrics differ from {source}: "
                  f"missing {sorted(names - printed)}, "
                  f"unlisted {sorted(printed - names)}", file=sys.stderr)
            ok = False
    return ok


def print_layer_map():
    layers = load_layer_map()
    print("# layer metric -> end-to-end metrics it should move (workload)")
    for name, entry in layers.items():
        moves = ", ".join(entry["moves"]) or "-"
        print(f"#   {name}: moves {moves}; "
              f"should not move {', '.join(entry['not_moves']) or '-'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="ignored: the operation count is fixed")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    if not build():
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    results = []
    for w in workloads:
        rc, lines = run_workload(w, args.seed, args.trace)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"run.py: {w}: no result (exit code {rc})", file=sys.stderr)
            return rc or 1
        if args.trace and not check_layer_names(w, result):
            rc = rc or 1
            result["correct"] = False
            lines[-1] = json.dumps(result)
        code = code or rc
        results.append((w, result))
        if len(workloads) == 1:
            if args.trace:
                print("\n".join(lines[:-1]))
                print_layer_map()
                print(lines[-1])
            else:
                print("\n".join(lines))
            return rc
        print("\n".join(lines[:-1]))
    if args.trace:
        print_layer_map()
    combined = {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{w}.{name}": m for w, r in results
                    for name, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
