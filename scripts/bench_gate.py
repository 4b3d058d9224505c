#!/usr/bin/env python3
"""One gate over the bench records: in-run ratios, exact counts, paired medians.

    python3 scripts/bench_gate.py RECORDS... [--parent RECORDS...]

RECORDS are `--json` outputs of bench_hotpath, bench_rawscan,
bench_indexed_vs_stream, bench_fig7_exec_time and bench_filter_scalability;
one file is one run, and several runs of a bench give medians. --parent
takes the same benches run from the parent commit on the same host,
preferably in alternating order with the change's runs. Every rule in
RULES is one of three kinds:

  ratio   a ratio measured inside one run (so the host cancels out), judged
          per cell on its median over all the change runs given;
  exact   a count or equality, checked on every run;
  paired  an absolute figure (higher is better), judged only against the
          parent: with medians P and C and the parent's quartile spread S
          (distance between its quartiles as a share of P), a cell FAILs
          when C is below P by more than max(bound, S), is unresolved when
          S exceeds the bound, and is ok otherwise. Without --parent the
          medians are printed as recorded, not gated.

A rule that matches no record fails. A cell present on only one side of a
paired rule is reported and not gated. BM_ShardedServe rows are printed
with host_cpus and wall time and are never gated. Prints each rule's counts
of ok, unresolved and failed cells; exits 1 if any cell failed, 2 if a
records file cannot be read.
"""

import argparse
import collections
import functools
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The one committed reference: observe-mode emission gaps are deterministic.
GAP_BASELINE = os.path.join(ROOT, "bench", "BENCH_emission_gap_baseline.json")


def param(r, key):
    return r.get("params", {}).get(key)


def median_of(metric):
    return lambda recs: statistics.median(r[metric] for r in recs)


def overhead_ratio(recs):
    return statistics.median(r["obs_off_ms"] / r["handwired_ms"] for r in recs)


def gap_ratio(recs):
    """Upper median over queries of on/observe mean emission gap."""
    gaps = {}
    for r in recs:
        gaps.setdefault((param(r, "query"), param(r, "mode")), []).append(
            r["gap_mean_bytes"])
    gap = {k: statistics.median(v) for k, v in gaps.items()}
    ratios = [gap[(q, "on")] / g for (q, mode), g in gap.items()
              if mode == "observe" and g > 0 and (q, "on") in gap]
    return statistics.median_high(ratios) if ratios else None


def no_allocs(recs):
    allocs = max(r["steady_allocs"] for r in recs)
    return ("FAIL", f"{allocs:.0f} steady-state allocations") if allocs else None


def candidates_never_grow(recs):
    peak = {param(r, "mode"): r["peak_candidates"] for r in recs}
    if len(peak) < 2:
        return ("not gated", f"only mode {', '.join(peak)}")
    if peak["on"] > peak["observe"]:
        return ("FAIL", f"on-mode peak candidates {peak['on']:.0f} exceed "
                f"observe {peak['observe']:.0f}")
    return None


def early_emission(recs):
    if any(r["early_emitted"] > 0 for r in recs):
        return None
    return ("FAIL", "no on-mode cell early-emitted a result")


@functools.lru_cache(maxsize=None)
def baseline_gaps():
    return {param(r, "query"): r["gap_mean_bytes"] for r in load(GAP_BASELINE)
            if param(r, "mode") == "observe"}


def gap_drift(recs):
    base = baseline_gaps().get(param(recs[0], "query"), 0)
    if base <= 0:
        return ("not gated", "no baseline cell")
    drift = max(abs(r["gap_mean_bytes"] - base) for r in recs) / base
    if drift > 0.02:
        return ("FAIL", f"gap mean drifted {drift:.2%} from the baseline "
                f"{base:.0f} B (> 2%)")
    return None


def counts_equal(recs):
    for r in recs:
        if r["results_indexed"] != r["results_stream"]:
            return ("FAIL", f"indexed found {r['results_indexed']:.0f} "
                    f"matches, streaming {r['results_stream']:.0f}")
    return None


EARLY = {"group": {"early"}}

# One entry per rule. `where` keeps the records whose params take one of the
# given values; `cell` names the params that key a cell (exact rules also key
# by run). Ratio rules reduce a cell's records with `value` and compare it
# with `at_least` / `at_most`; exact rules return None (ok) or (status,
# detail) from `check`; paired rules compare `metric` medians within `bound`.
RULES = [
    dict(id="scan_speedup", kind="ratio", bench="rawscan", cell=("dataset",),
         simd_only=True, value=median_of("speedup"), at_least=2.0,
         text="SIMD/scalar structural-scan speedup >= 2.0 (SIMD builds)"),
    dict(id="indexed_floor", kind="ratio", bench="indexed_vs_stream",
         where={"dataset": {"Book"},
                "query": {"Q5", "Q6", "Q7", "Q8", "Q9", "Q10"}},
         cell=("dataset", "query"), value=median_of("speedup"), at_least=10.0,
         text="indexed/streaming speedup >= 10 on Book Q5-Q10"),
    dict(id="obs_overhead", kind="ratio", bench="fig7_exec_time",
         where={"group": {"overhead"}}, cell=("dataset",),
         value=overhead_ratio, at_most=1.05,
         text="median per-iteration obs_off/handwired time <= 1.05"),
    dict(id="gap_ratio", kind="ratio", bench="hotpath", where=EARLY,
         cell=("dataset",), value=gap_ratio, at_most=0.7,
         text="median on/observe emission gap <= 0.7"),
    dict(id="steady_allocs", kind="exact", bench="hotpath",
         cell=("group", "dataset", "workload"), check=no_allocs,
         text="0 steady-state allocations on every hot-path cell"),
    dict(id="candidates", kind="exact", bench="hotpath",
         where={**EARLY, "mode": {"observe", "on"}}, cell=("query",),
         check=candidates_never_grow,
         text="on-mode peak candidates <= observe"),
    dict(id="early_emission", kind="exact", bench="hotpath",
         where={**EARLY, "mode": {"on"}}, cell=("dataset",),
         check=early_emission, text="at least one early emission"),
    dict(id="gap_drift", kind="exact", bench="hotpath",
         where={**EARLY, "mode": {"observe"}}, cell=("query",),
         check=gap_drift,
         text="observe gap mean within 2% of BENCH_emission_gap_baseline"),
    dict(id="match_counts", kind="exact", bench="indexed_vs_stream",
         cell=("dataset", "query"), check=counts_equal,
         text="indexed match counts equal streaming"),
    dict(id="hotpath_eps", kind="paired", bench="hotpath",
         cell=("group", "dataset", "workload"), metric="events_per_sec",
         bound=0.05, text="hot-path events/sec vs parent (bound 5%)"),
    dict(id="scan_gbps", kind="paired", bench="rawscan", cell=("dataset",),
         metric="fast_gb_per_sec", bound=0.25,
         text="fast-scan GB/s vs parent (bound 25%)"),
    dict(id="indexed_speedup", kind="paired", bench="indexed_vs_stream",
         cell=("dataset", "query"), metric="speedup", bound=0.40,
         text="indexed speedup vs parent (bound 40%)"),
]


def load(path):
    """Reads one bench_util `--json` file; tags each record with its run."""
    with open(path) as f:
        records = json.load(f)
    for r in records:
        r["run"] = path
    return records


def cells(rule, records):
    out = {}
    for r in records:
        if r.get("bench") != rule["bench"] or any(
                param(r, k) not in v for k, v in rule.get("where", {}).items()):
            continue
        key = [str(param(r, k)) for k in rule["cell"]]
        if rule["kind"] == "exact":
            key.insert(0, r["run"])
        out.setdefault("/".join(key), []).append(r)
    return out


def judge_paired(rule, now, before):
    out = []
    for name in sorted(set(now) | set(before or {})):
        c = [r[rule["metric"]] for r in now.get(name, [])]
        if before is None:
            out.append((name, "recorded, not gated",
                        f"{statistics.median(c):.4g}"))
            continue
        p = [r[rule["metric"]] for r in before.get(name, [])]
        if not c or not p:
            out.append((name, "not gated",
                        "only in the " + ("change" if c else "parent")))
            continue
        mc, mp = statistics.median(c), statistics.median(p)
        q1, _, q3 = statistics.quantiles(p, n=4) if len(p) > 1 else (mp,) * 3
        spread, worse = (q3 - q1) / mp, (mp - mc) / mp
        status = ("FAIL" if worse > max(rule["bound"], spread) else
                  "unresolved" if spread > rule["bound"] else "ok")
        out.append((name, status, f"parent {mp:.4g}, change {mc:.4g} "
                    f"({-worse:+.1%}), parent spread {spread:.1%}"))
    return out


def judge(rule, change, parent=None):
    """Returns (cell, status, detail) for every cell of `rule`."""
    now = cells(rule, change)
    if not now:
        return [("-", "FAIL", "no record matches this rule")]
    if rule["kind"] == "paired":
        return judge_paired(rule, now,
                            None if parent is None else cells(rule, parent))
    out = []
    for name, recs in sorted(now.items()):
        if rule.get("simd_only") and not all(r.get("is_simd") for r in recs):
            out.append((name, "skipped", "SWAR build"))
        elif rule["kind"] == "ratio":
            v = rule["value"](recs)
            ok = v is not None and (rule.get("at_least", v) <= v
                                    <= rule.get("at_most", v))
            out.append((name, "ok" if ok else "FAIL",
                        "no value" if v is None else f"{v:.3f}"))
        else:
            out.append((name, *(rule["check"](recs) or ("ok", ""))))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+", help="change runs")
    parser.add_argument("--parent", nargs="+", help="parent-commit runs")
    args = parser.parse_args()
    try:
        change = [r for path in args.records for r in load(path)]
        parent = (None if args.parent is None else
                  [r for path in args.parent for r in load(path)])
        baseline_gaps()
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    failed = unresolved = 0
    for rule in RULES:
        print(f"== {rule['kind']}: {rule['text']}")
        results = judge(rule, change, parent)
        for name, status, detail in results:
            if rule["kind"] != "exact" or status != "ok":
                print(f"  {name:36s} {detail}  {status}")
        tally = collections.Counter(status for _, status, _ in results)
        other = "".join(f", {n} {s}" for s, n in sorted(tally.items())
                        if s not in ("ok", "unresolved", "FAIL"))
        print(f"  -> {tally['ok']} ok, {tally['unresolved']} unresolved, "
              f"{tally['FAIL']} failed{other}")
        failed += tally["FAIL"]
        unresolved += tally["unresolved"]

    shards = [r for r in change if r.get("bench") == "filter_scalability"
              and param(r, "system") == "sharded_serve"]
    if shards:
        print("== sharded serve (recorded, not gated: routed events/sec sums "
              "over shards, and scaling needs as many cores as shards)")
    for r in shards:
        print(f"  queries {param(r, 'queries')} shards {param(r, 'shards')}: "
              f"wall {r['wall_ms']:.1f} ms, {r['events_per_sec']:.3g} routed "
              f"events/s, host_cpus {r['host_cpus']:.0f}")

    print(f"\n{'FAIL' if failed else 'OK'}: {failed} failed and {unresolved} "
          "unresolved cells" + ("" if parent is not None else
                                "; paired rules not gated (no --parent)"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
