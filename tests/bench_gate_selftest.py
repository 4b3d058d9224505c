#!/usr/bin/env python3
"""Self-test of scripts/bench_gate.py over the records in tests/gate_fixtures/.

Each case judges one rule over a fixture (paired rules against a parent
fixture) and expects a verdict:

  pass.json          passes every rule (it is its own parent);
  fail_<rule>.json   fails its rule on its records, not by matching none;
  empty.json         fails every rule, since a rule that matches no record
                     fails;
  swar.json          skips the SIMD speedup rule (a SWAR build);
  aa.json            against aa.parent.json, an A/A pair whose parent
                     quartile spread (30%) exceeds the 5% bound, reads
                     unresolved rather than FAIL although its median is 10%
                     lower.

Then runs the gate's command line on pass.json (exit 0) and empty.json
(exit 1). Exits 1 on any mismatch.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(os.path.dirname(HERE), "scripts", "bench_gate.py")
FIXTURES = os.path.join(HERE, "gate_fixtures")
sys.path.insert(0, os.path.dirname(GATE))
import bench_gate  # noqa: E402


def verdict(results):
    statuses = {status for _, status, _ in results}
    if any(cell == "-" for cell, _, _ in results):
        return "vacuous"
    for status in ("FAIL", "unresolved", "skipped"):
        if status in statuses:
            return status
    return "ok" if statuses == {"ok"} else "/".join(sorted(statuses))


def main():
    def load(name):
        return bench_gate.load(os.path.join(FIXTURES, name))

    cases = []
    for rule in bench_gate.RULES:
        rule_id = rule["id"]
        cases += [("pass.json", "pass.json", rule_id, "ok"),
                  (f"fail_{rule_id}.json", "pass.json", rule_id, "FAIL"),
                  ("empty.json", None, rule_id, "vacuous")]
    cases += [("swar.json", None, "scan_speedup", "skipped"),
              ("aa.json", "aa.parent.json", "hotpath_eps", "unresolved")]

    rules = {rule["id"]: rule for rule in bench_gate.RULES}
    mismatches = 0
    for change, parent, rule_id, expect in cases:
        got = verdict(bench_gate.judge(rules[rule_id], load(change),
                                       parent and load(parent)))
        mismatches += got != expect
        print(f"{'ok' if got == expect else 'MISMATCH':8s} {rule_id:16s} "
              f"{change:28s} expect {expect}, got {got}")

    for fixture, expect_rc in (("pass.json", 0), ("empty.json", 1)):
        path = os.path.join(FIXTURES, fixture)
        rc = subprocess.run([sys.executable, GATE, path, "--parent", path],
                            stdout=subprocess.DEVNULL).returncode
        mismatches += rc != expect_rc
        print(f"{'ok' if rc == expect_rc else 'MISMATCH':8s} command line "
              f"{fixture:28s} expect exit {expect_rc}, got {rc}")

    print(f"\n{len(cases) + 2 - mismatches}/{len(cases) + 2} cases as expected")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
