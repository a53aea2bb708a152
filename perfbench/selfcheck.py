#!/usr/bin/env python3
"""Self-check of the serving benchmark.

    python3 perfbench/selfcheck.py [--seconds 2]

Validates BENCHMARK.json against the benchmark contract, then runs every
workload briefly with --trace 0 and --trace 1 and asserts that:
  * the result line has exactly correct/attempted/failed/metrics and every
    declared metric with its declared unit;
  * the report line carries every end-to-end metric the benchmark defines
    (including failed_frac and sdc_frac) and every per-layer metric, each
    with a unit and a sample count;
  * the golden-token check ran on every completed session;
  * the traced pass emitted the per-token budget with its unattributed
    remainder and the measured tracing overhead;
  * every per-layer metric maps to end-to-end metrics in layer_map.json.
Exits nonzero on the first violation.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
REPORT_ONLY = ("failed_frac", "sdc_frac")


def fail(message):
    sys.exit("selfcheck: " + message)


def check_contract(bench):
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"}
    if set(bench) != expected:
        fail("BENCHMARK.json keys %s" % sorted(bench))
    names = set()
    for workload in bench["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200:
            fail("bad workload entry %s" % workload)
        if not NAME.match(workload["name"]):
            fail("bad workload name %s" % workload["name"])
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for metric in bench[section]:
            if set(metric) != keys:
                fail("bad %s entry %s" % (section, metric))
            if not NAME.match(metric["name"]) or metric["name"] in names:
                fail("bad or repeated name %s" % metric["name"])
            names.add(metric["name"])
            if not UNIT.match(metric["unit"]):
                fail("bad unit %s" % metric["unit"])
            if metric["better"] not in ("higher", "lower"):
                fail("bad better %s" % metric)
            if section == "end_to_end" and not 0 < metric["bound"] <= 0.25:
                fail("bound out of range %s" % metric)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s missing or malformed")
    if setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must carry the largest bound")


def check_layer_map(bench):
    with open(os.path.join(HERE, "layer_map.json")) as f:
        mapping = json.load(f)
    prefixes = [k for k in mapping if k != "about"]
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for prefix in prefixes:
        for workload, moved in mapping[prefix].items():
            if workload not in workloads or not set(moved) <= e2e:
                fail("layer_map %s names unknown %s %s" %
                     (prefix, workload, moved))
    for metric in bench["per_layer"]:
        if not any(metric["name"].startswith(p) for p in prefixes):
            fail("per-layer metric %s has no layer_map entry" % metric["name"])


def run(workload, trace, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "1", "--seconds", str(seconds), "--trace",
               str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        fail("%s trace=%d exited %d" % (workload, trace, done.returncode))
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("%s trace=%d printed no report" % (workload, trace))
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_run(bench, workload, trace, report, result):
    where = "%s trace=%d" % (workload, trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s result keys %s" % (where, sorted(result)))
    if result["correct"] is not True:
        fail("%s reported correct=false" % where)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s attempted %s" % (where, result["attempted"]))
    declared = bench["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        fail("%s metrics differ from BENCHMARK.json: %s" % (
            where, sorted(set(result["metrics"]) ^
                          {m["name"] for m in declared})))
    for metric in declared:
        got = result["metrics"][metric["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != metric["unit"]:
            fail("%s metric %s = %s" % (where, metric["name"], got))
        if not isinstance(got["value"], (int, float)):
            fail("%s metric %s is not a number" % (where, metric["name"]))
    wanted = [m["name"] for m in declared]
    if not trace:
        wanted += list(REPORT_ONLY)
    for name in wanted:
        entry = report["metrics"].get(name)
        if entry is None or not entry.get("unit") or \
                not isinstance(entry.get("samples"), int):
            fail("%s report lacks %s with unit and sample count" %
                 (where, name))
    outcomes = report["outcomes"]
    if outcomes["golden_checked"] != outcomes["completed"]:
        fail("%s golden check ran on %d of %d sessions" % (
            where, outcomes["golden_checked"], outcomes["completed"]))
    if trace:
        parts = report["budget"]["parts_us_per_token"]
        if "unattributed" not in parts:
            fail("%s budget lacks its unattributed remainder" % where)
        if "trace.overhead_pct" not in report["metrics"]:
            fail("%s lacks the tracing overhead" % where)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_contract(bench)
    check_layer_map(bench)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            report, result = run(workload, trace, args.seconds)
            check_run(bench, workload, trace, report, result)
            print("selfcheck: %s trace=%d ok (%d sessions)" % (
                workload, trace, result["attempted"]))
    print("selfcheck: all workloads ok")


if __name__ == "__main__":
    main()
