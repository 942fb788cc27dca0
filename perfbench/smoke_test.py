#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Run from the repository root. Checks BENCHMARK.json against its format,
then runs every workload untraced and traced at smoke-test sizes through
perfbench/run.py and checks that:
  * the last stdout line is the result object, with every end-to-end
    (untraced) or per-layer (traced) metric of BENCHMARK.json, each with
    its unit and a finite value;
  * every correctness check of the workload ran, and none failed;
  * the traced run passed its span-coverage check (serve: reported it);
  * whatif prices the same cells traced and untraced.
Exits nonzero on the first failure.
"""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Correctness checks each workload must run (untraced, traced-only).
CHECKS = {
    "suite": (["suite.checksum_finite", "suite.checksum_and_instructions_repeat",
               "suite.reprice_identical"],
              ["suite.reuse_off_checksum_identical", "suite.traced_split_identical",
               "suite.projection_replica_identical", "suite.projection_replica_time"]),
    "whatif": (["whatif.sampled_predict_identical", "whatif.repeat_across_rounds"], []),
    "serve": (["serve.response_identical"], []),
}


def fail(msg):
    print("FAIL:", msg)
    sys.exit(1)


def check_benchmark_json(spec):
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != want:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or len(w["why"]) > 200:
            fail(f"bad workload entry {w}")
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            if set(m) != keys or not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
                fail(f"bad {group} entry {m}")
            if m["better"] not in ("lower", "higher"):
                fail(f"bad direction in {m}")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                fail(f"bound out of range in {m}")
            if m["name"] in names:
                fail(f"metric {m['name']} listed twice")
            names.add(m["name"])
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]):
        fail("no setup_s metric")
    if {w["name"] for w in spec["workloads"]} != set(CHECKS):
        fail("BENCHMARK.json and the smoke test name different workloads")


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_benchmark_json(spec)
    digests = {}
    for workload, (checks, traced_checks) in CHECKS.items():
        for trace in (0, 1):
            lines, result = run(workload, trace)
            tag = f"{workload} trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{tag}: correct={result['correct']} failed={result['failed']} "
                     f"attempted={result['attempted']}")
            listed = spec["per_layer" if trace else "end_to_end"]
            if set(result["metrics"]) != {m["name"] for m in listed}:
                fail(f"{tag}: metrics {sorted(result['metrics'])}")
            for m in listed:
                got = result["metrics"][m["name"]]
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)) \
                        or not math.isfinite(got["value"]):
                    fail(f"{tag}: metric {m['name']} printed as {got}")
            ran = {}
            for line in lines:
                hit = re.match(r"^check (\S+): (\d+) checked, (\d+) failed$", line)
                if hit:
                    ran[hit.group(1)] = (int(hit.group(2)), int(hit.group(3)))
            for name in checks + (traced_checks if trace else []):
                if ran.get(name, (0, 0))[0] == 0:
                    fail(f"{tag}: check {name} did not run")
            # serve reports its coverage without gating it (perfbench/README.md).
            gated = workload != "serve"
            if trace and gated and not any(l.startswith("check trace.coverage:") and
                                           l.endswith(": ok") for l in lines):
                fail(f"{tag}: coverage check missing or failed")
            if trace and not gated and not any(l.startswith("trace.coverage:") for l in lines):
                fail(f"{tag}: coverage not reported")
            for line in lines:
                if line.startswith("whatif.cells_digest "):
                    digests[trace] = line.split()[1]
            print(f"ok: {tag}: {len(result['metrics'])} metrics, "
                  f"{sum(c for c, _ in ran.values())} checked operations")
    if digests.get(0) != digests.get(1):
        fail(f"whatif cells differ traced vs untraced: {digests}")
    print("ok: whatif cells identical traced and untraced")


if __name__ == "__main__":
    main()
