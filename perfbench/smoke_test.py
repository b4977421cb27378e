#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke_test.py

Checks BENCHMARK.json's shape, then runs every workload at tiny size
(--tiny 1, one second) untraced and traced through perfbench/run.py, and
checks that each run exits 0, ends with a well-formed result line, passes
its own output checks, and emits exactly the end-to-end (untraced) or
per-layer (traced) metrics BENCHMARK.json names, with their units. Exits
non-zero on the first failure.
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


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_spec(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200:
            fail(f"workload entry {w}")
        names.add(w["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            fail(f"metric name/unit {m}")
        if m["better"] not in ("higher", "lower"):
            fail(f"metric direction {m}")
        if m["name"] in names:
            fail(f"duplicate name {m['name']}")
        names.add(m["name"])
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            fail(f"bound {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")


def run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace),
                             "--tiny", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        sys.stdout.write(proc.stderr[-3000:])
        fail(f"{tag}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{tag}: no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{tag}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{tag}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{tag}: attempted={result['attempted']}")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    missing = [m["name"] for m in want if m["name"] not in got]
    extra = sorted(set(got) - {m["name"] for m in want})
    if missing or extra:
        fail(f"{tag}: missing {missing}, unexpected {extra}")
    for m in want:
        v = got[m["name"]]
        if v["unit"] != m["unit"]:
            fail(f"{tag}: {m['name']} unit {v['unit']} != {m['unit']}")
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail(f"{tag}: {m['name']} value {v['value']}")
    if not trace:
        for name, v in got.items():
            if v["value"] <= 0:
                fail(f"{tag}: end-to-end {name} is {v['value']}")
    print(f"ok   {tag}: {len(got)} metrics, {result['attempted']} attempted")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            run(spec, w["name"], trace)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
