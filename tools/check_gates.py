#!/usr/bin/env python3
"""Enforces the perf gates the benches write into their BENCH_*.json files.

Every bench that carries gates writes them with harness::writeGates as a
top-level "gates" list of {name, value, target, met, skipped, reason}. This
script prints one line per gate and exits 1 when any non-skipped gate has
met == false, or when a named file is missing or has no "gates" list, so a
bench that did not run can never pass silently.

Usage: tools/check_gates.py BENCH_a.json [BENCH_b.json ...]
"""
import json
import sys


def check(path):
    """Prints the gates of one file; returns the number of failures."""
    try:
        with open(path) as f:
            gates = json.load(f)["gates"]
    except (OSError, ValueError, KeyError) as e:
        print(f"FAIL: {path}: no gates list ({e})")
        return 1
    print(f"{path}:")
    failed = 0
    for g in gates:
        line = f"{g['name']} = {g['value']:.2f} (target {g['target']:.2f})"
        if g["skipped"]:
            print(f"  skip: {line} — {g['reason']}")
        elif g["met"]:
            print(f"  ok: {line}")
        else:
            print(f"  FAIL: {line}")
            failed += 1
    return failed


def main(paths):
    if not paths:
        print(__doc__.strip().splitlines()[-1])
        return 2
    failed = sum(check(p) for p in paths)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
