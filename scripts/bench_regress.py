#!/usr/bin/env python3
"""Perf-regression sentinel: diff the BENCH_*.json documents a bench run
produced against the committed per-key tolerances in bench/baselines.json.

Each baseline entry names a bench document and, per key, one check:

    "max":    value must be <= max            (overhead budgets)
    "min":    value must be >= min            (throughput floors)
    "equals": value must equal exactly        (guard verdict strings)
    "near":   {"value": V, "abs_tol": T}      (|value - V| <= T)

A missing document or key is reported but never fatal (bench sets vary by
runner: developer machines run subsets).

Exit status: 0 unless CRFS_BENCH_STRICT=1 is set AND at least one check
failed. CI runs the soft mode by default — runner wall-clock noise makes
hard-gating percentages flaky — and flips strict on for release branches.

Usage: bench_regress.py [--baselines bench/baselines.json] [--dir DIR]
"""

import argparse
import json
import os
import sys


def check_key(doc, key, rule):
    """Returns (ok, detail) for one key's rule against one document."""
    if key not in doc:
        return None, f"key '{key}' missing from document"
    value = doc[key]
    if "equals" in rule:
        ok = value == rule["equals"]
        return ok, f"value={value!r} expected={rule['equals']!r}"
    if "max" in rule:
        ok = isinstance(value, (int, float)) and value <= rule["max"]
        return ok, f"value={value} max={rule['max']}"
    if "min" in rule:
        ok = isinstance(value, (int, float)) and value >= rule["min"]
        return ok, f"value={value} min={rule['min']}"
    if "near" in rule:
        target, tol = rule["near"]["value"], rule["near"]["abs_tol"]
        ok = isinstance(value, (int, float)) and abs(value - target) <= tol
        return ok, f"value={value} expected={target}+/-{tol}"
    return None, f"no recognized rule in {rule!r}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baselines", default="bench/baselines.json",
                    help="committed tolerance file (default: bench/baselines.json)")
    ap.add_argument("--dir", default=".",
                    help="directory holding the run's BENCH_*.json (default: cwd)")
    args = ap.parse_args()

    try:
        with open(args.baselines, encoding="utf-8") as f:
            baselines = json.load(f)
    except (OSError, ValueError) as e:
        print(f"BENCH_REGRESS error: cannot read {args.baselines}: {e}")
        return 2

    failed, checked, skipped = 0, 0, 0
    for name, rules in sorted(baselines.items()):
        path = os.path.join(args.dir, name)
        if not os.path.exists(path):
            print(f"BENCH_REGRESS SKIP {name} (not produced by this run)")
            skipped += len(rules)
            continue
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except ValueError as e:
            print(f"BENCH_REGRESS FAIL {name} (unparseable: {e})")
            failed += 1
            continue
        for key, rule in sorted(rules.items()):
            ok, detail = check_key(doc, key, rule)
            if ok is None:
                print(f"BENCH_REGRESS SKIP {name}:{key} ({detail})")
                skipped += 1
                continue
            checked += 1
            verdict = "PASS" if ok else "FAIL"
            print(f"BENCH_REGRESS {verdict} {name}:{key} {detail}")
            if not ok:
                failed += 1

    strict = os.environ.get("CRFS_BENCH_STRICT", "") == "1"
    mode = "strict" if strict else "advisory"
    print(f"BENCH_REGRESS SUMMARY checked={checked} failed={failed} "
          f"skipped={skipped} mode={mode}")
    if failed and strict:
        return 1
    if failed:
        print("BENCH_REGRESS note: failures are advisory; "
              "set CRFS_BENCH_STRICT=1 to gate on them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
