#!/usr/bin/env python3
"""CI gate for the ROADMAP's parallel-speedup claim — label-driven.

Selects executor sweeps out of the bench trajectory by the ``labels`` key the
benchmark registry injects into every JSON record (a benchmark opts in by
registering the ``speedup`` label) instead of hard-coding record names, so a
new benchmark joins this gate by registering — never by editing this script.

Two layers:

* **Structure** (always checked, any core count): every ``speedup``-labeled
  record whose rows carry an ``executors`` key must contain a real sweep —
  at least two distinct executor widths, each with a wall_seconds — and at
  least one record in the whole trajectory must carry rows marked
  ``gate_speedup``. A pooled bench (table2/fig7/serve/shard) that silently
  stopped sweeping executors fails here even on a 1-core runner. The
  single-stream benches (stream, scenario_*) post no pool job, run once
  per configuration and carry no ``speedup`` label, so this layer does not
  see them.

* **Ratio** (skipped below --min-cores): rows marked ``"gate_speedup":true``
  (the PALID executor rows) are grouped into sweeps and the widest
  width's wall time must be at most --max-ratio times the narrowest's.
  The ROADMAP claims >=3x on real 8-core hardware; the default 2x bound
  leaves headroom for shared CI runners. Unmarked sweep rows (baselines,
  serve/shard rows) are reported, never ratio-gated — on a shared 1-core
  host their executor axis only moves scheduling counters.
"""

import argparse
import json
import os
import sys


def load_records(path):
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("bench"):
                records.append(record)
    return records


def labels_of(record):
    return [l for l in str(record.get("labels", "")).split(",") if l]


def sweep_key(row):
    """Groups one record's rows into sweeps: identity minus the executor
    axis (method/mode/dataset/batch/window distinguish parallel sweeps)."""
    return tuple((k, row[k]) for k in ("method", "mode", "regime", "dataset",
                                       "batch", "window") if k in row)


def collect_sweeps(record):
    """{sweep-key: {executors: (wall_seconds, gated)}} for one record."""
    sweeps = {}
    for row in record.get("rows", []):
        if not isinstance(row, dict) or "executors" not in row:
            continue
        if not isinstance(row.get("wall_seconds"), (int, float)):
            continue
        sweeps.setdefault(sweep_key(row), {})[int(row["executors"])] = (
            float(row["wall_seconds"]), bool(row.get("gate_speedup")))
    return sweeps


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trajectory", help="bench_trajectory.jsonl")
    parser.add_argument("--min-cores", type=int, default=4,
                        help="skip the ratio gate (not the structural check) "
                             "below this many CPUs")
    parser.add_argument("--max-ratio", type=float, default=0.5,
                        help="fail when wall(widest) / wall(narrowest) "
                             "exceeds this on a gate_speedup sweep")
    args = parser.parse_args()

    records = [r for r in load_records(args.trajectory)
               if "speedup" in labels_of(r)]
    if not records:
        print("error: no 'speedup'-labeled records in the trajectory — "
              "either the registry stopped injecting labels or every "
              "speedup benchmark vanished")
        return 1

    structural_errors = []
    gated_sweeps = []   # (bench, sweep-key, {executors: wall})
    report_sweeps = []  # ungated, for the log only
    for record in records:
        bench = record["bench"]
        sweeps = collect_sweeps(record)
        if not sweeps:
            # Records without an executor axis (e.g. a size sweep that rides
            # along in a speedup-labeled benchmark) have nothing to check.
            print(f"note {bench}: no executor-sweep rows (skipped)")
            continue
        multi_width = 0
        for key, widths in sweeps.items():
            name = ",".join(f"{k}={v}" for k, v in key) or "rows"
            if len(widths) < 2:
                # A deliberate single configuration (an ablation row like
                # the serve swap-under-load run) — nothing to ratio; the
                # record-level check below still demands a real sweep
                # somewhere in the record.
                print(f"note {bench}/{name}: single width "
                      f"{sorted(widths)} (not a sweep)")
                continue
            multi_width += 1
            walls = {e: w for e, (w, _) in widths.items()}
            if any(g for _, g in widths.values()):
                gated_sweeps.append((bench, name, walls))
            else:
                report_sweeps.append((bench, name, walls))
        if multi_width == 0:
            structural_errors.append(
                f"{bench}: rows carry an executors key but no sweep spans "
                f"two widths — the executor sweep degenerated")

    for error in structural_errors:
        print(f"FAIL {error}")
    if not gated_sweeps and not structural_errors:
        structural_errors.append(
            "no gate_speedup sweep found in the trajectory — the PALID "
            "executor sweeps stopped marking their rows")
        print(f"FAIL {structural_errors[-1]}")

    def ratio_line(bench, name, walls):
        lo, hi = min(walls), max(walls)
        ratio = walls[hi] / walls[lo] if walls[lo] > 0 else float("inf")
        speedup = 1.0 / ratio if ratio > 0 else float("inf")
        return lo, hi, ratio, (f"{bench}/{name}: wall({lo})="
                               f"{walls[lo]:.3f}s wall({hi})="
                               f"{walls[hi]:.3f}s -> {speedup:.2f}x")

    cores = os.cpu_count() or 1
    ratio_failures = []
    if cores < args.min_cores:
        print(f"::notice::speedup ratio gate skipped: host has {cores} "
              f"cores (< {args.min_cores}); wall-clock speedup is "
              f"core-bound here and the >=3x-at-8-executors claim must be "
              f"validated on multi-core hardware")
    else:
        for bench, name, walls in gated_sweeps:
            _, hi, ratio, line = ratio_line(bench, name, walls)
            verdict = "ok" if ratio <= args.max_ratio else "FAIL"
            print(f"{verdict} {line} "
                  f"(gate: >= {1.0 / args.max_ratio:.1f}x on {cores} cores)")
            if ratio > args.max_ratio:
                ratio_failures.append(f"{bench}/{name}")
    for bench, name, walls in report_sweeps:
        _, _, _, line = ratio_line(bench, name, walls)
        print(f"info {line} (reported, not gated)")

    print(f"\nchecked {len(gated_sweeps)} gated and {len(report_sweeps)} "
          f"reported sweeps across {len(records)} speedup-labeled records")
    if structural_errors:
        print(f"speedup gate FAILED structurally on {len(structural_errors)} "
              f"sweeps")
        return 1
    if ratio_failures:
        print(f"speedup gate FAILED: {ratio_failures} below "
              f"{1.0 / args.max_ratio:.1f}x at the widest executor count")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
