#!/usr/bin/env python3
"""Perf-trajectory gate: compare two bench JSONL records.

Each input is a bench_trajectory.jsonl as produced by the release-bench CI
job: one single-line JSON record per bench binary (fig7 / table1 / table2 /
stream), each carrying wall-time keys somewhere inside. The script pairs up
every wall-time metric that exists in both records — identified by a stable
path such as ``table2_palid/PALID/executors=8/wall_seconds`` — and compares
current against previous:

  * ratio > --fail-ratio (default 1.25): regression, exit 1
  * ratio > --warn-ratio (default 1.10): warning, exit 0
  * otherwise: ok

Timings below --min-seconds in *both* records are skipped: micro-timings on
shared CI runners are noise, and a 3 ms -> 5 ms move is not a regression.
Metrics present on only one side (new or retired benches) are reported but
never fail the gate.

Beyond wall times, the script reports (never gates) the incremental-publish
and fan-out counters — rows_reused / clusters_reused / bytes_shared /
bytes_copied / history_ring_bytes / shard_fanout_queries — and
``--require-positive key1,key2`` asserts that the named counters sum to a
positive value across the *current* record: CI uses it to prove the
incremental export cannot silently disable itself.
``--require-max key:limit`` is the ceiling-shaped sibling: every occurrence
of the key across the current records (top level and rows) must be <= limit,
and the key must be present at all — CI gates the span-tracing overhead with
``--require-max trace_overhead_ratio:1.05``. Passing ``-`` as the previous
record skips the ratio gate (counter/max assertions only).

When the previous trajectory is missing or empty (first run on a branch, an
expired CI artifact), ``--baseline-fallback`` names a committed baseline
(bench/baselines/BENCH_seed.json) to gate against instead, at the wider
``--fallback-fail-ratio`` — the seed was recorded on different hardware, so
only order-of-magnitude regressions are actionable. The substitution is
announced with a ``::notice`` line.

``--schema-check`` validates the *current* trajectory against the registry
contract before anything is compared: every line must parse, no JSON object
may carry a duplicate key (a hand-built record that stuttered a field), no
two records may share a "bench" name, a record with a "rows" key must have a
non-empty list of objects, and — with ``--expect-records FILE`` (one name
per line; the output of ``alid_bench --list-records``) — every registered
record must actually be present: a registered benchmark that emitted no JSON
row fails here.
"""

import argparse
import json
import os
import sys


WALL_KEYS = ("wall_seconds", "p95_batch_seconds", "p95_query_seconds",
             "ingest_p95_seconds", "publish_p95_seconds")

# Exactness/telemetry counters: reported (and assertable via
# --require-positive), never ratio-gated — counts move with workloads.
# bytes_shared / bytes_copied are the arena ledger of the snapshot publish
# path: shared > 0 proves the incremental export really aliased its
# predecessor's blocks instead of copying them.
COUNTER_KEYS = ("rows_reused", "clusters_reused", "bytes_shared",
                "bytes_copied", "history_ring_bytes", "shard_fanout_queries")


def reject_duplicate_keys(pairs):
    """object_pairs_hook that fails on a duplicated key in one JSON object."""
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ValueError(f"duplicate key {key!r} in one object")
        seen[key] = value
    return seen


def schema_check(path, expect_path):
    """Registry-contract errors in one trajectory file (empty list = ok)."""
    errors = []
    names = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line,
                                    object_pairs_hook=reject_duplicate_keys)
            except ValueError as error:
                errors.append(f"{path}:{lineno}: {error}")
                continue
            name = record.get("bench")
            if not name:
                errors.append(f"{path}:{lineno}: record has no 'bench' key")
                continue
            if name in names:
                errors.append(f"{path}:{lineno}: duplicate record "
                              f"'{name}' — one benchmark emitted twice or "
                              f"two shards overlapped")
            names.append(name)
            if "rows" in record:
                rows = record["rows"]
                if not isinstance(rows, list) or not rows:
                    errors.append(f"{path}:{lineno}: record '{name}' has an "
                                  f"empty or non-list 'rows' — the sweep "
                                  f"silently produced nothing")
                elif not all(isinstance(r, dict) for r in rows):
                    errors.append(f"{path}:{lineno}: record '{name}' has "
                                  f"non-object rows")
    if expect_path:
        with open(expect_path, "r", encoding="utf-8") as handle:
            expected = [l.strip() for l in handle if l.strip()]
        for name in expected:
            if name not in names:
                errors.append(f"registered record '{name}' is missing from "
                              f"{path} — its benchmark emitted no JSON row")
    if not names:
        errors.append(f"{path}: no records at all")
    return errors


def load_records(path):
    """bench-name -> parsed record, from a JSONL file."""
    records = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                print(f"warning: skipping unparsable line in {path}: {error}")
                continue
            name = record.get("bench")
            if name:
                records[name] = record
    return records


def row_label(row):
    """A stable, human-readable identity for one sweep row."""
    parts = []
    for key in ("method", "regime", "dataset", "mode", "window", "batch",
                "executors"):
        if key in row:
            parts.append(f"{key}={row[key]}")
    return "/".join(parts) if parts else "row"


def sum_counters(records):
    """{counter-key: summed value} across every record, rows included."""
    totals = {key: 0 for key in COUNTER_KEYS}
    for record in records.values():
        for key in COUNTER_KEYS:
            if isinstance(record.get(key), (int, float)):
                totals[key] += record[key]
        for row in record.get("rows", []):
            if not isinstance(row, dict):
                continue
            for key in COUNTER_KEYS:
                if isinstance(row.get(key), (int, float)):
                    totals[key] += row[key]
    return totals


def report_counters(prev_records, curr_records):
    prev = sum_counters(prev_records) if prev_records else None
    curr = sum_counters(curr_records)
    for key in COUNTER_KEYS:
        if prev is not None and prev[key] != curr[key]:
            print(f"info {key}: {prev[key]} -> {curr[key]}")
        else:
            print(f"info {key}: {curr[key]}")
    return curr


def collect_key_values(records, key):
    """Every numeric occurrence of `key`, labelled, across records and rows."""
    found = []
    for record in records.values():
        bench = record.get("bench", "bench")
        if isinstance(record.get(key), (int, float)):
            found.append((f"{bench}/{key}", float(record[key])))
        for row in record.get("rows", []):
            if isinstance(row, dict) and isinstance(row.get(key),
                                                    (int, float)):
                found.append((f"{bench}/{row_label(row)}/{key}",
                              float(row[key])))
    return found


def parse_require_max(spec):
    """'key:limit,key:limit' -> [(key, float limit)]; ValueError on garbage."""
    pairs = []
    for item in (p for p in spec.split(",") if p):
        key, sep, limit = item.partition(":")
        if not sep or not key:
            raise ValueError(f"--require-max entry {item!r} is not key:limit")
        pairs.append((key, float(limit)))
    return pairs


def flatten(record):
    """{metric-path: seconds} for every wall-time leaf of one record."""
    out = {}
    bench = record.get("bench", "bench")
    for key in WALL_KEYS:
        if isinstance(record.get(key), (int, float)):
            out[f"{bench}/{key}"] = float(record[key])
    for row in record.get("rows", []):
        if not isinstance(row, dict):
            continue
        label = row_label(row)
        for key in WALL_KEYS:
            if isinstance(row.get(key), (int, float)):
                out[f"{bench}/{label}/{key}"] = float(row[key])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("previous", help="previous bench_trajectory.jsonl")
    parser.add_argument("current", help="current bench_trajectory.jsonl")
    parser.add_argument("--fail-ratio", type=float, default=1.25,
                        help="fail when current/previous exceeds this")
    parser.add_argument("--warn-ratio", type=float, default=1.10,
                        help="warn when current/previous exceeds this")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="ignore metrics below this in both records")
    parser.add_argument("--require-positive", default="",
                        help="comma-separated counter keys whose sum across "
                             "the current record must be > 0")
    parser.add_argument("--require-max", default="",
                        help="comma-separated key:limit pairs; every "
                             "occurrence of key across the current records "
                             "(top level and rows) must be <= limit, and the "
                             "key must appear at least once — CI gates "
                             "trace_overhead_ratio:1.05 with this")
    parser.add_argument("--baseline-fallback", default="",
                        help="committed baseline JSONL to gate against when "
                             "the previous trajectory is missing or empty")
    parser.add_argument("--fallback-fail-ratio", type=float, default=3.0,
                        help="fail ratio while gating against the committed "
                             "baseline (different hardware)")
    parser.add_argument("--schema-check", action="store_true",
                        help="validate the current trajectory against the "
                             "registry contract (parse, duplicate keys, "
                             "duplicate/empty records) before comparing")
    parser.add_argument("--expect-records", default="",
                        help="with --schema-check: file of record names "
                             "(alid_bench --list-records) that must all be "
                             "present")
    args = parser.parse_args()

    if args.schema_check:
        errors = schema_check(args.current, args.expect_records)
        for error in errors:
            print(f"SCHEMA {error}")
        if errors:
            print(f"schema check FAILED: {len(errors)} contract violations")
            return 1
        print("schema check ok")

    prev_records = {}
    if args.previous != "-":
        if os.path.exists(args.previous):
            prev_records = load_records(args.previous)
        if not prev_records and args.baseline_fallback:
            if os.path.exists(args.baseline_fallback):
                prev_records = load_records(args.baseline_fallback)
                args.fail_ratio = args.fallback_fail_ratio
                print(f"::notice::no previous bench trajectory at "
                      f"'{args.previous}' — gating against the committed "
                      f"baseline {args.baseline_fallback} at the wider "
                      f"x{args.fail_ratio:.1f} ratio (it was recorded on "
                      f"different hardware)")
            else:
                print(f"warning: baseline fallback "
                      f"{args.baseline_fallback} does not exist either")
    curr_records = load_records(args.current)
    previous = {}
    for record in prev_records.values():
        previous.update(flatten(record))
    current = {}
    for record in curr_records.values():
        current.update(flatten(record))

    totals = report_counters(prev_records, curr_records)
    required = [k for k in args.require_positive.split(",") if k]
    missing = [k for k in required if totals.get(k, 0) <= 0]
    if missing:
        print(f"counter assertion FAILED: expected > 0 for {missing} "
              f"(an optimization silently disabled itself?)")
        return 1
    if required:
        print(f"counter assertion ok: {required} all positive")

    try:
        max_pairs = parse_require_max(args.require_max)
    except ValueError as error:
        print(f"error: {error}")
        return 2
    for key, limit in max_pairs:
        found = collect_key_values(curr_records, key)
        if not found:
            print(f"max assertion FAILED: key '{key}' absent from the "
                  f"current records — the metric stopped being emitted")
            return 1
        over = [(label, value) for label, value in found if value > limit]
        for label, value in over:
            print(f"FAIL {label}: {value:.4f} > {limit:.4f}")
        if over:
            print(f"max assertion FAILED: {len(over)} occurrences of "
                  f"'{key}' exceed {limit:.4f}")
            return 1
        worst = max(value for _, value in found)
        print(f"max assertion ok: {key} <= {limit:.4f} "
              f"({len(found)} occurrences, worst {worst:.4f})")

    if args.previous == "-":
        print("no previous record requested — ratio gate skipped")
        return 0
    if not previous:
        print("no previous wall-time metrics found — nothing to gate")
        return 0
    if not current:
        print("error: current record carries no wall-time metrics")
        return 1

    failures, warnings, compared = [], [], 0
    for path in sorted(set(previous) & set(current)):
        prev, curr = previous[path], current[path]
        if prev < args.min_seconds and curr < args.min_seconds:
            continue
        compared += 1
        ratio = curr / prev if prev > 0 else float("inf")
        line = f"{path}: {prev:.3f}s -> {curr:.3f}s (x{ratio:.2f})"
        if ratio > args.fail_ratio:
            failures.append(line)
            print(f"FAIL {line}")
        elif ratio > args.warn_ratio:
            warnings.append(line)
            print(f"WARN {line}")
        else:
            print(f"  ok {line}")
    for path in sorted(set(current) - set(previous)):
        print(f" new {path}: {current[path]:.3f}s (no baseline)")
    for path in sorted(set(previous) - set(current)):
        print(f"gone {path} (was {previous[path]:.3f}s)")

    print(f"\ncompared {compared} metrics: "
          f"{len(failures)} regressions, {len(warnings)} warnings")
    if failures:
        print(f"perf-trajectory gate FAILED "
              f"(>{args.fail_ratio:.2f}x on {len(failures)} metrics)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
