#!/usr/bin/env bash
# check_bench_json.sh — schema gate for the committed BENCH_*.json
# trajectory snapshots, run in CI so a bench-harvest refactor cannot
# silently commit malformed figure data.
#
# Checks, per snapshot file:
#   - top-level shape: name, generated_at, duration_ns, non-empty points
#   - per point: required identity fields (series, engine, nodes,
#     replication_degree, clients_per_node, keys), sane measurements
#     (throughput >= 0, abort_rate in [0,1]), and complete latency
#     histograms (count/mean_ns/p50_ns/p99_ns/max_ns with p50<=p99<=max)
#   - monotone series: within one series, in file order, the x-axis tuple
#     (nodes, clients_per_node, read_only_ops) strictly increases — figures
#     3, 6 and 7 sweep nodes, 4(b) and 5 clients per node, 8 the read-only
#     size, each with the others fixed
#   - optional per-stage breakdown ("stages"): same histogram shape per leg
#
# Usage: scripts/check_bench_json.sh [file...]   (default: BENCH_*.json)
set -euo pipefail
cd "$(dirname "$0")/.."

files=("$@")
if [ ${#files[@]} -eq 0 ]; then
  files=(BENCH_*.json)
fi

python3 - "${files[@]}" <<'EOF'
import json
import sys

HIST_FIELDS = ("count", "mean_ns", "p50_ns", "p99_ns", "max_ns")
STAGE_KEYS = ("vote", "decide", "freeze", "purge", "wal_sync", "client_ack")


def fail(msg):
    print(f"check_bench_json: {msg}", file=sys.stderr)
    sys.exit(1)


def check_hist(where, h):
    if not isinstance(h, dict):
        fail(f"{where}: expected a latency object, got {type(h).__name__}")
    for f in HIST_FIELDS:
        if f not in h:
            fail(f"{where}: missing {f}")
        if not isinstance(h[f], (int, float)) or h[f] < 0:
            fail(f"{where}: {f} = {h[f]!r} is not a non-negative number")
    if h["count"] > 0 and not (h["p50_ns"] <= h["p99_ns"] <= h["max_ns"]):
        fail(f"{where}: quantiles out of order: "
             f"p50={h['p50_ns']} p99={h['p99_ns']} max={h['max_ns']}")


def check_file(path):
    with open(path) as f:
        doc = json.load(f)
    for field in ("name", "generated_at", "duration_ns", "points"):
        if field not in doc:
            fail(f"{path}: missing top-level {field}")
    points = doc["points"]
    if not isinstance(points, list) or not points:
        fail(f"{path}: points must be a non-empty list")

    last_x = {}  # series -> last x-axis tuple seen, for monotonicity
    for i, p in enumerate(points):
        where = f"{path} point {i}"
        for field, lo in (("nodes", 1), ("replication_degree", 1),
                          ("clients_per_node", 1), ("keys", 1)):
            if not isinstance(p.get(field), int) or p[field] < lo:
                fail(f"{where}: {field} = {p.get(field)!r}, want int >= {lo}")
        for field in ("series", "engine"):
            if not isinstance(p.get(field), str) or not p[field]:
                fail(f"{where}: {field} missing or empty")
        if not isinstance(p.get("throughput_txn_s"), (int, float)) or p["throughput_txn_s"] < 0:
            fail(f"{where}: throughput_txn_s = {p.get('throughput_txn_s')!r}")
        if not 0 <= p.get("abort_rate", -1) <= 1:
            fail(f"{where}: abort_rate = {p.get('abort_rate')!r}, want [0,1]")
        for field in ("commits", "read_only", "aborts"):
            if not isinstance(p.get(field), int) or p[field] < 0:
                fail(f"{where}: {field} = {p.get(field)!r}")
        for field in ("update_latency", "read_only_latency"):
            if field not in p:
                fail(f"{where}: missing {field}")
            check_hist(f"{where} {field}", p[field])
        if "stages" in p and p["stages"] is not None:
            for leg in STAGE_KEYS:
                if leg not in p["stages"]:
                    fail(f"{where} stages: missing leg {leg}")
                check_hist(f"{where} stages.{leg}", p["stages"][leg])

        series = p["series"]
        x = (p["nodes"], p["clients_per_node"], p.get("read_only_ops", 0))
        if series in last_x and x <= last_x[series]:
            fail(f"{where}: series {series!r} (nodes, clients_per_node, "
                 f"read_only_ops) = {x} does not increase past "
                 f"{last_x[series]} — trajectory points out of order or "
                 "duplicated")
        last_x[series] = x

    print(f"check_bench_json: {path}: {len(points)} points, "
          f"{len(last_x)} series OK")


for path in sys.argv[1:]:
    check_file(path)
EOF
