#!/usr/bin/env bash
# e2e_smoke.sh — the end-to-end deployment gate, shared verbatim by the CI
# `e2e` job and local development.
#
# 1. Builds the sss-server, sss-bench and sss-client binaries.
# 2. Boots a 3-node cluster with -metrics-addr, drives commits through it,
#    and scrapes every node's /metrics: `sss-client top -once` gates the
#    required-series contract, then a python check asserts the values
#    reconcile (nonzero sss_commits_total, stage histogram counts equal to
#    it, a WAL that synced and never failed — the nodes run durable, with
#    -data-dir — sss_commitlog_entries served and no larger than the
#    smoke's concurrent transactions (one), a nonzero sss_tombstones gauge,
#    an sss_rpc_pending gauge, and the three abort-cause counters
#    sss_update_read_waits_total, sss_no_vote_locks_total and
#    sss_no_vote_stale_total), that the page is live
#    (sss_transport_flushes_total advances between two scrapes), and that
#    each node keeps one outbound link per peer (sss_transport_dials_total
#    <= 2 on the healthy, never-restarted cluster).
# 3. Runs the multi-process e2e suite (internal/harness): boots a real
#    3-node TCP cluster, checks cross-node write visibility, read-only
#    snapshot coherence under concurrent transfers, that abrupt client
#    disconnects abort their transactions instead of wedging writers, and
#    kill-and-restart recovery (TestCrashRestartRecovery: SIGKILL a durable
#    node mid-load, restart it, assert it rejoins with the bank invariant
#    and snapshot monotonicity intact).
# 4. Runs one short in-process `sss-bench -figure 5 -json` and pipes the
#    snapshot through scripts/check_bench_json.sh. (The TCP cluster's own
#    benchmark is benchmark/run.sh; the fsync-per-commit budget is asserted
#    by harness.TestMetricsExposition in step 3.)
#
# Usage: scripts/e2e_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

bin_dir="$(mktemp -d)"
out_dir="$(mktemp -d)"
server_pids=""
cleanup() {
  # shellcheck disable=SC2086 # pid list is intentionally word-split
  [ -n "$server_pids" ] && kill $server_pids 2>/dev/null || true
  rm -rf "$bin_dir" "$out_dir"
}
trap cleanup EXIT

echo "== building binaries =="
go build -o "$bin_dir/sss-server" ./cmd/sss-server
go build -o "$bin_dir/sss-bench" ./cmd/sss-bench
go build -o "$bin_dir/sss-client" ./cmd/sss-client

echo "== live /metrics scrape gate (3-node cluster) =="
# CI tests the surface it just shipped: boot a real cluster with the
# metrics endpoint on, drive commits through it, and assert the exposition
# page carries the load-bearing series with reconciling values — nonzero
# commit counter, stage histogram counts equal to it, a WAL that synced and
# never failed. The nodes run durable so the WAL series carry real values.
peers="127.0.0.1:7460,127.0.0.1:7461,127.0.0.1:7462"
for i in 0 1 2; do
  mkdir -p "$out_dir/data$i"
  "$bin_dir/sss-server" -id "$i" -peers "$peers" -data-dir "$out_dir/data$i" \
    -client-addr "127.0.0.1:846$i" -metrics-addr "127.0.0.1:946$i" \
    > "$out_dir/metrics-node$i.log" 2>&1 &
  server_pids="$server_pids $!"
done
for i in 0 1 2; do
  for _ in $(seq 1 50); do
    "$bin_dir/sss-client" -addr "127.0.0.1:846$i" ping >/dev/null 2>&1 && break
    sleep 0.2
  done
  "$bin_dir/sss-client" -addr "127.0.0.1:846$i" ping >/dev/null
done
# First scrape, before the load: the transport counters must move past it.
flushes_before="$(
  for i in 0 1 2; do
    python3 -c "
import urllib.request
page = urllib.request.urlopen('http://127.0.0.1:946$i/metrics', timeout=5).read().decode()
print(next(l.split()[1] for l in page.splitlines() if l.startswith('sss_transport_flushes_total ')))"
  done
)"
for i in 0 1 2; do
  for k in $(seq 1 8); do
    "$bin_dir/sss-client" -addr "127.0.0.1:846$i" set "smoke$i-$k" "v$k" >/dev/null
  done
done
# The top subcommand's -once mode is the series-presence gate: it exits
# nonzero if any node is down or missing a required series.
"$bin_dir/sss-client" top -once 127.0.0.1:9460 127.0.0.1:9461 127.0.0.1:9462
FLUSHES_BEFORE="$flushes_before" python3 - <<'EOF'
import os
import urllib.request

flushes_before = [float(v) for v in os.environ["FLUSHES_BEFORE"].split()]
total_commits = 0
for i in range(3):
    page = urllib.request.urlopen(f"http://127.0.0.1:946{i}/metrics", timeout=5).read().decode()
    samples = {}
    for line in page.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key, _, val = line.rpartition(" ")
        samples[key] = float(val)
    commits = samples["sss_commits_total"]
    for stage in ("vote", "decide", "freeze"):
        count = samples[f"sss_stage_{stage}_seconds_count"]
        assert count == commits, \
            f"node {i}: sss_stage_{stage}_seconds_count {count} != sss_commits_total {commits}"
    assert samples["sss_wal_sync_failures_total"] == 0, \
        f"node {i}: WAL sync failures on a healthy cluster"
    assert samples["sss_wal_syncs_total"] > 0, \
        f"node {i}: no WAL syncs on a durable cluster"
    # Retained-state gauges: every node is a write replica of some smoke
    # key, so each retains decide tombstones. The NLog keeps only commits
    # whose freeze has not landed, at most one per update in flight, and
    # the smoke's sets run one at a time.
    for gauge in ("sss_commitlog_entries", "sss_tombstones"):
        assert gauge in samples, f"node {i}: {gauge} missing from /metrics"
    assert samples["sss_tombstones"] > 0, \
        f"node {i}: sss_tombstones = {samples['sss_tombstones']} after the load"
    concurrent = 1
    assert samples["sss_commitlog_entries"] <= concurrent, \
        f"node {i}: sss_commitlog_entries = {samples['sss_commitlog_entries']} > {concurrent} concurrent update"
    # The pending-call table may be empty once the load settles; the gauge
    # must still be served.
    assert "sss_rpc_pending" in samples, f"node {i}: sss_rpc_pending missing from /metrics"
    # The abort causes: update reads that waited out a prepared writer, and
    # no-votes split by lock timeout and failed validation. A smoke load
    # may leave them all zero; they must still be served.
    for counter in ("sss_update_read_waits_total", "sss_no_vote_locks_total", "sss_no_vote_stale_total"):
        assert counter in samples, f"node {i}: {counter} missing from /metrics"
    flushes = samples["sss_transport_flushes_total"]
    assert flushes > flushes_before[i], \
        f"node {i}: sss_transport_flushes_total frozen at {flushes} across the load"
    # One outbound connection per peer carries every message kind: on this
    # healthy cluster (no node restarted) a node dials each of its two
    # peers at most once.
    dials = samples["sss_transport_dials_total"]
    assert dials <= 2, \
        f"node {i}: sss_transport_dials_total {dials} > 2: more than one link per peer"
    total_commits += commits
assert total_commits >= 24, f"cluster committed {total_commits} < 24 issued updates"
print(f"metrics gate: {total_commits:.0f} commits, stage counts reconcile, WALs sync, retained-state gauges (NLog within the load's concurrency, tombstones nonzero) and abort-cause counters served, transport counters advance, and at most one dial per peer on all 3 nodes")
EOF
# shellcheck disable=SC2086
kill $server_pids 2>/dev/null || true
wait 2>/dev/null || true
server_pids=""

echo "== multi-process e2e suite (3-node TCP cluster) =="
SSS_E2E_BIN="$bin_dir/sss-server" go test -count=1 -v ./internal/harness | tee "$out_dir/harness.log"
# The restart smoke must prove the at-least-once link path ran: survivors
# rewrite the batches their stale conns to the killed node swallowed, and
# the test logs the SIGTERM-dump total (it also fails itself on zero —
# this guards against the log line silently disappearing).
grep -Eq 'restart smoke: batchResends=[1-9][0-9]*' "$out_dir/harness.log" || {
  echo "e2e_smoke: restart smoke logged no batch resends" >&2
  exit 1
}

echo "== in-process sss-bench smoke (figure 5 -> schema gate) =="
(
  cd "$out_dir" # the JSON snapshot lands here, not in the checkout
  "$bin_dir/sss-bench" -figure 5 -duration 100ms -warmup 50ms -json
)
scripts/check_bench_json.sh "$out_dir/BENCH_figure5.json"

echo "e2e smoke passed"
