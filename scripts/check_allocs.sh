#!/usr/bin/env bash
# check_allocs.sh — allocs/op regression guard for the hot paths.
#
# Runs the named benchmarks with -benchmem and fails if any exceeds its
# recorded allocs/op ceiling (check) or B/op ceiling (check_bytes).
# Ceilings are the measured value plus slack for cross-machine variance;
# lower them when the paths get leaner, never raise them without a recorded
# justification in the change that raises them.
#
# Usage: scripts/check_allocs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# check <package> <bench regex> <benchtime> <ceiling allocs/op> ...
# Each extra pair after the benchtime is "<bench-name-substring> <ceiling>".
check() {
  local pkg=$1 regex=$2 benchtime=$3
  shift 3
  local out
  out=$(go test -run xxx -bench "$regex" -benchtime "$benchtime" -benchmem "$pkg")
  echo "$out" | grep -E '^Benchmark' || true
  while (($# >= 2)); do
    local name=$1 ceiling=$2
    shift 2
    local allocs
    allocs=$(echo "$out" | awk -v name="$name" '$1 ~ name { print $(NF-1); exit }')
    if [[ -z "$allocs" ]]; then
      echo "FAIL: benchmark matching $name not found in $pkg output" >&2
      fail=1
      continue
    fi
    if ((allocs > ceiling)); then
      echo "FAIL: $name allocs/op = $allocs exceeds ceiling $ceiling" >&2
      fail=1
    else
      echo "ok: $name allocs/op = $allocs (ceiling $ceiling)"
    fi
  done
}

# check_bytes <package> <bench regex> <benchtime> <bench-name-substring> <ceiling B/op>
check_bytes() {
  local pkg=$1 regex=$2 benchtime=$3 name=$4 ceiling=$5
  local out bytes
  out=$(go test -run xxx -bench "$regex" -benchtime "$benchtime" -benchmem "$pkg")
  echo "$out" | grep -E '^Benchmark' || true
  bytes=$(echo "$out" | awk -v name="$name" '$1 ~ name { print $(NF-3); exit }')
  if [[ -z "$bytes" ]]; then
    echo "FAIL: benchmark matching $name not found in $pkg output" >&2
    fail=1
  elif ((bytes > ceiling)); then
    echo "FAIL: $name B/op = $bytes exceeds ceiling $ceiling" >&2
    fail=1
  else
    echo "ok: $name B/op = $bytes (ceiling $ceiling)"
  fi
}

# Read-only transaction end-to-end (Begin + reads + Commit). Seed was 33
# (ops=1) and 100 (ops=4) allocs/op; the PR-2 diet brought them to 27/64, the
# PR-4 transport-channel pooling to 25/58, they measured 25/56 with the
# goroutine-free fan-out (transport.Multi), and 20/51 once an RPC deadline
# became a time on the fan-out's pooled timer instead of a context.
check ./internal/engine 'BenchmarkReadOnlyTxn/ops' 2000x \
  'BenchmarkReadOnlyTxn/ops=1' 23 \
  'BenchmarkReadOnlyTxn/ops=4' 57

# Update transaction end-to-end (Begin + read-modify-writes + Commit through
# prepare, piggybacked decide+drain, the freeze fan-out and the purge
# notifications). Pre-diet baseline was 114/133 (local) and 184 (remote)
# allocs/op; the write-side diet (commit scratch, pooled RPC reply channels,
# goroutine-free fan-out, batch reuse, single-replica update reads) measured
# 79/96 and 124, 78/96 and 123 once a decide's tombstone became a bit instead
# of a map entry, 58/76 and 91 once RPC deadlines stopped allocating a
# context each, and 59-60/77-78 and 84 once the freeze became a plain fan-out
# instead of a per-peer commit queue: no waiter channel per write replica,
# but a local commit's purge is its own envelope, which sometimes spills
# onto a transport goroutine. An update read of a key the coordinator
# replicates is served inline, with no request, reply or envelope: 50-54,
# 62-66 and 75 over 31 runs (parent 58-59, 77-78 and 82). The spread left
# is the commit's own self-sends spilling (1.1-1.7 spills per local
# commit, down from 1.7-2.4).
check ./internal/engine 'BenchmarkUpdateTxnCommit' 2000x \
  'BenchmarkUpdateTxnCommit/ops=1' 54 \
  'BenchmarkUpdateTxnCommit/ops=2' 66 \
  'BenchmarkUpdateTxnCommitRemote' 75

# One three-leg RPC fan-out and its wait (transport.RPC.Gather, in-process,
# latency off): the pooled Multi carries its reply channel and deadline
# timer, so a call allocates nothing. A context per call cost 5 allocs/op.
check ./internal/transport 'BenchmarkRPCGather' 5000x \
  'BenchmarkRPCGather' 0

# Client path over loopback TCP (wire codec, coalescing send queue, reply
# demux; the server side of the connection is included). Measured 60/73/130
# allocs/op when the lane was added (PR-6: auto-batching + one-round
# SnapshotRead). The update transaction measured 96 while each Write was a
# request with its own reply, and 88 once the writes ride the read and the
# commit; a read is now a key list answered by a value list, so the
# interactive read-only transaction measures 53 (was 49).
check ./client 'BenchmarkClientPath' 2000x \
  'BenchmarkClientPath/ro-txn' 70 \
  'BenchmarkClientPath/snapshot-read' 85 \
  'BenchmarkClientPath/update-txn' 88

# Lock table: the single-key and canonicalizing acquire paths and release
# are allocation-free (pooled scratch, recycled lock states, waiter-gated
# broadcasts), and so is an update read's wait check on a free key.
check ./internal/lockmgr 'BenchmarkAcquire/|BenchmarkRelease|BenchmarkWaitUnlocked' 5000x \
  'BenchmarkAcquire/single' 0 \
  'BenchmarkAcquire/multi' 0 \
  'BenchmarkAcquire/sharedOnly' 0 \
  'BenchmarkRelease' 0 \
  'BenchmarkWaitUnlocked' 0

# Commitlog bound queries (a scan of the uncovered NLog entries, a few in
# steady state and DefaultCapacity at worst) and lock-free clock reads: one
# result clock per query, zero for the in-place folds.
check ./internal/commitlog 'BenchmarkVisibleMax/(steady|worst)/' 300x \
  'BenchmarkVisibleMax/steady/unconstrained' 1 \
  'BenchmarkVisibleMax/steady/bounded' 1 \
  'BenchmarkVisibleMax/steady/excluded' 1 \
  'BenchmarkVisibleMax/worst/unconstrained' 1 \
  'BenchmarkVisibleMax/worst/bounded' 1 \
  'BenchmarkVisibleMax/worst/excluded' 1
check ./internal/commitlog 'BenchmarkClockReads' 2000x \
  'BenchmarkClockReads/SnapshotVC' 1 \
  'BenchmarkClockReads/AppliedSelf' 0 \
  'BenchmarkClockReads/FoldExternalInto' 0

# Commitlog construction at the default capacity: the NLog grows with its
# uncovered entries, so an idle node's log is its clocks only. Measured
# 504 B/op; the bucketed visibility index it replaced was 30 624, and the
# pre-sized ring and index before that 6 145 922.
check_bytes ./internal/commitlog '^BenchmarkNew$' 2000x 'BenchmarkNew' 1024

# Tombstones: a steady-state tombstone and lookup reuse the window's
# words (a window slides in place at its cap), so they allocate nothing.
check ./internal/engine 'BenchmarkTombstone' 200000x \
  'BenchmarkTombstone' 0

# The shared send queue (internal/batchq) behind the TCP peer streams,
# in-process pipes and client connections: a
# steady-state push and take reuse the queue's and the batch's backing
# arrays, so they allocate nothing.
check ./internal/batchq 'BenchmarkQueue' 10000x \
  'BenchmarkQueue' 0

# Client protocol codec: a framed one-key Read carrying one write and its
# one-value reply (100-byte values) written and read back. Measured 7
# allocs/op: the decoded read key, write key, write value and reply value,
# and the three lists holding them (keys, writes, values). Until the
# protocol lost its Write request the benchmark framed a Write and a
# one-value reply, with no lists: 3 allocs/op (5 while each frame write
# heap-allocated its length header).
check ./internal/clientproto '^BenchmarkCodecRoundTrip$' 20000x \
  'BenchmarkCodecRoundTrip' 7

# Peer message encoding: one envelope, and a batch frame of envelopes, into
# a pooled buffer allocate nothing (measured 0 and 0).
check ./internal/wire '^BenchmarkEncode(Envelope|Batch)$' 10000x \
  'BenchmarkEncodeEnvelope' 0 \
  'BenchmarkEncodeBatch' 0

# WAL record encoding: a prepare of three writes and two dependencies into
# a reused buffer allocates nothing.
check ./internal/wal '^BenchmarkAppendPayload$' 20000x \
  'BenchmarkAppendPayload' 0

exit $fail
