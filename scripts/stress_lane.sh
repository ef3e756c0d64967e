#!/usr/bin/env bash
# stress_lane.sh — the weekly adversarial-stress sweep, extracted from the
# CI stress job so the scheduled lane and a local reproduction run the same
# entrypoint:
#
#   scripts/stress_lane.sh family    # checked-workload family, 60 runs
#   scripts/stress_lane.sh suite     # stress suite minus bank probes, 10 runs
#   scripts/stress_lane.sh bank      # bank-audit sensitivity gauge (informational)
#   scripts/stress_lane.sh nemesis   # crash-restart nemesis, enforced
#   scripts/stress_lane.sh fault     # fault-matrix lanes, 2 attempts each
#   scripts/stress_lane.sh diskfull  # disk-full lane, 1 attempt, 0 tolerated
#   scripts/stress_lane.sh all       # everything, in the CI order
#
# Thresholds and their calibration are documented inline and in
# docs/CONSISTENCY.md §5-7: the consistency families have measured residual
# violation rates that track execution speed, so red means the *rate*
# moved; the nemesis/fault lanes are real-bug detectors and are enforced.
# Per-family fail counts land in stress-report/counts.txt and each failing
# run's full output is kept as stress-report/<family>-run<i>.log.
set -euo pipefail
cd "$(dirname "$0")/.."

report_dir="${STRESS_REPORT_DIR:-stress-report}"
mkdir -p "$report_dir"
# Test binary and scratch logs live in a per-invocation directory, so a run
# always tests the checked-out tree and concurrent runs never share files.
work_dir=$(mktemp -d)
trap 'rm -rf "$work_dir"' EXIT
engine_test="$work_dir/engine.test"
run_log="$work_dir/run.log"

# Built once per invocation, by the first lane that needs it.
build_engine_test() {
  if [ ! -x "$engine_test" ]; then
    go test -c -o "$engine_test" ./internal/engine
  fi
}

# Checked-workload stress family. Measured failing-run rates on recent
# trees: 92-93 of 480 runs, and 56-73 of 300 runs (about 11-15 per 60).
# The threshold of 8/60 is therefore red at the base rate until the
# per-class thresholds of the ROADMAP classifier item land.
lane_family() {
  build_engine_test
  local fails=0 i
  for i in $(seq 1 60); do
    if ! SSS_STRESS=1 "$engine_test" -test.run 'TestCheckedWorkload' -test.timeout 300s > "$run_log" 2>&1; then
      fails=$((fails + 1))
      cp "$run_log" "$report_dir/family-run$i.log"
    fi
  done
  echo "checked-workload-family: $fails/60 (measured base rate ~11-15, threshold 8: red at base rate)" | tee -a "$report_dir/counts.txt"
  test "$fails" -le 8
}

# The suite leaves out the bank probes (lane_bank) and the view-prefix check,
# which fails about half of its runs until the stamp order is total
# (docs/CONSISTENCY.md §6).
lane_suite() {
  build_engine_test
  local fails=0 i
  for i in $(seq 1 10); do
    if ! SSS_STRESS=1 "$engine_test" -test.skip 'TestBank|TestViewPrefix' -test.timeout 600s > "$run_log" 2>&1; then
      fails=$((fails + 1))
      cp "$run_log" "$report_dir/suite-run$i.log"
    fi
  done
  echo "suite-minus-bank: $fails/10 (threshold 9)" | tee -a "$report_dir/counts.txt"
  test "$fails" -le 9
}

# Bank-audit probes: far more sensitive than the family lane, and their
# absolute level tracks engine throughput (docs/CONSISTENCY.md §6), so
# they run as an informational sensitivity gauge — never enforced.
lane_bank() {
  build_engine_test
  local fails=0 i
  for i in $(seq 1 10); do
    if ! SSS_STRESS=1 "$engine_test" -test.run 'TestBank' -test.timeout 600s > "$run_log" 2>&1; then
      fails=$((fails + 1))
      cp "$run_log" "$report_dir/bank-run$i.log"
    fi
  done
  echo "bank-gauge: $fails/10 (speed-tracking gauge, docs/CONSISTENCY.md §6; not enforced)" | tee -a "$report_dir/counts.txt"
}

# Crash-restart nemesis: SIGKILL/restart durable nodes round-robin under
# transfer load. Enforced — any violation is a real durability/recovery bug.
lane_nemesis() {
  set -o pipefail
  SSS_STRESS=1 go test -count=1 -v -timeout 600s -run 'TestCrashRestart' ./internal/harness | tee "$report_dir/nemesis.log"
}

# Fault-matrix lanes (docs/ARCHITECTURE.md#fault-matrix): a checker
# violation is a real bug, but a single run can die on harness timing on a
# loaded runner, so each family gets two attempts — red means both failed.
# RestartStorm is not clean at its base rate: uncontended it failed 10 of
# 36 attempts while write replicas synced their freeze records before
# acking and 5 of 16 since they do not, every time with a stale read
# (docs/CONSISTENCY.md §7), so both attempts fail in about one run in ten.
lane_fault() {
  local status=0 fam fails i
  for fam in Partition AsymmetricDelay Pause SlowFsync TornWrite RestartStorm; do
    fails=0
    for i in 1 2; do
      if SSS_STRESS=1 go test -count=1 -v -timeout 900s -run "TestFaultLane${fam}\$" ./internal/harness > "$run_log" 2>&1; then
        break
      fi
      fails=$((fails + 1))
      cp "$run_log" "$report_dir/fault-$fam-run$i.log"
    done
    echo "fault-$fam: $fails/2 attempts failed (threshold 1)" | tee -a "$report_dir/counts.txt"
    test "$fails" -le 1 || status=1
  done
  return $status
}

# Disk-full runs alone at full strictness: its ack-vs-stamp anomaly is
# closed by the freeze-ack discipline (docs/CONSISTENCY.md §7), but a
# stale read remains: uncontended it failed 3 of 56 attempts
# while write replicas synced their freeze records before acking and
# 0 of 16 since they do not. One failure is therefore not by itself a
# regression; a new cycle shape (§7 names the one seen) or a clearly
# higher rate is.
lane_diskfull() {
  if SSS_STRESS=1 go test -count=1 -v -timeout 900s -run 'TestFaultLaneDiskFull$' ./internal/harness > "$run_log" 2>&1; then
    echo "fault-DiskFull: 0/1 attempts failed (threshold 0)" | tee -a "$report_dir/counts.txt"
  else
    cp "$run_log" "$report_dir/fault-DiskFull-run1.log"
    echo "fault-DiskFull: 1/1 attempts failed (threshold 0)" | tee -a "$report_dir/counts.txt"
    return 1
  fi
}

lane="${1:-all}"
case "$lane" in
  family)   lane_family ;;
  suite)    lane_suite ;;
  bank)     lane_bank ;;
  nemesis)  lane_nemesis ;;
  fault)    lane_fault ;;
  diskfull) lane_diskfull ;;
  all)
    status=0
    lane_family || status=1
    lane_suite || status=1
    lane_bank
    lane_nemesis || status=1
    lane_fault || status=1
    lane_diskfull || status=1
    exit $status
    ;;
  *)
    echo "usage: scripts/stress_lane.sh [family|suite|bank|nemesis|fault|diskfull|all]" >&2
    exit 2
    ;;
esac
