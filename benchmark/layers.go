package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"github.com/sss-paper/sss/internal/obs"
)

// perLayer is the outside-in cost account: one row per measurement of a
// single layer, taken in the traced run (probe.* rows are timed calls into
// the layer's exported functions). README.md says which end-to-end metric
// each should move, on which workload, and where it should not.
var perLayer = append(slices.Clone(demoted), []def{
	{"p99_samples_beyond", "count", "higher"},

	{"setup.boot_ms", "ms", "lower"},
	{"setup.preload_keys_per_s", "1/s", "higher"},
	{"setup.warmup_s", "s", "lower"},

	{"client.snapshot_read_ms", "ms", "lower"},
	{"client.begin_ms", "ms", "lower"},
	{"client.multi_read_ms", "ms", "lower"},
	{"client.write_ms", "ms", "lower"},
	{"client.commit_ms", "ms", "lower"},
	{"client.requests_per_txn", "count", "lower"},
	{"client.requests_per_flush", "count", "higher"},
	{"client.path_ro_ms", "ms", "lower"},
	{"client.path_upd_ms", "ms", "lower"},
	{"client.cpu_us_per_txn", "us", "lower"},

	{"clientproto.requests_per_txn", "count", "lower"},
	{"clientproto.ack_ms", "ms", "lower"},
	{"clientproto.spills_per_ktxn", "count", "lower"},

	{"engine.ro_ms", "ms", "lower"},
	{"engine.commit_ms", "ms", "lower"},
	{"engine.internal_ms", "ms", "lower"},
	{"engine.precommit_wait_ms", "ms", "lower"},
	{"engine.vote_ms", "ms", "lower"},
	{"engine.decide_ms", "ms", "lower"},
	{"engine.freeze_ms", "ms", "lower"},
	{"engine.purge_ms", "ms", "lower"},
	{"engine.piggyback_ratio", "ratio", "higher"},
	{"engine.freezes_per_batch", "count", "higher"},
	{"engine.external_waits_per_commit", "count", "lower"},
	{"engine.removes_per_ro", "count", "lower"},
	{"engine.abort_ratio", "ratio", "lower"},
	{"engine.drain_timeouts", "count", "lower"},

	{"mvstore.sq_waits_per_commit", "count", "lower"},
	{"mvstore.sq_wait_timeouts", "count", "lower"},
	{"probe.mvstore.apply_ns", "ns", "lower"},
	{"probe.mvstore.read_ro_ns", "ns", "lower"},
	{"probe.mvstore.read_ro_deep_ns", "ns", "lower"},

	{"commitlog.log_waits_per_txn", "count", "lower"},
	{"commitlog.log_wait_timeouts", "count", "lower"},
	{"probe.commitlog.prepare_decide_ns", "ns", "lower"},
	{"probe.commitlog.visible_max_ns", "ns", "lower"},

	{"probe.lockmgr.acquire_release_ns", "ns", "lower"},

	{"wal.syncs_per_commit", "count", "lower"},
	{"wal.records_per_sync", "count", "higher"},
	{"wal.bytes_per_commit", "B", "lower"},
	{"wal.sync_ms", "ms", "lower"},
	{"wal.stage_sync_ms_per_commit", "ms", "lower"},
	{"wal.dir_tmpfs", "count", "higher"},
	{"wal.sync_failures", "count", "lower"},
	{"wal.checkpoints", "count", "lower"},
	{"probe.wal.append_sync_us", "us", "lower"},
	{"probe.wal.records_per_sync_2w", "count", "higher"},

	{"transport.envelopes_per_txn", "count", "lower"},
	{"transport.envelopes_per_flush", "count", "higher"},
	{"transport.flush_us", "us", "lower"},
	{"transport.spills", "count", "lower"},
	{"transport.redials", "count", "lower"},
	{"probe.transport.rpc_rtt_us", "us", "lower"},
	{"probe.wire.encode_ns_per_env", "ns", "lower"},
	{"probe.wire.decode_ns_per_env", "ns", "lower"},
	{"probe.clientproto.codec_ns_per_req", "ns", "lower"},
	{"probe.vclock.max_into_ns", "ns", "lower"},

	{"node0.cpu_us_per_txn", "us", "lower"},
	{"node1.cpu_us_per_txn", "us", "lower"},
	{"node2.cpu_us_per_txn", "us", "lower"},
	{"node.cpu_skew", "ratio", "lower"},
	{"node.rss_growth_mb_per_ktxn", "MB", "lower"},
	{"probe.engine.inproc_ro_us", "us", "lower"},
	{"probe.engine.inproc_upd_us", "us", "lower"},

	{"trace.overhead_ratio", "ratio", "higher"},
	{"trace.spans", "count", "lower"},
	{"trace.driver_self_us_per_txn", "us", "lower"},
	{"check.history_txns", "count", "higher"},
	{"check.violations", "count", "lower"},
	{"check.fractured_reads", "count", "lower"},
	{"env.idle_spinners", "count", "higher"},
}...)

// tracedRun produces the per-layer metrics: one set-up, then on the same
// cluster one window in which span recording alternates on and off every
// traceSlice, the client-history check, and the in-process probes. Every
// transaction since the preload is recorded, so the whole history is checked.
func tracedRun(s spec, seed int64) (*result, error) {
	r := &result{Workload: s.name, Seed: seed, Traced: true, Correct: true, Values: map[string]float64{}}
	v := r.Values
	d, err := deploy(s, seed, true)
	if err != nil {
		return nil, err
	}
	r.absorb(d.warm)
	v["setup.boot_ms"] = d.bootMs
	v["setup.preload_keys_per_s"] = ratio(float64(s.mix.Keys), d.preloadS)
	v["setup.warmup_s"] = d.warmupS
	v["wal.dir_tmpfs"] = onTmpfs(d.hc.Dir())

	before, err := d.sample()
	if err != nil {
		return nil, err
	}
	net0 := d.clientNet()
	self0 := selfCPU()
	epoch := time.Now()
	for _, w := range d.workers {
		w.epoch = epoch
	}
	tallies := d.phase(seed, phaseMeasured, 0, runSeconds*time.Second)
	self1 := selfCPU()
	net1 := d.clientNet()
	after, err := d.sample()
	if err != nil {
		return nil, err
	}
	r.absorb(tallies)
	var spans []span
	observed := d.preloadObs
	for _, w := range d.workers {
		spans = append(spans, w.spans...)
		observed = append(observed, w.obs...)
	}
	if err := d.alive(); err != nil {
		r.problem("%v", err)
	}
	dumps, err := d.shutdown(s.durable)
	if err != nil {
		return nil, err
	}

	w := summarize(tallies)
	txns := float64(w.completed)
	pages := pageDelta{before.page, after.page}
	commits := pages.counter("sss_commits_total")
	roRuns := pages.counter("sss_read_only_runs_total")

	// client: spans around its exported calls, its own wire counters, and
	// what is left of client-observed latency once the server's share is out.
	calls := map[string][]int64{}
	var selfNs int64
	tracedTxns := 0
	for _, sp := range spans {
		if sp.parent < 0 {
			tracedTxns++
			selfNs += sp.endNs - sp.startNs
		} else {
			calls[sp.name] = append(calls[sp.name], sp.endNs-sp.startNs)
			selfNs -= sp.endNs - sp.startNs
		}
	}
	for _, c := range []struct{ metric, span string }{
		{"client.snapshot_read_ms", spanSnapshotRead}, {"client.begin_ms", spanBegin},
		{"client.multi_read_ms", spanMultiRead}, {"client.write_ms", spanWrite}, {"client.commit_ms", spanCommit},
	} {
		slices.Sort(calls[c.span])
		v[c.metric] = float64(percentile(calls[c.span], 50)) / 1e6
	}
	attempted := float64(w.completed + w.aborts)
	v["client.requests_per_txn"] = ratio(net1.requests-net0.requests, attempted)
	v["client.requests_per_flush"] = ratio(net1.batchRequests-net0.batchRequests, net1.flushes-net0.flushes)
	v["client.path_ro_ms"] = meanMs(w.ro) - pages.meanMs("sss_read_only_latency_seconds")
	v["client.path_upd_ms"] = meanMs(w.upd) - pages.meanMs("sss_commit_latency_seconds")
	v["client.cpu_us_per_txn"] = ratio(float64((self1 - self0).Microseconds()), txns)

	v["clientproto.requests_per_txn"] = ratio(pages.counter("sss_client_requests_total"), attempted)
	v["clientproto.ack_ms"] = pages.meanMs("sss_stage_client_ack_seconds")
	v["clientproto.spills_per_ktxn"] = ratio(pages.counter("sss_client_spills_total")*1000, attempted)

	v["engine.ro_ms"] = pages.meanMs("sss_read_only_latency_seconds")
	v["engine.commit_ms"] = pages.meanMs("sss_commit_latency_seconds")
	v["engine.internal_ms"] = pages.meanMs("sss_internal_latency_seconds")
	v["engine.precommit_wait_ms"] = pages.meanMs("sss_pre_commit_wait_seconds")
	for _, stage := range []string{"vote", "decide", "freeze", "purge"} {
		v["engine."+stage+"_ms"] = pages.meanMs("sss_stage_" + stage + "_seconds")
	}
	piggy, rounds := pages.counter("sss_commit_rounds_drains_piggybacked_total"), pages.counter("sss_commit_rounds_drain_rounds_total")
	v["engine.piggyback_ratio"] = ratio(piggy, piggy+rounds)
	v["engine.freezes_per_batch"] = ratio(pages.counter("sss_commit_rounds_freeze_batch_txns_total"), pages.counter("sss_commit_rounds_freeze_batches_total"))
	v["engine.external_waits_per_commit"] = ratio(pages.counter("sss_external_waits_total"), commits)
	v["engine.removes_per_ro"] = ratio(pages.counter("sss_removes_sent_total"), roRuns)
	aborts := pages.counter("sss_aborts_total")
	v["engine.abort_ratio"] = ratio(aborts, commits+aborts)
	v["engine.drain_timeouts"] = pages.counter("sss_drain_timeouts_total")

	v["mvstore.sq_waits_per_commit"] = ratio(pages.counter("sss_contention_sq_waits_total"), commits)
	v["mvstore.sq_wait_timeouts"] = pages.counter("sss_contention_sq_wait_timeouts_total")
	v["commitlog.log_waits_per_txn"] = ratio(pages.counter("sss_contention_log_waits_total"), commits+roRuns)
	v["commitlog.log_wait_timeouts"] = pages.counter("sss_contention_log_wait_timeouts_total")

	syncs := pages.counter("sss_wal_syncs_total")
	v["wal.syncs_per_commit"] = ratio(syncs, commits)
	v["wal.records_per_sync"] = ratio(pages.counter("sss_wal_synced_records_total"), syncs)
	v["wal.bytes_per_commit"] = ratio(pages.counter("sss_wal_bytes_total"), commits)
	v["wal.sync_ms"] = pages.meanMs("sss_sync_latency_seconds")
	_, stageSync := pages.hist("sss_stage_wal_sync_seconds")
	v["wal.stage_sync_ms_per_commit"] = ratio(stageSync*1e3, commits)

	// transport: the servers' SIGTERM dumps, so these cover the clusters'
	// whole life — every transaction since boot is in the denominator.
	var total transportDump
	var flushNs float64
	var syncFailures, checkpoints uint64
	for _, nd := range dumps {
		syncFailures += nd.durability.syncFailures
		checkpoints += nd.durability.checkpoints
		td := nd.transport
		total.flushes += td.flushes
		total.envelopes += td.envelopes
		total.spills += td.spills
		total.redials += td.redials
		flushNs += float64(td.flushMean.Nanoseconds()) * float64(td.flushes)
	}
	v["transport.envelopes_per_txn"] = ratio(float64(total.envelopes), float64(r.Attempted))
	v["transport.envelopes_per_flush"] = ratio(float64(total.envelopes), float64(total.flushes))
	v["transport.flush_us"] = ratio(flushNs/1e3, float64(total.flushes))
	v["transport.spills"] = float64(total.spills)
	v["transport.redials"] = float64(total.redials)
	v["wal.sync_failures"] = float64(syncFailures)
	v["wal.checkpoints"] = float64(checkpoints)

	var nodeUs []float64
	for i := range before.cpu {
		us := ratio(ticksToUs(after.cpu[i]-before.cpu[i]), txns)
		v[fmt.Sprintf("node%d.cpu_us_per_txn", i)] = us
		nodeUs = append(nodeUs, us)
	}
	v["server_cpu_us_per_txn"] = nodeUs[0] + nodeUs[1] + nodeUs[2]
	v["node.cpu_skew"] = ratio(slices.Max(nodeUs)*nodes, v["server_cpu_us_per_txn"])
	v["node.rss_growth_mb_per_ktxn"] = ratio((after.rssMB-before.rssMB)*1000, txns)

	// The demoted end-to-end rows, here over the traced window. p99 deserves
	// the name only with >= 10 samples beyond it on the thinner series; the
	// count says whether this window had them.
	v["txn_per_s"] = w.txnPerS
	v["ro_p50_ms"] = float64(percentile(w.ro, 50)) / 1e6
	v["ro_p99_ms"] = float64(percentile(w.ro, 99)) / 1e6
	v["upd_p50_ms"] = float64(percentile(w.upd, 50)) / 1e6
	v["upd_p99_ms"] = float64(percentile(w.upd, 99)) / 1e6
	v["p99_samples_beyond"] = float64(min(beyond(len(w.ro), 99), beyond(len(w.upd), 99)))

	var rate [2]float64 // traced slices, untraced slices
	for _, t := range tallies {
		for i, sl := range t.slice {
			rate[i] += ratio(float64(sl.completed), sl.busy.Seconds())
		}
	}
	v["trace.overhead_ratio"] = ratio(rate[0], rate[1])
	v["trace.spans"] = float64(len(spans))
	v["trace.driver_self_us_per_txn"] = ratio(float64(selfNs)/1e3, float64(tracedTxns))

	// The external-consistency gate. Any violation fails the run; the one
	// waiver is the exact fractured-snapshot shape on the workload where the
	// baseline is known to produce it, counted in its own row.
	fractured, checked, err := checkHistory(observed, s.fracturedKnown)
	v["check.history_txns"] = float64(checked)
	v["check.fractured_reads"] = float64(fractured)
	v["check.violations"] = 0
	if err != nil {
		v["check.violations"] = 1 // the checker stops at the first
		r.problem("%v", err)
	}
	if fractured > 0 {
		if s.fracturedKnown {
			fmt.Printf("%-16s KNOWN %d read-only transactions saw a fractured snapshot (README, Knowns); left out of the checked history\n", s.name, fractured)
		} else {
			r.problem("%d read-only transactions saw a fractured snapshot", fractured)
		}
	}
	v["error_ratio"] = ratio(float64(r.Failed), float64(r.Attempted))
	live.Lock()
	v["env.idle_spinners"] = float64(spinnersAlive(live.spinners))
	live.Unlock()

	if err := writeSpans(filepath.Join(outDir, s.name+".spans.jsonl"), spans); err != nil {
		return nil, err
	}
	if err := runProbes(v); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return r, nil
}

func meanMs(ns []int64) float64 {
	var sum int64
	for _, x := range ns {
		sum += x
	}
	return ratio(float64(sum)/1e6, float64(len(ns)))
}

// clientNetCounters are the clients' own cumulative wire counters.
type clientNetCounters struct{ requests, flushes, batchRequests float64 }

func (d *deployment) clientNet() clientNetCounters {
	var c clientNetCounters
	for _, w := range d.workers {
		m := w.cl.Metrics()
		c.requests += float64(m.Requests.Load())
		c.flushes += float64(m.BatchFlushes.Load())
		c.batchRequests += float64(m.BatchRequests.Load())
	}
	return c
}

// serverSample is the servers' observable state at one instant.
type serverSample struct {
	page  *obs.Page // cluster-wide merge of every node's /metrics
	cpu   []uint64  // per node, clock ticks
	rssMB float64
}

func (d *deployment) sample() (s serverSample, err error) {
	if s.page, err = d.scrape(); err != nil {
		return s, err
	}
	for _, pid := range d.pids {
		st, err := readProcStat(pid)
		if err != nil {
			return s, err
		}
		s.cpu = append(s.cpu, st.utime+st.stime)
		s.rssMB += st.rssMB()
	}
	return s, nil
}

// selfCPU is the driver's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// onTmpfs reports 1 when dir sits on a tmpfs, so a reader can tell whether
// the WAL's real fsync under the injected delay reached a disk.
func onTmpfs(dir string) float64 {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil && st.Type == tmpfsMagic {
		return 1
	}
	return 0
}

// writeSpans writes the traced window's spans, one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error path only; the success path checks Close below
	bw := bufio.NewWriterSize(f, 1<<20)
	for _, sp := range spans {
		fmt.Fprintf(bw, `{"name":%q,"txn":"c%d.%d","id":"c%d.%d","parent":`, sp.name, sp.client, sp.txn, sp.client, sp.id)
		if sp.parent < 0 {
			bw.WriteString("null")
		} else {
			fmt.Fprintf(bw, `"c%d.%d"`, sp.client, sp.parent)
		}
		fmt.Fprintf(bw, `,"start_ns":%d,"end_ns":%d}`+"\n", sp.startNs, sp.endNs)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
