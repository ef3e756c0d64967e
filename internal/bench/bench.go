// Package bench drives the paper's evaluation methodology (§V): closed-loop
// clients co-located with nodes (10 per node in the paper) issuing YCSB
// transactions against any engine implementing the kv interfaces, and
// reporting throughput, abort rate and latency — including the
// internal-commit vs pre-commit breakdown of Figure 5.
package bench

import (
	"errors"
	"sync"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/internal/ycsb"
	"github.com/sss-paper/sss/kv"
)

// Node is one engine node as seen by the harness: a transaction factory
// plus its metrics.
type Node interface {
	Begin(readOnly bool) kv.Txn
	Stats() *metrics.Engine
}

// Options configures one benchmark run.
type Options struct {
	// Workload is the YCSB configuration.
	Workload ycsb.Config
	// ClientsPerNode is the closed-loop client count per node (10 in §V).
	ClientsPerNode int
	// Duration is the measured window; Warmup runs before it, unmeasured.
	Duration time.Duration
	Warmup   time.Duration
	// Seed derives per-client generator seeds.
	Seed int64
	// Lookup drives locality-biased key selection; required when the
	// workload uses ycsb.Local, ignored otherwise.
	Lookup cluster.Lookup
}

// Result summarizes one run. Its JSON form is the measurement part of a
// sss-bench snapshot point.
type Result struct {
	// Throughput is committed transactions (update + read-only) per
	// second over the measured window.
	Throughput float64 `json:"throughput_txn_s"`
	// AbortRate is aborts / (aborts + update commits + read-only runs).
	AbortRate float64       `json:"abort_rate"`
	Commits   uint64        `json:"commits"`   // committed update transactions
	ReadOnly  uint64        `json:"read_only"` // completed read-only transactions
	Aborts    uint64        `json:"aborts"`
	Elapsed   time.Duration `json:"-"`

	UpdateLatency   metrics.HistogramSnapshot `json:"update_latency"`
	ReadOnlyLatency metrics.HistogramSnapshot `json:"read_only_latency"`
	// InternalLatency is begin → commit decision; PreCommitWait is the
	// decision → external-commit interval (snapshot-queuing delay).
	InternalLatency metrics.HistogramSnapshot `json:"internal_latency"`
	PreCommitWait   metrics.HistogramSnapshot `json:"pre_commit_wait"`
	ExternalWaits   uint64                    `json:"external_waits"`
	DrainTimeouts   uint64                    `json:"drain_timeouts"`
	// Contention aggregates the nodes' lock/wait contention counters
	// (commitlog waiter registry, snapshot-queue drains).
	Contention metrics.ContentionSnapshot `json:"contention"`
	// CommitRounds aggregates the update-commit round structure:
	// piggybacked vs standalone drain stages and the freeze/purge
	// group-commit batching factors.
	CommitRounds metrics.CommitRoundsSnapshot `json:"commit_rounds"`
	// EngineCounters is the nodes' aggregated scalar counter dump — the
	// same view the sss-server SIGTERM line prints. Carries the freeze-ack
	// discipline counters (withheld/budget-expired) so bench snapshots
	// record how often the ack-vs-stamp window was exercised.
	EngineCounters metrics.EngineCountersSnapshot `json:"engine_counters"`
	// Stages is the per-stage commit-path decomposition (vote, decide/drain,
	// freeze, purge, WAL sync, client ack), aggregated across nodes — the
	// live-exposition taxonomy mirrored into bench snapshots so the figure-3
	// trajectory carries a stage breakdown. Nil when no stage observed
	// anything (engines that don't instrument stages, pure read-only runs).
	Stages *metrics.StagesSnapshot `json:"stages,omitempty"`
}

// Run executes the workload against the given nodes and aggregates results.
// The node index doubles as the vector-clock/cluster node ID.
func Run(nodes []Node, opts Options) Result {
	if opts.ClientsPerNode <= 0 {
		opts.ClientsPerNode = 10
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}

	type counters struct {
		commits, readOnly, aborts uint64
	}
	perClient := make([]counters, len(nodes)*opts.ClientsPerNode)

	var wg sync.WaitGroup
	stopWarmup := make(chan struct{})
	start := make(chan struct{})
	stop := make(chan struct{})

	for ni, nd := range nodes {
		for c := 0; c < opts.ClientsPerNode; c++ {
			wg.Add(1)
			idx := ni*opts.ClientsPerNode + c
			seed := opts.Seed + int64(idx)*7919 + 1
			go func(nd Node, nodeID wire.NodeID, idx int, seed int64) {
				defer wg.Done()
				gen := ycsb.NewGenerator(opts.Workload, nodeID, opts.Lookup, seed)
				// Warmup phase: run, don't count.
				for {
					select {
					case <-stopWarmup:
						goto measured
					default:
					}
					_ = runTxn(nd, gen)
				}
			measured:
				<-start
				for {
					select {
					case <-stop:
						return
					default:
					}
					switch runTxn(nd, gen) {
					case outcomeCommit:
						perClient[idx].commits++
					case outcomeReadOnly:
						perClient[idx].readOnly++
					case outcomeAbort:
						perClient[idx].aborts++
					}
				}
			}(nd, wire.NodeID(ni), idx, seed)
		}
	}

	time.Sleep(opts.Warmup)
	close(stopWarmup)
	t0 := time.Now()
	close(start)
	time.Sleep(opts.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(t0)

	var res Result
	res.Elapsed = elapsed
	for _, c := range perClient {
		res.Commits += c.commits
		res.ReadOnly += c.readOnly
		res.Aborts += c.aborts
	}
	total := res.Commits + res.ReadOnly
	res.Throughput = float64(total) / elapsed.Seconds()
	if total+res.Aborts > 0 {
		res.AbortRate = float64(res.Aborts) / float64(total+res.Aborts)
	}

	// Latency histograms aggregate over the whole run (warmup included);
	// they are engine-side and representative.
	agg := aggregate(nodes)
	res.UpdateLatency = agg.CommitLatency.Snapshot()
	res.ReadOnlyLatency = agg.ReadOnlyLatency.Snapshot()
	res.InternalLatency = agg.InternalLatency.Snapshot()
	res.PreCommitWait = agg.PreCommitWait.Snapshot()
	res.ExternalWaits = agg.ExternalWaits.Load()
	res.DrainTimeouts = agg.DrainTimeouts.Load()
	res.Contention = agg.Contention.Snapshot()
	res.CommitRounds = agg.CommitRounds.Snapshot()
	res.EngineCounters = agg.CountersSnapshot()
	res.Stages = stagesOrNil(agg.Stage.Snapshot())
	return res
}

// stagesOrNil drops a stage snapshot that observed nothing.
func stagesOrNil(s metrics.StagesSnapshot) *metrics.StagesSnapshot {
	if s == (metrics.StagesSnapshot{}) {
		return nil
	}
	return &s
}

type txnOutcome uint8

const (
	outcomeCommit txnOutcome = iota + 1
	outcomeReadOnly
	outcomeAbort
	outcomeError
)

// runTxn executes one generated transaction in the closed loop.
func runTxn(nd Node, gen *ycsb.Generator) txnOutcome {
	tx := gen.Next()
	readOnly := tx.Kind == ycsb.ReadOnlyTxn
	t := nd.Begin(readOnly)
	for _, k := range tx.Keys {
		if _, _, err := t.Read(k); err != nil {
			_ = t.Abort()
			return outcomeError
		}
		if !readOnly {
			if err := t.Write(k, gen.Value()); err != nil {
				_ = t.Abort()
				return outcomeError
			}
		}
	}
	err := t.Commit()
	switch {
	case err == nil && readOnly:
		return outcomeReadOnly
	case err == nil:
		return outcomeCommit
	case errors.Is(err, kv.ErrAborted):
		return outcomeAbort
	default:
		return outcomeError
	}
}

// aggregate merges all nodes' engine metrics into one.
func aggregate(nodes []Node) *metrics.Engine {
	out := &metrics.Engine{}
	for _, nd := range nodes {
		metrics.Merge(out, nd.Stats())
	}
	return out
}
