package sss

import (
	"time"

	"github.com/sss-paper/sss/internal/bench"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/kv"
)

// LatencySummary is a point-in-time latency distribution summary.
type LatencySummary struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// NodeStats is a snapshot of one node's counters.
type NodeStats struct {
	// Commits counts externally committed update transactions this node
	// coordinated; ReadOnly counts completed read-only transactions;
	// Aborts counts update transactions that failed validation or
	// locking (always zero for read-only transactions on the SSS engine).
	Commits  uint64
	ReadOnly uint64
	Aborts   uint64
	// AbortRate is Aborts / (Commits + Aborts).
	AbortRate float64

	// UpdateLatency covers begin → external commit (the client-observable
	// completion). InternalLatency covers begin → commit decision, and
	// PreCommitWait the decision → external-commit interval — the
	// snapshot-queuing delay the paper bounds at ~30% of total latency.
	UpdateLatency   LatencySummary
	InternalLatency LatencySummary
	PreCommitWait   LatencySummary
	ReadOnlyLatency LatencySummary

	// ExternalWaits counts completions delayed behind a parked writer;
	// DrainTimeouts counts waits that hit their DrainTimeout safety cap: a
	// write replica's snapshot-queue drain of one written key, a decide
	// waiting for its CommitQ apply, a completion waiting for a parked
	// writer's external commit (0 in healthy runs; an unacked decide leg
	// is not counted here).
	ExternalWaits uint64
	DrainTimeouts uint64
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() NodeStats { return statsOf(n.stats) }

// Stats aggregates all nodes' snapshots.
func (c *Cluster) Stats() NodeStats {
	agg := &metrics.Engine{}
	for _, n := range c.nodes {
		metrics.Merge(agg, n.stats)
	}
	return statsOf(agg)
}

func statsOf(s *metrics.Engine) NodeStats {
	return NodeStats{
		Commits:         s.Commits.Load(),
		ReadOnly:        s.ReadOnlyRuns.Load(),
		Aborts:          s.Aborts.Load(),
		AbortRate:       s.AbortRate(),
		UpdateLatency:   summary(&s.CommitLatency),
		InternalLatency: summary(&s.InternalLatency),
		PreCommitWait:   summary(&s.PreCommitWait),
		ReadOnlyLatency: summary(&s.ReadOnlyLatency),
		ExternalWaits:   s.ExternalWaits.Load(),
		DrainTimeouts:   s.DrainTimeouts.Load(),
	}
}

func summary(h *metrics.Histogram) LatencySummary { return LatencySummary(h.Snapshot()) }

// HarnessNode adapts a Node for the internal benchmark harness
// (cmd/sss-bench and bench_test.go). The returned value's type lives in an
// internal package; external modules should use Begin/Stats directly.
func HarnessNode(n *Node) bench.Node { return harnessAdapter{n} }

type harnessAdapter struct{ n *Node }

// Begin implements bench.Node.
func (h harnessAdapter) Begin(readOnly bool) kv.Txn { return h.n.Begin(readOnly) }

// Stats implements bench.Node.
func (h harnessAdapter) Stats() *metrics.Engine { return h.n.stats }
