// Package sss is a Go implementation of SSS (Kishi, Peluso, Korth,
// Palmieri; ICDCS 2019): a scalable, partially-replicated transactional
// key-value store whose concurrency control provides external consistency
// for all transactions — without TrueTime or any global synchronization
// source — and never aborts read-only transactions.
//
// The package assembles a cluster of protocol nodes over an in-process
// simulated network (20µs one-way message latency, matching the paper's
// testbed, unless Options.DisableLatency) and exposes per-node
// transactional handles.
// Clients are co-located with nodes, as in the paper's system model:
//
//	c, err := sss.New(sss.Options{Nodes: 4, ReplicationDegree: 2})
//	defer c.Close()
//	c.Preload("greeting", []byte("hello"))
//
//	tx := c.Node(0).Begin(false)         // update transaction
//	v, _, _ := tx.Read("greeting")
//	_ = tx.Write("greeting", append(v, '!'))
//	err = tx.Commit()                    // returns at *external* commit
//
//	ro := c.Node(3).Begin(true)          // read-only: never aborts
//	v, _, _ = ro.Read("greeting")
//	_ = ro.Commit()
//
// Besides the SSS engine, the same API can assemble the paper's three
// competitors (2PC-baseline, Walter, ROCOCO) for comparison — re-implemented
// on the same infrastructure, exactly as the paper's evaluation does.
package sss

import (
	"fmt"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/engine"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/rococo"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/twopc"
	"github.com/sss-paper/sss/internal/walter"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// Engine selects the concurrency-control protocol of a cluster.
type Engine string

// Available engines.
const (
	// EngineSSS is the paper's contribution: external consistency via
	// vector clocks + snapshot-queuing; abort-free read-only transactions.
	EngineSSS Engine = "sss"
	// Engine2PC is the 2PC-baseline competitor: single-version store,
	// every transaction validates and runs 2PC; read-only can abort.
	Engine2PC Engine = "2pc"
	// EngineWalter is the Walter (PSI) competitor: weaker isolation,
	// preferred sites, asynchronous propagation.
	EngineWalter Engine = "walter"
	// EngineROCOCO is the ROCOCO competitor: two-round reordering of
	// deferrable pieces; multi-round read-only transactions that retry.
	EngineROCOCO Engine = "rococo"
)

// Options configures a cluster.
type Options struct {
	// Nodes is the cluster size (required, >= 1).
	Nodes int
	// ReplicationDegree is the number of replicas per key (default 2,
	// the paper's setting; use 1 for the ROCOCO comparisons).
	ReplicationDegree int
	// Engine selects the protocol (default EngineSSS).
	Engine Engine
	// DisableLatency turns off the simulated one-way message latency
	// (20µs, the paper's testbed) for fast functional tests.
	DisableLatency bool
	// LockTimeout bounds the SSS engine's 2PC lock acquisition (deadlock
	// prevention, §III-E; the paper uses 1ms on its 20µs network). Zero =
	// default. The competitors use their fixed default.
	LockTimeout time.Duration
	// MaxVersions bounds the SSS engine's per-key version chains. Zero =
	// default (64, which Walter keeps too).
	MaxVersions int
}

// Cluster is a set of co-hosted protocol nodes connected by the simulated
// network.
type Cluster struct {
	opts       Options
	lookup     cluster.Lookup
	net        *transport.InProc
	nodes      []*Node
	closer     []func() error
	preloaders []func(key string, val []byte)
}

// Node is one cluster member: a kv.Store plus metrics. Obtain transaction
// handles with Begin; a handle must be used by a single goroutine.
type Node struct {
	id    wire.NodeID
	begin func(readOnly bool) kv.Txn
	stats *metrics.Engine
	// versionWriters supports the consistency checker (SSS engine only).
	versionWriters func(key string) []wire.TxnID
}

var _ kv.Store = (*Node)(nil)

// New assembles a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("sss: Options.Nodes must be >= 1, got %d", opts.Nodes)
	}
	if opts.ReplicationDegree == 0 {
		opts.ReplicationDegree = 2
	}
	if opts.Engine == "" {
		opts.Engine = EngineSSS
	}
	lookup := cluster.NewLookup(opts.Nodes, opts.ReplicationDegree)
	net := transport.NewInProc(transport.InProcConfig{DisableLatency: opts.DisableLatency})
	c := &Cluster{opts: opts, lookup: lookup, net: net}
	c.closer = append(c.closer, net.Close)

	for i := 0; i < opts.Nodes; i++ {
		id := wire.NodeID(i)
		nd := &Node{id: id}
		// Each arm constructs its engine's node and says how to Begin.
		var m member
		var err error
		switch opts.Engine {
		case EngineSSS:
			var en *engine.Node
			en, err = engine.New(net, id, opts.Nodes, lookup, engine.Config{
				LockTimeout: opts.LockTimeout,
				MaxVersions: opts.MaxVersions,
			})
			m, nd.begin, nd.versionWriters = en, func(ro bool) kv.Txn { return en.Begin(ro) }, en.VersionWriters
		case Engine2PC:
			var en *twopc.Node
			en, err = twopc.New(net, id, opts.Nodes, lookup)
			m, nd.begin = en, func(ro bool) kv.Txn { return en.Begin(ro) }
		case EngineWalter:
			var en *walter.Node
			en, err = walter.New(net, id, opts.Nodes, lookup)
			m, nd.begin = en, func(ro bool) kv.Txn { return en.Begin(ro) }
		case EngineROCOCO:
			var en *rococo.Node
			en, err = rococo.New(net, id, opts.Nodes, lookup)
			m, nd.begin = en, func(ro bool) kv.Txn { return en.Begin(ro) }
		default:
			err = fmt.Errorf("sss: unknown engine %q", opts.Engine)
		}
		if err != nil {
			return nil, c.failNew(err)
		}
		nd.stats = m.Stats()
		c.closer = append(c.closer, m.Close)
		c.preloaders = append(c.preloaders, m.Preload)
		c.nodes = append(c.nodes, nd)
	}

	return c, nil
}

// member is what a cluster needs of every engine's node besides Begin.
type member interface {
	Stats() *metrics.Engine
	Preload(key string, val []byte)
	Close() error
}

func (c *Cluster) failNew(err error) error {
	_ = c.Close()
	return err
}

// NumNodes returns the cluster size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node returns the i-th node's store handle.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Replicas returns the node indices storing key under the cluster's
// replication scheme.
func (c *Cluster) Replicas(key string) []int {
	rs := c.lookup.Replicas(key)
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = int(r)
	}
	return out
}

// TransportMetrics returns the simulated network's batching counters:
// flushes, envelopes per flush, flush latency, and inbound-pool spills.
func (c *Cluster) TransportMetrics() *metrics.Transport { return c.net.Metrics() }

// Preload installs an initial value of key on every replica. Call before
// starting clients (the benchmark's load phase).
func (c *Cluster) Preload(key string, val []byte) {
	for _, p := range c.preloaders {
		p(key, val)
	}
}

// Close shuts down every node and the network.
func (c *Cluster) Close() error {
	var firstErr error
	// Close nodes before the network (reverse registration order).
	for i := len(c.closer) - 1; i >= 0; i-- {
		if err := c.closer[i](); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.closer = nil
	return firstErr
}

// Begin implements kv.Store.
func (n *Node) Begin(readOnly bool) kv.Txn { return n.begin(readOnly) }

// ID returns the node's index.
func (n *Node) ID() int { return int(n.id) }
