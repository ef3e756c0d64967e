// Package baseline is the scaffolding the paper's three competitors
// (internal/twopc, internal/walter, internal/rococo) share: a node that
// joins the network, a transaction that buffers writes and accounts its
// outcome, the vote tally, and the key sharding. It holds no protocol code,
// so two competitors differ in protocol and in nothing else, and a gap
// between them in a figure comes from protocol, not plumbing.
package baseline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

const (
	// LockTimeout bounds a 2PC lock acquisition (deadlock prevention).
	LockTimeout = 2 * time.Millisecond
	// VoteTimeout bounds a coordinator's wait for one round of votes or acks.
	VoteTimeout = 500 * time.Millisecond
)

// Node is the protocol-free part of a competitor site; protocols embed it
// and call Join from their constructor.
type Node struct {
	// N is the cluster size, the width of a vector clock.
	N      int
	Lookup cluster.Lookup
	RPC    *transport.RPC

	id      wire.NodeID
	stats   metrics.Engine
	lastSeq atomic.Uint64
	closed  atomic.Bool
}

// Join attaches the node to net as id and dispatches inbound messages to
// serve, dropping them once the node is closed.
func (nd *Node) Join(net transport.Network, id wire.NodeID, n int, lookup cluster.Lookup, serve transport.ServerFunc) error {
	nd.id, nd.N, nd.Lookup = id, n, lookup
	rpc, err := transport.NewRPC(net, id, func(from wire.NodeID, rid uint64, msg wire.Msg) {
		if !nd.closed.Load() {
			serve(from, rid, msg)
		}
	})
	if err != nil {
		return fmt.Errorf("node %d: %w", id, err)
	}
	nd.RPC = rpc
	return nil
}

// ID returns the node's identifier.
func (nd *Node) ID() wire.NodeID { return nd.id }

// Stats exposes the node's metrics.
func (nd *Node) Stats() *metrics.Engine { return &nd.stats }

// Closed reports whether Close has been called.
func (nd *Node) Closed() bool { return nd.closed.Load() }

// Close detaches the node from the network.
func (nd *Node) Close() error {
	nd.closed.Store(true)
	return nd.RPC.Close()
}

// NewTxn starts the skeleton of a transaction coordinated by this node.
func (nd *Node) NewTxn(readOnly bool) Txn {
	return Txn{
		ID:       wire.TxnID{Node: nd.id, Seq: nd.lastSeq.Add(1)},
		ReadOnly: readOnly,
		stats:    &nd.stats,
		begin:    time.Now(),
	}
}

// Txn is the protocol-free part of a competitor transaction: identity,
// lifecycle and the ordered write set. Protocols embed it and implement
// Read and Commit.
type Txn struct {
	ID       wire.TxnID
	ReadOnly bool

	stats   *metrics.Engine
	begin   time.Time
	done    bool
	ws      map[string][]byte
	wsOrder []string
}

// Buffered is the prologue of every Read: kv.ErrTxnDone once the
// transaction has finished, else the value it wrote to key, if any.
func (t *Txn) Buffered(key string) (val []byte, ok bool, err error) {
	if t.done {
		return nil, false, kv.ErrTxnDone
	}
	val, ok = t.ws[key]
	return val, ok, nil
}

// Write implements kv.Txn.
func (t *Txn) Write(key string, val []byte) error {
	if t.done {
		return kv.ErrTxnDone
	}
	if t.ReadOnly {
		return kv.ErrReadOnlyWrite
	}
	if t.ws == nil {
		t.ws = make(map[string][]byte)
	}
	if _, dup := t.ws[key]; !dup {
		t.wsOrder = append(t.wsOrder, key)
	}
	t.ws[key] = val
	return nil
}

// Abort implements kv.Txn.
func (t *Txn) Abort() error {
	t.done = true
	return nil
}

// WriteKeys returns the written keys in first-write order.
func (t *Txn) WriteKeys() []string { return t.wsOrder }

// Writes exports the write set in first-write order.
func (t *Txn) Writes() []wire.KV {
	out := make([]wire.KV, len(t.wsOrder))
	for i, k := range t.wsOrder {
		out[i] = wire.KV{Key: k, Val: t.ws[k]}
	}
	return out
}

// Finish runs a Commit: it returns kv.ErrTxnDone if the transaction has
// already finished, else runs commit once and accounts its outcome with the
// SSS engine's rule — a success without writes is a read-only run, a
// success with writes a commit, and only an error matching kv.ErrAborted
// an abort.
func (t *Txn) Finish(commit func() error) error {
	if t.done {
		return kv.ErrTxnDone
	}
	t.done = true
	err := commit()
	switch {
	case err == nil && len(t.wsOrder) == 0:
		t.stats.ReadOnlyRuns.Add(1)
		t.stats.ReadOnlyLatency.Observe(time.Since(t.begin))
	case err == nil:
		d := time.Since(t.begin)
		t.stats.Commits.Add(1)
		t.stats.CommitLatency.Observe(d)
		t.stats.InternalLatency.Observe(d)
	case errors.Is(err, kv.ErrAborted):
		t.stats.Aborts.Add(1)
	}
	return err
}

// AllYes tallies one voting round: true iff every reply is a yes vote. A
// missing reply (timeout) counts as no.
func AllYes(votes []wire.Msg) bool {
	for _, v := range votes {
		if vote, ok := v.(*wire.Vote); !ok || !vote.OK {
			return false
		}
	}
	return true
}

const numShards = 128

// Shard is one lock stripe of a node's key space.
type Shard[E any] struct {
	Mu   sync.Mutex
	Keys map[string]E
}

// Shards stripes a key space 128 ways by FNV-1a hash.
type Shards[E any] []Shard[E]

// NewShards returns an empty striped key space.
func NewShards[E any]() Shards[E] {
	s := make(Shards[E], numShards)
	for i := range s {
		s[i].Keys = make(map[string]E)
	}
	return s
}

// Of returns the stripe holding key.
func (s Shards[E]) Of(key string) *Shard[E] {
	return &s[cluster.KeyHash(key)%numShards]
}
