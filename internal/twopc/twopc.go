// Package twopc implements the paper's 2PC-baseline competitor (§V): a
// single-version store where *every* transaction — read-only included —
// executes like an SSS update transaction: read the latest version, buffer
// writes, then validate the read keys and commit with two-phase commit
// under shared/exclusive locks. The baseline is external consistent, but
// its read-only transactions are not abort-free, which is exactly the
// property Figures 3, 4, 6 and 8 measure against.
package twopc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/lockmgr"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// Config tunes a baseline node.
type Config struct {
	// LockTimeout bounds 2PC lock acquisition (deadlock prevention).
	LockTimeout time.Duration
	// VoteTimeout bounds the coordinator's wait for votes and acks.
	VoteTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.LockTimeout <= 0 {
		c.LockTimeout = 2 * time.Millisecond
	}
	if c.VoteTimeout <= 0 {
		c.VoteTimeout = 500 * time.Millisecond
	}
	return c
}

const numShards = 128

type entry struct {
	val []byte
	ver uint64
}

type shard struct {
	mu   sync.Mutex
	keys map[string]*entry
}

// Node is one 2PC-baseline site.
type Node struct {
	id     wire.NodeID
	n      int
	cfg    Config
	lookup cluster.Lookup
	rpc    *transport.RPC
	locks  *lockmgr.Table
	stats  *metrics.Engine

	shards []shard

	txnSeq atomic.Uint64

	mu      sync.Mutex
	pending map[wire.TxnID]*pendingTxn

	closed atomic.Bool
}

type pendingTxn struct {
	writes      []wire.KV
	localReads  []string
	localWrites []string
}

// New creates a baseline node with the given ID on net.
func New(net transport.Network, id wire.NodeID, n int, lookup cluster.Lookup, cfg Config) (*Node, error) {
	nd := &Node{
		id:      id,
		n:       n,
		cfg:     cfg.withDefaults(),
		lookup:  lookup,
		locks:   lockmgr.New(),
		stats:   &metrics.Engine{},
		shards:  make([]shard, numShards),
		pending: make(map[wire.TxnID]*pendingTxn),
	}
	for i := range nd.shards {
		nd.shards[i].keys = make(map[string]*entry)
	}
	rpc, err := transport.NewRPC(net, id, nd.serve)
	if err != nil {
		return nil, fmt.Errorf("twopc: node %d: %w", id, err)
	}
	nd.rpc = rpc
	return nd, nil
}

// ID returns the node's identifier.
func (nd *Node) ID() wire.NodeID { return nd.id }

// Stats exposes the node's metrics.
func (nd *Node) Stats() *metrics.Engine { return nd.stats }

// Preload installs an initial value for key if this node replicates it.
func (nd *Node) Preload(key string, val []byte) {
	if nd.lookup.IsReplica(key, nd.id) {
		sh := nd.shard(key)
		sh.mu.Lock()
		sh.keys[key] = &entry{val: val, ver: 1}
		sh.mu.Unlock()
	}
}

// Close detaches the node from the network.
func (nd *Node) Close() error {
	nd.closed.Store(true)
	return nd.rpc.Close()
}

func (nd *Node) shard(key string) *shard {
	return &nd.shards[fnv32(key)%numShards]
}

func fnv32(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// serve dispatches inbound protocol messages. It runs on a transport pool
// worker (or a spill goroutine under saturation), so the lock waits inside
// handlePrepare are safe.
func (nd *Node) serve(from wire.NodeID, rid uint64, msg wire.Msg) {
	if nd.closed.Load() {
		return
	}
	switch m := msg.(type) {
	case *wire.ReadRequest:
		nd.handleRead(from, rid, m)
	case *wire.Prepare:
		nd.handlePrepare(from, rid, m)
	case *wire.Decide:
		nd.handleDecide(from, rid, m)
	case *wire.TxnStatus:
		// The baseline keeps no durable decision ledger, so every status
		// query gets the classic presumed-abort answer. Replying (rather
		// than dropping) keeps a recovering peer from burning its whole
		// retry budget on timeouts.
		_ = nd.rpc.Reply(from, rid, &wire.TxnStatusReply{Txn: m.Txn})
	default:
	}
}

func (nd *Node) handleRead(from wire.NodeID, rid uint64, m *wire.ReadRequest) {
	sh := nd.shard(m.Key)
	sh.mu.Lock()
	e := sh.keys[m.Key]
	var resp wire.ReadReturn
	if e != nil {
		resp = wire.ReadReturn{Val: e.val, Exists: true, Ver: e.ver}
	}
	sh.mu.Unlock()
	_ = nd.rpc.Reply(from, rid, &resp)
}

func (nd *Node) handlePrepare(from wire.NodeID, rid uint64, m *wire.Prepare) {
	var localReads []string
	var localVers []uint64
	for i, k := range m.ReadKeys {
		if nd.lookup.IsReplica(k, nd.id) {
			localReads = append(localReads, k)
			localVers = append(localVers, m.ReadVers[i])
		}
	}
	var localWrites []string
	for _, kvp := range m.Writes {
		if nd.lookup.IsReplica(kvp.Key, nd.id) {
			localWrites = append(localWrites, kvp.Key)
		}
	}

	ok := nd.locks.AcquireAll(m.Txn, localWrites, localReads, nd.cfg.LockTimeout)
	if ok {
		for i, k := range localReads {
			if nd.currentVer(k) != localVers[i] {
				ok = false
				break
			}
		}
		if !ok {
			nd.locks.ReleaseAll(m.Txn, localWrites, localReads)
		}
	}
	if ok {
		nd.mu.Lock()
		nd.pending[m.Txn] = &pendingTxn{
			writes:      m.Writes,
			localReads:  localReads,
			localWrites: localWrites,
		}
		nd.mu.Unlock()
	}
	_ = nd.rpc.Reply(from, rid, &wire.Vote{Txn: m.Txn, OK: ok})
}

func (nd *Node) currentVer(key string) uint64 {
	sh := nd.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.keys[key]; e != nil {
		return e.ver
	}
	return 0
}

func (nd *Node) handleDecide(from wire.NodeID, rid uint64, m *wire.Decide) {
	nd.mu.Lock()
	pt := nd.pending[m.Txn]
	delete(nd.pending, m.Txn)
	nd.mu.Unlock()

	if pt != nil {
		if m.Commit {
			for _, kvp := range pt.writes {
				if !nd.lookup.IsReplica(kvp.Key, nd.id) {
					continue
				}
				sh := nd.shard(kvp.Key)
				sh.mu.Lock()
				e := sh.keys[kvp.Key]
				if e == nil {
					e = &entry{}
					sh.keys[kvp.Key] = e
				}
				e.val = kvp.Val
				e.ver++
				sh.mu.Unlock()
			}
		}
		nd.locks.ReleaseAll(m.Txn, pt.localWrites, pt.localReads)
	}
	_ = nd.rpc.Reply(from, rid, &wire.DecideAck{Txn: m.Txn})
}

// --- client side ---

// Txn is a baseline transaction. It implements kv.Txn.
type Txn struct {
	nd       *Node
	id       wire.TxnID
	readOnly bool

	rs      map[string]readVal
	rsOrder []string
	ws      map[string][]byte
	wsOrder []string

	begin time.Time
	done  bool
}

type readVal struct {
	val    []byte
	ver    uint64
	exists bool
}

var _ kv.Txn = (*Txn)(nil)

// Begin starts a transaction on this node. The readOnly flag only rejects
// writes: the baseline gives read-only transactions no special treatment
// (they validate and can abort), exactly as the paper's competitor.
func (nd *Node) Begin(readOnly bool) *Txn {
	return &Txn{
		nd:       nd,
		id:       wire.TxnID{Node: nd.id, Seq: nd.txnSeq.Add(1)},
		readOnly: readOnly,
		rs:       make(map[string]readVal),
		ws:       make(map[string][]byte),
		begin:    time.Now(),
	}
}

// Read implements kv.Txn.
func (t *Txn) Read(key string) ([]byte, bool, error) {
	if t.done {
		return nil, false, kv.ErrTxnDone
	}
	if v, ok := t.ws[key]; ok {
		return v, true, nil
	}
	if v, ok := t.rs[key]; ok {
		return v.val, v.exists, nil
	}

	targets := t.nd.lookup.Replicas(key)
	ctx, cancel := context.WithTimeout(context.Background(), t.nd.cfg.VoteTimeout)
	defer cancel()
	m := t.nd.rpc.Multi(targets, &wire.ReadRequest{Txn: t.id, Key: key})
	defer m.Release()
	var lastErr error
	for {
		_, resp, err := m.Next(ctx)
		if err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		rr, ok := resp.(*wire.ReadReturn)
		if !ok {
			lastErr = fmt.Errorf("twopc: unexpected response %T", resp)
			continue
		}
		t.rs[key] = readVal{val: rr.Val, ver: rr.Ver, exists: rr.Exists}
		t.rsOrder = append(t.rsOrder, key)
		return rr.Val, rr.Exists, nil
	}
	return nil, false, fmt.Errorf("%w: read %q: %v", kv.ErrUnavailable, key, lastErr)
}

// Write implements kv.Txn.
func (t *Txn) Write(key string, val []byte) error {
	if t.done {
		return kv.ErrTxnDone
	}
	if t.readOnly {
		return kv.ErrReadOnlyWrite
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

// Commit implements kv.Txn: the full 2PC with read validation, for every
// transaction type.
func (t *Txn) Commit() error {
	if t.done {
		return kv.ErrTxnDone
	}
	t.done = true
	if len(t.rs) == 0 && len(t.ws) == 0 {
		return nil
	}
	nd := t.nd

	writes := make([]wire.KV, 0, len(t.wsOrder))
	for _, k := range t.wsOrder {
		writes = append(writes, wire.KV{Key: k, Val: t.ws[k]})
	}
	vers := make([]uint64, len(t.rsOrder))
	for i, k := range t.rsOrder {
		vers[i] = t.rs[k].ver
	}
	participants := nd.lookup.ReplicaSet(t.rsOrder, t.wsOrder)
	prep := &wire.Prepare{Txn: t.id, ReadKeys: t.rsOrder, Writes: writes, ReadVers: vers}

	ctx, cancel := context.WithTimeout(context.Background(), nd.cfg.VoteTimeout)
	votes, _ := nd.rpc.Gather(ctx, participants, prep, nil)
	cancel()

	outcome := true
	for _, v := range votes {
		vote, ok := v.(*wire.Vote)
		if !ok || !vote.OK {
			outcome = false
			break
		}
	}

	dctx, dcancel := context.WithTimeout(context.Background(), nd.cfg.VoteTimeout)
	defer dcancel()
	nd.rpc.Gather(dctx, participants, &wire.Decide{Txn: t.id, Commit: outcome}, nil)

	now := time.Now()
	if !outcome {
		nd.stats.Aborts.Add(1)
		return kv.ErrAborted
	}
	if len(t.ws) == 0 {
		nd.stats.ReadOnlyRuns.Add(1)
		nd.stats.ReadOnlyLatency.Observe(now.Sub(t.begin))
		return nil
	}
	nd.stats.Commits.Add(1)
	nd.stats.CommitLatency.Observe(now.Sub(t.begin))
	nd.stats.InternalLatency.Observe(now.Sub(t.begin))
	return nil
}
