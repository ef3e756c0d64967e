// Package twopc implements the paper's 2PC-baseline competitor (§V): a
// single-version store where *every* transaction — read-only included —
// executes like an SSS update transaction: read the latest version, buffer
// writes, then validate the read keys and commit with two-phase commit
// under shared/exclusive locks. The baseline is external consistent, but
// its read-only transactions are not abort-free, which is exactly the
// property Figures 3, 4, 6 and 8 measure against.
package twopc

import (
	"fmt"
	"sync"
	"time"

	"github.com/sss-paper/sss/internal/baseline"
	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/lockmgr"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

type entry struct {
	val []byte
	ver uint64
}

// Node is one 2PC-baseline site.
type Node struct {
	baseline.Node
	locks  *lockmgr.Table
	shards baseline.Shards[*entry]

	mu      sync.Mutex
	pending map[wire.TxnID]*pendingTxn
}

type pendingTxn struct {
	writes      []wire.KV
	localReads  []string
	localWrites []string
}

// New creates a baseline node with the given ID on net.
func New(net transport.Network, id wire.NodeID, n int, lookup cluster.Lookup) (*Node, error) {
	nd := &Node{
		locks:   lockmgr.New(),
		shards:  baseline.NewShards[*entry](),
		pending: make(map[wire.TxnID]*pendingTxn),
	}
	if err := nd.Join(net, id, n, lookup, nd.serve); err != nil {
		return nil, fmt.Errorf("twopc: %w", err)
	}
	return nd, nil
}

// Preload installs an initial value for key if this node replicates it.
func (nd *Node) Preload(key string, val []byte) {
	if nd.Lookup.IsReplica(key, nd.ID()) {
		sh := nd.shards.Of(key)
		sh.Mu.Lock()
		sh.Keys[key] = &entry{val: val, ver: 1}
		sh.Mu.Unlock()
	}
}

// serve dispatches inbound protocol messages. It runs on a transport pool
// worker (or a spill goroutine under saturation), so the lock waits inside
// handlePrepare are safe.
func (nd *Node) serve(from wire.NodeID, rid uint64, msg wire.Msg) {
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
		_ = nd.RPC.Reply(from, rid, &wire.TxnStatusReply{Txn: m.Txn})
	default:
	}
}

func (nd *Node) handleRead(from wire.NodeID, rid uint64, m *wire.ReadRequest) {
	sh := nd.shards.Of(m.Key)
	sh.Mu.Lock()
	e := sh.Keys[m.Key]
	var resp wire.ReadReturn
	if e != nil {
		resp = wire.ReadReturn{Val: e.val, Exists: true, Ver: e.ver}
	}
	sh.Mu.Unlock()
	_ = nd.RPC.Reply(from, rid, &resp)
}

func (nd *Node) handlePrepare(from wire.NodeID, rid uint64, m *wire.Prepare) {
	var localReads []string
	var localVers []uint64
	for i, k := range m.ReadKeys {
		if nd.Lookup.IsReplica(k, nd.ID()) {
			localReads = append(localReads, k)
			localVers = append(localVers, m.ReadVers[i])
		}
	}
	var localWrites []string
	for _, kvp := range m.Writes {
		if nd.Lookup.IsReplica(kvp.Key, nd.ID()) {
			localWrites = append(localWrites, kvp.Key)
		}
	}

	ok := nd.locks.AcquireAll(m.Txn, localWrites, localReads, baseline.LockTimeout)
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
	_ = nd.RPC.Reply(from, rid, &wire.Vote{Txn: m.Txn, OK: ok})
}

func (nd *Node) currentVer(key string) uint64 {
	sh := nd.shards.Of(key)
	sh.Mu.Lock()
	defer sh.Mu.Unlock()
	if e := sh.Keys[key]; e != nil {
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
				if !nd.Lookup.IsReplica(kvp.Key, nd.ID()) {
					continue
				}
				sh := nd.shards.Of(kvp.Key)
				sh.Mu.Lock()
				e := sh.Keys[kvp.Key]
				if e == nil {
					e = &entry{}
					sh.Keys[kvp.Key] = e
				}
				e.val = kvp.Val
				e.ver++
				sh.Mu.Unlock()
			}
		}
		nd.locks.ReleaseAll(m.Txn, pt.localWrites, pt.localReads)
	}
	_ = nd.RPC.Reply(from, rid, &wire.DecideAck{Txn: m.Txn})
}

// --- client side ---

// Txn is a baseline transaction. It implements kv.Txn.
type Txn struct {
	baseline.Txn
	nd *Node

	rs      map[string]readVal
	rsOrder []string
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
	return &Txn{Txn: nd.NewTxn(readOnly), nd: nd, rs: make(map[string]readVal)}
}

// Read implements kv.Txn.
func (t *Txn) Read(key string) ([]byte, bool, error) {
	if v, ok, err := t.Buffered(key); ok || err != nil {
		return v, ok, err
	}
	if v, ok := t.rs[key]; ok {
		return v.val, v.exists, nil
	}

	targets := t.nd.Lookup.Replicas(key)
	deadline := time.Now().Add(baseline.VoteTimeout)
	m := t.nd.RPC.Multi(targets, &wire.ReadRequest{Txn: t.ID, Key: key})
	defer m.Release()
	var lastErr error
	for {
		_, resp, err := m.Next(deadline)
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

// Commit implements kv.Txn: the full 2PC with read validation, for every
// transaction type.
func (t *Txn) Commit() error { return t.Finish(t.commit) }

func (t *Txn) commit() error {
	if len(t.rs) == 0 && len(t.WriteKeys()) == 0 {
		return nil
	}
	nd := t.nd

	vers := make([]uint64, len(t.rsOrder))
	for i, k := range t.rsOrder {
		vers[i] = t.rs[k].ver
	}
	participants := nd.Lookup.ReplicaSet(t.rsOrder, t.WriteKeys())
	prep := &wire.Prepare{Txn: t.ID, ReadKeys: t.rsOrder, Writes: t.Writes(), ReadVers: vers}

	votes, _ := nd.RPC.Gather(baseline.VoteTimeout, participants, prep, nil)
	outcome := baseline.AllYes(votes)

	nd.RPC.Gather(baseline.VoteTimeout, participants, &wire.Decide{Txn: t.ID, Commit: outcome}, nil)

	if !outcome {
		return kv.ErrAborted
	}
	return nil
}
