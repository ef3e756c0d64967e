// Package rococo implements the ROCOCO competitor (Mu et al., OSDI'14) in
// the configuration the paper evaluates (§V): every piece is deferrable.
//
// Update transactions are one-shot and never abort: a dispatch round leaves
// the transaction's pieces at every involved server with a proposed
// sequence number (the server's logical clock), and a commit round fixes
// the final sequence number to the maximum proposal; servers then execute
// conflicting transactions in final-sequence order, reordering deferrable
// pieces as needed. This is the timestamp-agreement realization of
// ROCOCO's dependency-based reordering (a timestamp-agreement fidelity
// simplification of the original protocol).
//
// Read-only transactions use ROCOCO's multi-round scheme: each round reads
// the keys (waiting out conflicting in-flight writers) and records per-key
// versions; two consecutive rounds with identical versions yield a
// consistent snapshot, otherwise the transaction retries — ROCOCO's
// read-only transactions are *not* abort-free, which is what Figures 6
// and 8 measure.
package rococo

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/sss-paper/sss/internal/baseline"
	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/wire"
)

const (
	// rpcTimeout bounds the dispatch round of an update transaction.
	rpcTimeout = time.Second
	// execTimeout bounds the wait for conflicting transactions during
	// piece execution and read-only probes.
	execTimeout = 10 * time.Second
)

type entry struct {
	val []byte
	ver uint64
}

// ptxn is a dispatched-but-not-executed transaction at a server.
type ptxn struct {
	reads    []string
	writes   []wire.KV
	proposed uint64
	final    uint64 // 0 until the commit round arrives
}

// Node is one ROCOCO server.
type Node struct {
	baseline.Node

	mu      sync.Mutex
	cond    *sync.Cond
	clock   uint64
	pending map[wire.TxnID]*ptxn
	store   map[string]*entry
}

// New creates a ROCOCO node with the given ID on net.
func New(net transport.Network, id wire.NodeID, n int, lookup cluster.Lookup) (*Node, error) {
	nd := &Node{
		pending: make(map[wire.TxnID]*ptxn),
		store:   make(map[string]*entry),
	}
	nd.cond = sync.NewCond(&nd.mu)
	if err := nd.Join(net, id, n, lookup, nd.serve); err != nil {
		return nil, fmt.Errorf("rococo: %w", err)
	}
	return nd, nil
}

// Preload installs an initial value for key if this node replicates it.
func (nd *Node) Preload(key string, val []byte) {
	if nd.Lookup.IsReplica(key, nd.ID()) {
		nd.mu.Lock()
		nd.store[key] = &entry{val: val, ver: 1}
		nd.mu.Unlock()
	}
}

// Close detaches the node from the network and wakes every handler waiting
// on the executor.
func (nd *Node) Close() error {
	err := nd.Node.Close()
	nd.cond.Broadcast()
	return err
}

// serve dispatches inbound protocol messages. It runs on a transport pool
// worker (or a spill goroutine under saturation), so the commit waits in
// the dispatch/commit handlers are safe.
func (nd *Node) serve(from wire.NodeID, rid uint64, msg wire.Msg) {
	switch m := msg.(type) {
	case *wire.RococoDispatch:
		if len(m.Writes) == 0 {
			nd.handleROProbe(from, rid, m)
		} else {
			nd.handleDispatch(from, rid, m)
		}
	case *wire.RococoCommit:
		nd.handleCommit(from, rid, m)
	default:
	}
}

// handleDispatch runs the dispatch round for an update transaction: record
// the pieces, propose the local logical clock, and report the conflicting
// in-flight transactions (dependency information).
func (nd *Node) handleDispatch(from wire.NodeID, rid uint64, m *wire.RococoDispatch) {
	localReads := nd.localKeys(m.ReadKeys)
	localWrites := make([]wire.KV, 0, len(m.Writes))
	for _, w := range m.Writes {
		if nd.Lookup.IsReplica(w.Key, nd.ID()) {
			localWrites = append(localWrites, w)
		}
	}

	nd.mu.Lock()
	nd.clock++
	pt := &ptxn{reads: localReads, writes: localWrites, proposed: nd.clock}
	nd.pending[m.Txn] = pt
	var deps []wire.TxnID
	for id, other := range nd.pending {
		if id != m.Txn && conflicts(pt, other) {
			deps = append(deps, id)
		}
	}
	seq := pt.proposed
	nd.mu.Unlock()

	_ = nd.RPC.Reply(from, rid, &wire.RococoDispatchReply{Txn: m.Txn, Seq: seq, Deps: deps})
}

// handleCommit fixes the final sequence number and executes the pieces once
// every conflicting transaction that must precede this one has executed.
// The reply carries the read pieces' results.
func (nd *Node) handleCommit(from wire.NodeID, rid uint64, m *wire.RococoCommit) {
	deadline := time.Now().Add(execTimeout)
	nd.mu.Lock()
	pt := nd.pending[m.Txn]
	if pt == nil {
		nd.mu.Unlock()
		_ = nd.RPC.Reply(from, rid, &wire.RococoCommitReply{Txn: m.Txn})
		return
	}
	pt.final = m.Seq
	if m.Seq > nd.clock {
		nd.clock = m.Seq
	}
	nd.cond.Broadcast()

	for !nd.executableLocked(m.Txn, pt) {
		if time.Now().After(deadline) || nd.Closed() {
			break
		}
		timer := time.AfterFunc(10*time.Millisecond, nd.cond.Broadcast)
		nd.cond.Wait()
		timer.Stop()
	}

	// Execute: apply write pieces, evaluate read pieces.
	vals := make([][]byte, len(pt.reads))
	for i, k := range pt.reads {
		if e := nd.store[k]; e != nil {
			vals[i] = e.val
		}
	}
	for _, w := range pt.writes {
		e := nd.store[w.Key]
		if e == nil {
			e = &entry{}
			nd.store[w.Key] = e
		}
		e.val = w.Val
		e.ver++
	}
	delete(nd.pending, m.Txn)
	nd.cond.Broadcast()
	nd.mu.Unlock()

	_ = nd.RPC.Reply(from, rid, &wire.RococoCommitReply{Txn: m.Txn, Vals: vals})
}

// executableLocked reports whether txn may execute now: every conflicting
// pending transaction either is finalized with a later (seq, id) or is
// still unfinalized but guaranteed a later sequence number.
func (nd *Node) executableLocked(id wire.TxnID, pt *ptxn) bool {
	for oid, other := range nd.pending {
		if oid == id || !conflicts(pt, other) {
			continue
		}
		if other.final == 0 {
			if other.proposed <= pt.final {
				return false // could still be ordered before us
			}
			continue
		}
		if seqLess(other.final, oid, pt.final, id) {
			return false // must execute before us
		}
	}
	return true
}

func seqLess(aSeq uint64, aID wire.TxnID, bSeq uint64, bID wire.TxnID) bool {
	if aSeq != bSeq {
		return aSeq < bSeq
	}
	if aID.Node != bID.Node {
		return aID.Node < bID.Node
	}
	return aID.Seq < bID.Seq
}

// conflicts reports whether two transactions share a key with at least one
// write involved (read-read does not conflict).
func conflicts(a, b *ptxn) bool {
	for _, w := range a.writes {
		for _, w2 := range b.writes {
			if w.Key == w2.Key {
				return true
			}
		}
		for _, r := range b.reads {
			if w.Key == r {
				return true
			}
		}
	}
	for _, r := range a.reads {
		for _, w2 := range b.writes {
			if r == w2.Key {
				return true
			}
		}
	}
	return false
}

// handleROProbe serves one round of a read-only transaction: wait until no
// conflicting writer is in flight, then return values and versions.
func (nd *Node) handleROProbe(from wire.NodeID, rid uint64, m *wire.RococoDispatch) {
	deadline := time.Now().Add(execTimeout)
	local := nd.localKeys(m.ReadKeys)

	nd.mu.Lock()
	for nd.writerPendingLocked(local) {
		if time.Now().After(deadline) || nd.Closed() {
			break
		}
		timer := time.AfterFunc(10*time.Millisecond, nd.cond.Broadcast)
		nd.cond.Wait()
		timer.Stop()
	}
	vals := make([][]byte, len(local))
	vers := make([]uint64, len(local))
	exists := make([]bool, len(local))
	for i, k := range local {
		if e := nd.store[k]; e != nil {
			vals[i], vers[i], exists[i] = e.val, e.ver, true
		}
	}
	nd.mu.Unlock()

	_ = nd.RPC.Reply(from, rid, &wire.RococoDispatchReply{
		Txn: m.Txn, Vals: vals, Versions: vers, Exists: exists,
	})
}

func (nd *Node) writerPendingLocked(keys []string) bool {
	for _, pt := range nd.pending {
		for _, w := range pt.writes {
			for _, k := range keys {
				if w.Key == k {
					return true
				}
			}
		}
	}
	return false
}

func (nd *Node) localKeys(keys []string) []string {
	var out []string
	for _, k := range keys {
		if nd.Lookup.IsReplica(k, nd.ID()) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
