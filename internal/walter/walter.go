// Package walter implements the Walter competitor (Sovran et al., SOSP'11)
// at the fidelity the paper evaluates it (§V): Parallel Snapshot Isolation
// with per-site vector timestamps and preferred sites.
//
//   - Every transaction reads from a site-local snapshot (a vector of
//     per-site sequence numbers); read-only transactions never validate,
//     never lock and never abort.
//   - Update transactions detect write-write conflicts only (PSI admits
//     write skew and long state forks — the weaker isolation the paper
//     contrasts with external consistency).
//   - A transaction whose written keys all prefer the local site takes the
//     fast-commit path (no remote round trips before the client reply);
//     otherwise a slow commit runs 2PC against the written keys' preferred
//     sites.
//   - Committed write-sets propagate asynchronously to the other replicas,
//     stamped (site, seq); visibility is seq <= snapshot[site].
//
// Disaster-tolerant geo-replication machinery from the original system is
// out of scope: the competitors exist for the paper's evaluation
// (docs/ARCHITECTURE.md).
package walter

import (
	"fmt"
	"sync"

	"github.com/sss-paper/sss/internal/baseline"
	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/lockmgr"
	"github.com/sss-paper/sss/internal/mvstore"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
)

// version is one committed version stamped by its coordinator site.
type version struct {
	val  []byte
	site wire.NodeID
	seq  uint64
	prev *version
}

// Node is one Walter site.
type Node struct {
	baseline.Node
	locks  *lockmgr.Table
	shards baseline.Shards[*version] // chains newest first

	clockMu sync.Mutex
	nodeVC  vclock.VC // per-site applied sequence numbers
	ownSeq  uint64    // sequence numbers this site has handed out

	mu      sync.Mutex
	pending map[wire.TxnID]*pendingTxn
}

// New creates a Walter node with the given ID on net.
func New(net transport.Network, id wire.NodeID, n int, lookup cluster.Lookup) (*Node, error) {
	nd := &Node{
		locks:   lockmgr.New(),
		shards:  baseline.NewShards[*version](),
		nodeVC:  vclock.New(n),
		pending: make(map[wire.TxnID]*pendingTxn),
	}
	if err := nd.Join(net, id, n, lookup, nd.serve); err != nil {
		return nil, fmt.Errorf("walter: %w", err)
	}
	return nd, nil
}

// Preload installs an initial value for key if this node replicates it.
func (nd *Node) Preload(key string, val []byte) {
	if nd.Lookup.IsReplica(key, nd.ID()) {
		sh := nd.shards.Of(key)
		sh.Mu.Lock()
		sh.Keys[key] = &version{val: val}
		sh.Mu.Unlock()
	}
}

func (nd *Node) snapshot() vclock.VC {
	nd.clockMu.Lock()
	defer nd.clockMu.Unlock()
	return nd.nodeVC.Clone()
}

// serve dispatches inbound protocol messages. It runs on a transport pool
// worker (or a spill goroutine under saturation), so blocking in handlers
// is safe.
func (nd *Node) serve(from wire.NodeID, rid uint64, msg wire.Msg) {
	switch m := msg.(type) {
	case *wire.ReadRequest:
		nd.handleRead(from, rid, m)
	case *wire.Prepare:
		nd.handlePrepare(from, rid, m)
	case *wire.Decide:
		nd.handleDecide(from, rid, m)
	case *wire.WalterPropagate:
		nd.applyWrites(m.Txn.Node, m.VC[m.Txn.Node], m.Writes)
	default:
	}
}

// handleRead returns the newest version visible in the requester's
// snapshot: version (site, seq) is visible iff seq <= snapshot[site]. A
// remote requester's snapshot is folded with the serving site's own (a
// non-replica site never learns other sites' sequence numbers; reads at a
// site observe that site's snapshot — PSI's site-local semantics).
func (nd *Node) handleRead(from wire.NodeID, rid uint64, m *wire.ReadRequest) {
	snap := m.VC
	if from != nd.ID() {
		snap = vclock.Max(m.VC, nd.snapshot())
	}
	sh := nd.shards.Of(m.Key)
	sh.Mu.Lock()
	var resp wire.ReadReturn
	for v := sh.Keys[m.Key]; v != nil; v = v.prev {
		if v.seq <= snap[v.site] {
			resp = wire.ReadReturn{Val: v.val, Exists: true}
			break
		}
	}
	sh.Mu.Unlock()
	_ = nd.RPC.Reply(from, rid, &resp)
}

// handlePrepare runs the slow-commit prepare at a preferred site: lock the
// written keys this site prefers and check write-write conflicts against
// the transaction's snapshot.
func (nd *Node) handlePrepare(from wire.NodeID, rid uint64, m *wire.Prepare) {
	var localWrites []string
	for _, kvp := range m.Writes {
		if nd.Lookup.Primary(kvp.Key) == nd.ID() {
			localWrites = append(localWrites, kvp.Key)
		}
	}
	ok := nd.locks.AcquireAll(m.Txn, localWrites, nil, baseline.LockTimeout)
	if ok && !nd.noWriteConflict(localWrites, m.VC) {
		nd.locks.ReleaseAll(m.Txn, localWrites, nil)
		ok = false
	}
	if ok {
		nd.mu.Lock()
		nd.pending[m.Txn] = &pendingTxn{writes: m.Writes, locked: localWrites}
		nd.mu.Unlock()
	}
	_ = nd.RPC.Reply(from, rid, &wire.Vote{Txn: m.Txn, OK: ok})
}

// pendingTxn is the participant-side state of a slow commit.
type pendingTxn struct {
	writes []wire.KV
	locked []string
}

// noWriteConflict reports whether every key's newest version is inside the
// snapshot (first-committer-wins on write-write conflicts; reads are never
// checked — that is PSI).
func (nd *Node) noWriteConflict(keys []string, snap vclock.VC) bool {
	for _, k := range keys {
		sh := nd.shards.Of(k)
		sh.Mu.Lock()
		v := sh.Keys[k]
		conflict := v != nil && v.seq > snap[v.site]
		sh.Mu.Unlock()
		if conflict {
			return false
		}
	}
	return true
}

// handleDecide finishes a slow commit at a preferred site: the writes are
// applied *before* the write locks are released, so the next conflict check
// on these keys is guaranteed to observe them (first-committer-wins).
func (nd *Node) handleDecide(from wire.NodeID, rid uint64, m *wire.Decide) {
	nd.mu.Lock()
	pt := nd.pending[m.Txn]
	delete(nd.pending, m.Txn)
	nd.mu.Unlock()
	if pt != nil {
		if m.Commit {
			nd.applyWrites(m.Txn.Node, m.VC[m.Txn.Node], pt.writes)
		}
		nd.locks.ReleaseAll(m.Txn, pt.locked, nil)
	}
	_ = nd.RPC.Reply(from, rid, &wire.DecideAck{Txn: m.Txn})
}

// applyWrites installs a committed transaction's writes stamped
// (site, seq), keeping per-site descending order in each chain and at most
// mvstore.DefaultMaxDepth versions per key, as the SSS engine does, then
// advances the local view of the stamping site's clock.
func (nd *Node) applyWrites(site wire.NodeID, seq uint64, writes []wire.KV) {
	for _, kvp := range writes {
		if !nd.Lookup.IsReplica(kvp.Key, nd.ID()) {
			continue
		}
		sh := nd.shards.Of(kvp.Key)
		sh.Mu.Lock()
		nv := &version{val: kvp.Val, site: site, seq: seq}
		head := sh.Keys[kvp.Key]
		if head == nil || head.site != site || head.seq <= seq {
			nv.prev = head
			sh.Keys[kvp.Key] = nv
		} else {
			// Late delivery from the same site: keep per-site order.
			cur := head
			for cur.prev != nil && cur.prev.site == site && cur.prev.seq > seq {
				cur = cur.prev
			}
			nv.prev = cur.prev
			cur.prev = nv
		}
		// Prune: v is the depth-th version.
		v := sh.Keys[kvp.Key]
		for depth := 1; v.prev != nil; depth++ {
			if depth == mvstore.DefaultMaxDepth {
				v.prev = nil
				break
			}
			v = v.prev
		}
		sh.Mu.Unlock()
	}
	nd.clockMu.Lock()
	if seq > nd.nodeVC[site] {
		nd.nodeVC[site] = seq
	}
	nd.clockMu.Unlock()
}
