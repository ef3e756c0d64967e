package walter

import (
	"fmt"

	"github.com/sss-paper/sss/internal/baseline"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// Txn is a Walter transaction running under PSI. It implements kv.Txn.
type Txn struct {
	baseline.Txn
	nd *Node

	snap vclock.VC // snapshot taken at Begin
	rs   map[string]readVal
}

type readVal struct {
	val    []byte
	exists bool
}

var _ kv.Txn = (*Txn)(nil)

// Begin starts a transaction with the site-local snapshot.
func (nd *Node) Begin(readOnly bool) *Txn {
	return &Txn{Txn: nd.NewTxn(readOnly), nd: nd, snap: nd.snapshot(), rs: make(map[string]readVal)}
}

// Read implements kv.Txn: a snapshot read served by the fastest replica.
func (t *Txn) Read(key string) ([]byte, bool, error) {
	if v, ok, err := t.Buffered(key); ok || err != nil {
		return v, ok, err
	}
	if v, ok := t.rs[key]; ok {
		return v.val, v.exists, nil
	}

	// Walter reads site-locally when the site replicates the key (that is
	// what makes its reads cheap and what the locality experiment of
	// Figure 7 rewards); otherwise it asks the key's preferred site.
	target := t.nd.ID()
	if !t.nd.Lookup.IsReplica(key, target) {
		target = t.nd.Lookup.Primary(key)
	}
	resp, err := t.nd.RPC.CallWithin(baseline.VoteTimeout, target, &wire.ReadRequest{Txn: t.ID, Key: key, VC: t.snap})
	if err != nil {
		return nil, false, fmt.Errorf("%w: read %q: %v", kv.ErrUnavailable, key, err)
	}
	rr, ok := resp.(*wire.ReadReturn)
	if !ok {
		return nil, false, fmt.Errorf("walter: unexpected response %T", resp)
	}
	t.rs[key] = readVal{val: rr.Val, exists: rr.Exists}
	return rr.Val, rr.Exists, nil
}

// Commit implements kv.Txn: read-only transactions finish locally;
// update transactions take the fast path when every written key prefers
// this site, else the slow (2PC) path against the preferred sites.
func (t *Txn) Commit() error { return t.Finish(t.commit) }

func (t *Txn) commit() error {
	writes := t.Writes()
	if len(writes) == 0 {
		return nil
	}
	nd := t.nd
	allLocal := true
	prefSet := map[wire.NodeID]struct{}{}
	for _, w := range writes {
		p := nd.Lookup.Primary(w.Key)
		prefSet[p] = struct{}{}
		if p != nd.ID() {
			allLocal = false
		}
	}
	if allLocal {
		return t.fastCommit(writes)
	}
	return t.slowCommit(writes, prefSet)
}

// fastCommit commits entirely at the local preferred site.
func (t *Txn) fastCommit(writes []wire.KV) error {
	nd := t.nd
	keys := t.WriteKeys()
	if !nd.locks.AcquireAll(t.ID, keys, nil, baseline.LockTimeout) {
		return kv.ErrAborted
	}
	defer nd.locks.ReleaseAll(t.ID, keys, nil)
	if !nd.noWriteConflict(keys, t.snap) {
		return kv.ErrAborted
	}
	nd.clockMu.Lock()
	nd.ownSeq++
	seq := nd.ownSeq
	nd.clockMu.Unlock()
	nd.applyWrites(nd.ID(), seq, writes)
	t.propagate(seq, writes, map[wire.NodeID]struct{}{nd.ID(): {}})
	return nil
}

// slowCommit runs 2PC against the preferred sites of the written keys.
func (t *Txn) slowCommit(writes []wire.KV, prefSet map[wire.NodeID]struct{}) error {
	nd := t.nd
	participants := make([]wire.NodeID, 0, len(prefSet))
	for p := range prefSet {
		participants = append(participants, p)
	}
	prep := &wire.Prepare{Txn: t.ID, VC: t.snap, Writes: writes}

	votes, _ := nd.RPC.Gather(baseline.VoteTimeout, participants, prep, nil)
	outcome := baseline.AllYes(votes)

	var stamp vclock.VC
	var seq uint64
	if outcome {
		nd.clockMu.Lock()
		nd.ownSeq++
		seq = nd.ownSeq
		nd.clockMu.Unlock()
		stamp = vclock.New(nd.N)
		stamp[nd.ID()] = seq
	}
	nd.RPC.Gather(baseline.VoteTimeout, participants, &wire.Decide{Txn: t.ID, VC: stamp, Commit: outcome}, nil)

	if !outcome {
		return kv.ErrAborted
	}
	t.propagate(seq, writes, prefSet)
	return nil
}

// propagate asynchronously ships the committed writes to every replica that
// did not already apply them during the commit itself (skip).
func (t *Txn) propagate(seq uint64, writes []wire.KV, skip map[wire.NodeID]struct{}) {
	nd := t.nd
	stamp := vclock.New(nd.N)
	stamp[nd.ID()] = seq
	msg := &wire.WalterPropagate{Txn: t.ID, VC: stamp, Writes: writes}
	targets := map[wire.NodeID]struct{}{}
	for _, w := range writes {
		for _, r := range nd.Lookup.Replicas(w.Key) {
			if _, s := skip[r]; s {
				continue
			}
			targets[r] = struct{}{}
		}
	}
	for r := range targets {
		if r == nd.ID() {
			nd.applyWrites(nd.ID(), seq, writes)
			continue
		}
		_ = nd.RPC.Notify(r, msg)
	}
}
