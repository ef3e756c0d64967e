package walter

import (
	"context"
	"fmt"
	"time"

	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// Txn is a Walter transaction running under PSI. It implements kv.Txn.
type Txn struct {
	nd       *Node
	id       wire.TxnID
	readOnly bool

	snap vclock.VC // snapshot taken at Begin

	rs      map[string]readVal
	ws      map[string][]byte
	wsOrder []string

	begin time.Time
	done  bool
}

type readVal struct {
	val    []byte
	exists bool
}

var _ kv.Txn = (*Txn)(nil)

// Begin starts a transaction with the site-local snapshot.
func (nd *Node) Begin(readOnly bool) *Txn {
	return &Txn{
		nd:       nd,
		id:       wire.TxnID{Node: nd.id, Seq: nd.txnSeq.Add(1)},
		readOnly: readOnly,
		snap:     nd.snapshot(),
		rs:       make(map[string]readVal),
		ws:       make(map[string][]byte),
		begin:    time.Now(),
	}
}

// Read implements kv.Txn: a snapshot read served by the fastest replica.
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

	// Walter reads site-locally when the site replicates the key (that is
	// what makes its reads cheap and what the locality experiment of
	// Figure 7 rewards); otherwise it asks the key's preferred site.
	target := t.nd.id
	if !t.nd.lookup.IsReplica(key, t.nd.id) {
		target = t.nd.lookup.Primary(key)
	}
	ctx, cancel := context.WithTimeout(context.Background(), t.nd.cfg.VoteTimeout)
	defer cancel()
	resp, err := t.nd.rpc.Call(ctx, target, &wire.ReadRequest{Txn: t.id, Key: key, VC: t.snap})
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

// Commit implements kv.Txn: read-only transactions finish locally;
// update transactions take the fast path when every written key prefers
// this site, else the slow (2PC) path against the preferred sites.
func (t *Txn) Commit() error {
	if t.done {
		return kv.ErrTxnDone
	}
	t.done = true
	nd := t.nd
	now := time.Now
	if len(t.ws) == 0 {
		nd.stats.ReadOnlyRuns.Add(1)
		nd.stats.ReadOnlyLatency.Observe(now().Sub(t.begin))
		return nil
	}

	writes := make([]wire.KV, 0, len(t.wsOrder))
	allLocal := true
	prefSet := map[wire.NodeID]struct{}{}
	for _, k := range t.wsOrder {
		writes = append(writes, wire.KV{Key: k, Val: t.ws[k]})
		p := nd.lookup.Primary(k)
		prefSet[p] = struct{}{}
		if p != nd.id {
			allLocal = false
		}
	}

	var err error
	if allLocal {
		err = t.fastCommit(writes)
	} else {
		err = t.slowCommit(writes, prefSet)
	}
	end := now()
	if err != nil {
		nd.stats.Aborts.Add(1)
		return err
	}
	nd.stats.Commits.Add(1)
	nd.stats.CommitLatency.Observe(end.Sub(t.begin))
	nd.stats.InternalLatency.Observe(end.Sub(t.begin))
	return nil
}

// fastCommit commits entirely at the local preferred site.
func (t *Txn) fastCommit(writes []wire.KV) error {
	nd := t.nd
	keys := make([]string, len(writes))
	for i, w := range writes {
		keys[i] = w.Key
	}
	if !nd.locks.AcquireAll(t.id, keys, nil, nd.cfg.LockTimeout) {
		return kv.ErrAborted
	}
	defer nd.locks.ReleaseAll(t.id, keys, nil)
	if !nd.noWriteConflict(keys, t.snap) {
		return kv.ErrAborted
	}
	nd.clockMu.Lock()
	nd.ownSeq++
	seq := nd.ownSeq
	nd.clockMu.Unlock()
	nd.applyWrites(nd.id, seq, writes)
	t.propagate(seq, writes, map[wire.NodeID]struct{}{nd.id: {}})
	return nil
}

// slowCommit runs 2PC against the preferred sites of the written keys.
func (t *Txn) slowCommit(writes []wire.KV, prefSet map[wire.NodeID]struct{}) error {
	nd := t.nd
	participants := make([]wire.NodeID, 0, len(prefSet))
	for p := range prefSet {
		participants = append(participants, p)
	}
	prep := &wire.Prepare{Txn: t.id, VC: t.snap, Writes: writes}

	ctx, cancel := context.WithTimeout(context.Background(), nd.cfg.VoteTimeout)
	votes, _ := t.nd.rpc.Gather(ctx, participants, prep, nil)
	cancel()
	outcome := true
	for _, v := range votes {
		vote, ok := v.(*wire.Vote)
		if !ok || !vote.OK {
			outcome = false
			break
		}
	}

	var stamp vclock.VC
	var seq uint64
	if outcome {
		nd.clockMu.Lock()
		nd.ownSeq++
		seq = nd.ownSeq
		nd.clockMu.Unlock()
		stamp = vclock.New(nd.n)
		stamp[nd.id] = seq
	}
	dctx, dcancel := context.WithTimeout(context.Background(), nd.cfg.VoteTimeout)
	defer dcancel()
	t.nd.rpc.Gather(dctx, participants, &wire.Decide{Txn: t.id, VC: stamp, Commit: outcome}, nil)

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
	stamp := vclock.New(nd.n)
	stamp[nd.id] = seq
	msg := &wire.WalterPropagate{Txn: t.id, VC: stamp, Writes: writes}
	targets := map[wire.NodeID]struct{}{}
	for _, w := range writes {
		for _, r := range nd.lookup.Replicas(w.Key) {
			if _, s := skip[r]; s {
				continue
			}
			targets[r] = struct{}{}
		}
	}
	for r := range targets {
		if r == nd.id {
			nd.applyWrites(nd.id, seq, writes)
			continue
		}
		_ = nd.rpc.Notify(r, msg)
	}
}
