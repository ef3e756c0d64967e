package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// These suites pin an update read's wait for a prepared writer: writer W is
// prepared on key k at its replica R by a puppet coordinator, which holds
// W's decide back, so W holds k's exclusive lock at R. An update
// transaction T then reads k at R. Reading k's latest version at once would
// hand T the version W is about to replace, and T's prepare could only vote
// no; the read instead waits, within LockTimeout, for W's lock to go.

// prepareHeld prepares a one-write transaction txn on key at replica r from
// the puppet coordinator and returns its vote clock; no decide is sent.
func prepareHeld(t *testing.T, puppet *Node, txn wire.TxnID, r wire.NodeID, key, val string) vclock.VC {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := puppet.rpc.Call(ctx, r, &wire.Prepare{Txn: txn, VC: vclock.New(puppet.n), Writes: []wire.KV{{Key: key, Val: []byte(val)}}})
	if err != nil {
		t.Fatalf("prepare %v at %d: %v", txn, r, err)
	}
	vote, ok := resp.(*wire.Vote)
	if !ok || !vote.OK {
		t.Fatalf("prepare %v at %d: vote %+v", txn, r, resp)
	}
	return vote.VC
}

// decideHeld sends the held-back commit decision for txn to replica r.
func decideHeld(t *testing.T, puppet *Node, txn wire.TxnID, r wire.NodeID, commitVC vclock.VC) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := puppet.rpc.Call(ctx, r, &wire.Decide{Txn: txn, VC: commitVC, Commit: true}); err != nil {
		t.Fatalf("decide %v at %d: %v", txn, r, err)
	}
}

// TestUpdateReadWaitsForPreparedWriter: the read does not return while W is
// prepared, and W's commit releases it with W's own version, which is still
// parked — so T takes W as its pending writer and commits after it.
func TestUpdateReadWaitsForPreparedWriter(t *testing.T) {
	nodes := newCluster(t, 3, 1, Config{LockTimeout: 10 * time.Second})
	const r = wire.NodeID(0)
	k := keyWithPrimary(t, cluster.NewLookup(3, 1), r, "updwait")
	preload(nodes, map[string]string{k: "init"})
	puppet := nodes[2]
	w := wire.TxnID{Node: 2, Seq: 1 << 42}
	commitVC := prepareHeld(t, puppet, w, r, k, "w")

	tx := nodes[1].Begin(false)
	type readResult struct {
		val string
		err error
	}
	read := make(chan readResult, 1)
	go func() {
		v, _, err := tx.Read(k)
		read <- readResult{string(v), err}
	}()

	// The read reaches R and parks behind W's lock; it must not come back
	// with the version W is about to replace.
	select {
	case res := <-read:
		t.Fatalf("update read returned %q (err %v) before %v's decide", res.val, res.err, w)
	case <-time.After(100 * time.Millisecond):
	}

	decideHeld(t, puppet, w, r, commitVC)
	var res readResult
	select {
	case res = <-read:
	case <-time.After(5 * time.Second):
		t.Fatal("update read still blocked after the writer's commit released its lock")
	}
	if res.err != nil || res.val != "w" {
		t.Fatalf("update read after %v's commit = %q (err %v), want its version %q", w, res.val, res.err, "w")
	}
	if got := tx.ReadWriters()[k]; got != w {
		t.Fatalf("read version's writer = %v, want %v", got, w)
	}
	if _, pending := tx.pendingWriters[w]; !pending {
		t.Fatalf("parked writer %v not recorded as pending writer (have %v)", w, tx.pendingWriters)
	}
	if got := nodes[r].Stats().UpdateReadWaits.Load(); got != 1 {
		t.Fatalf("UpdateReadWaits = %d, want 1", got)
	}

	// W's coordinator finishes it (drain, freeze); T then commits behind it.
	freezeVC := puppetDrain(t, puppet, w, commitVC, []wire.NodeID{r})
	puppetFreeze(puppet, w, freezeVC, []wire.NodeID{r})
	waitUntil(t, "the writer's freeze", func() bool {
		_, flagged, present := nodes[r].store.SQWriteState(k, w)
		return flagged || !present
	})
	if err := tx.Write(k, []byte("t")); err != nil {
		t.Fatalf("write: %v", err)
	}
	mustCommit(t, tx)
	if got := nodes[r].Stats().NoVoteStale.Load() + nodes[r].Stats().NoVoteLocks.Load(); got != 0 {
		t.Fatalf("%d no-votes at the replica, want none", got)
	}
}

// TestUpdateReadWaitIsBounded: W's decide stays held past LockTimeout. The
// read then returns the old version within the bound (no wedge), and T's
// prepare votes no on the lock, as it would have without the wait.
func TestUpdateReadWaitIsBounded(t *testing.T) {
	const lockTimeout, slack = 50 * time.Millisecond, 2 * time.Second
	nodes := newCluster(t, 3, 1, Config{LockTimeout: lockTimeout})
	const r = wire.NodeID(0)
	k := keyWithPrimary(t, cluster.NewLookup(3, 1), r, "updbound")
	preload(nodes, map[string]string{k: "init"})
	puppet := nodes[2]
	w := wire.TxnID{Node: 2, Seq: 1<<42 + 1}
	commitVC := prepareHeld(t, puppet, w, r, k, "w")

	tx := nodes[1].Begin(false)
	start := time.Now()
	v := mustRead(t, tx, k)
	took := time.Since(start)
	if v != "init" {
		t.Fatalf("update read under a held lock = %q, want the old version", v)
	}
	if took < lockTimeout || took > lockTimeout+slack {
		t.Fatalf("update read returned after %v, want the %v lock timeout (+%v slack)", took, lockTimeout, slack)
	}
	if got := nodes[r].Stats().UpdateReadWaits.Load(); got != 1 {
		t.Fatalf("UpdateReadWaits = %d, want 1", got)
	}

	if err := tx.Write(k, []byte("t")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("commit over a still-prepared writer: %v, want %v", err, kv.ErrAborted)
	}
	if got := nodes[r].Stats().NoVoteLocks.Load(); got != 1 {
		t.Fatalf("NoVoteLocks = %d, want 1", got)
	}

	decideHeld(t, puppet, w, r, commitVC)
	waitUntil(t, "the writer's apply", func() bool { return nodes[r].store.Latest(k).Writer == w })
}
