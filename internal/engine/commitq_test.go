package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/wire"
)

// TestFreezeAndPurgeApply drives one transaction to the parked state with
// the puppet coordinator, freezes it with a Freeze call and purges it with a
// Purge notification — the replica side of the external commit: the freeze
// must stamp the writer with its own freeze vector, flag it and come back as
// a FreezeAck, and the purge must then clear its W entry and parked state.
func TestFreezeAndPurgeApply(t *testing.T) {
	nodes := newCluster(t, 3, 1, Config{MaxVersions: 1 << 20, DrainTimeout: 2 * time.Second})
	lookup := cluster.NewLookup(3, 1)
	k := keyWithPrimary(t, lookup, 0, "freezeK")
	for _, nd := range nodes {
		nd.Preload(k, []byte("init"))
	}
	puppet, replica := nodes[2], nodes[0]
	w := wire.TxnID{Node: 2, Seq: 1 << 42}
	_, f := puppetCommitPiggyback(t, puppet, w, []wire.KV{{Key: k, Val: []byte("w")}}, []wire.NodeID{0})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := puppet.rpc.Call(ctx, 0, &wire.Freeze{Txn: w, VC: f})
	if err != nil {
		t.Fatalf("freeze call: %v", err)
	}
	if _, ok := resp.(*wire.FreezeAck); !ok {
		t.Fatalf("freeze answered %T, want *wire.FreezeAck", resp)
	}
	if stamp, flagged, present := replica.store.SQWriteState(k, w); !present || !flagged || stamp != f[0] {
		t.Fatalf("after freeze: stamp=%d flagged=%v present=%v, want stamp=%d flagged", stamp, flagged, present, f[0])
	}
	cr := &replica.stats.CommitRounds
	if b, txns := cr.FreezeBatches.Load(), cr.FreezeBatchTxns.Load(); b != 1 || txns != 1 {
		t.Fatalf("freeze counters: batches=%d txns=%d, want 1 and 1", b, txns)
	}
	if n := replica.parkedCount(); n != 1 {
		t.Fatalf("parked before purge = %d, want 1", n)
	}

	if err := puppet.rpc.Notify(0, &wire.Purge{Txn: w}); err != nil {
		t.Fatalf("purge notify: %v", err)
	}
	waitUntil(t, "the purge", func() bool { return cr.PurgeBatchTxns.Load() == 1 })
	if _, _, present := replica.store.SQWriteState(k, w); present {
		t.Fatal("W entry survived its purge")
	}
	if n := replica.parkedCount(); n != 0 {
		t.Fatalf("parked after purge = %d, want 0", n)
	}
}

// TestPurgeIsIdempotent delivers the two purges a TCP resend makes
// reachable — a duplicate of one already applied, and one for a transaction
// the replica never parked — beside a transaction still parked there, in the
// same parked-state stripe as both. Both must be no-ops: the parked count, the parked writer's W entry and what a
// reader sees stay as they were (docs/ARCHITECTURE.md, idempotency table).
func TestPurgeIsIdempotent(t *testing.T) {
	nodes := newCluster(t, 3, 1, Config{MaxVersions: 1 << 20, DrainTimeout: 2 * time.Second})
	lookup := cluster.NewLookup(3, 1)
	kDone := keyWithPrimary(t, lookup, 0, "purgedK")
	kParked := keyWithPrimary(t, lookup, 0, "parkedK")
	for _, k := range []string{kDone, kParked} {
		for _, nd := range nodes {
			nd.Preload(k, []byte("init"))
		}
	}
	puppet, replica := nodes[2], nodes[0]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	done := wire.TxnID{Node: 2, Seq: 1 << 42}
	_, f := puppetCommitPiggyback(t, puppet, done, []wire.KV{{Key: kDone, Val: []byte("done")}}, []wire.NodeID{0})
	if _, err := puppet.rpc.Call(ctx, 0, &wire.Freeze{Txn: done, VC: f}); err != nil {
		t.Fatalf("freeze: %v", err)
	}
	cr := &replica.stats.CommitRounds
	purge := func(txn wire.TxnID, want uint64) {
		t.Helper()
		if err := puppet.rpc.Notify(0, &wire.Purge{Txn: txn}); err != nil {
			t.Fatalf("purge %v: %v", txn, err)
		}
		waitUntil(t, "purge of "+txn.String(), func() bool { return cr.PurgeBatchTxns.Load() == want })
	}
	purge(done, 1)

	parked := wire.TxnID{Node: 2, Seq: done.Seq + stripeCount}
	puppetCommitPiggyback(t, puppet, parked, []wire.KV{{Key: kParked, Val: []byte("parked")}}, []wire.NodeID{0})
	type state struct {
		parked               int
		stamp                uint64
		flagged, present     bool
		readDone, readParked string
	}
	observe := func() state {
		var s state
		s.parked = replica.parkedCount()
		s.stamp, s.flagged, s.present = replica.store.SQWriteState(kParked, parked)
		r := nodes[1].Begin(true)
		s.readDone, s.readParked = mustRead(t, r, kDone), mustRead(t, r, kParked)
		mustCommit(t, r)
		return s
	}
	before := observe()
	if before.parked != 1 || !before.present || before.readDone != "done" {
		t.Fatalf("before the stray purges: %+v, want one parked writer and %s = done", before, kDone)
	}

	purge(done, 2)                                               // a duplicate of an applied purge
	purge(wire.TxnID{Node: 2, Seq: parked.Seq + stripeCount}, 3) // never parked here
	if after := observe(); after != before {
		t.Fatalf("stray purges changed the replica: before %+v, after %+v", before, after)
	}
}

// TestConcurrentFreezesNoLostAcks hammers the freeze round with concurrent
// update transactions from both nodes of a fully-replicated pair (every
// freeze goes to both peers) and asserts every commit completes — no lost
// freeze acks, no wedged commit — with the replica-side freeze accounting
// consistent. Run under -race in CI.
func TestConcurrentFreezesNoLostAcks(t *testing.T) {
	nodes := newCluster(t, 2, 2, Config{})
	const keys = 32
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("cq%03d", i)
		for _, nd := range nodes {
			nd.Preload(k, []byte("init"))
		}
	}

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(nodes))
	for _, nd := range nodes {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(nd *Node, w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					tx := nd.Begin(false)
					k := fmt.Sprintf("cq%03d", (w*perWorker+i)%keys)
					if _, _, err := tx.Read(k); err != nil {
						errs <- fmt.Errorf("read %s: %w", k, err)
						_ = tx.Abort()
						return
					}
					if err := tx.Write(k, []byte{byte(i)}); err != nil {
						errs <- err
						_ = tx.Abort()
						return
					}
					// Lock-conflict aborts are legitimate under this
					// contention; only wedges/infrastructure errors fail.
					_ = tx.Commit()
				}
			}(nd, w)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("commit workers wedged: freeze acks lost")
	}
	close(errs)
	for err := range errs {
		t.Errorf("worker error: %v", err)
	}

	var commits, freezes uint64
	for _, nd := range nodes {
		commits += nd.stats.Commits.Load()
		freezes += nd.stats.CommitRounds.FreezeBatchTxns.Load()
	}
	if commits == 0 {
		t.Fatal("no commits went through")
	}
	// Every commit freezes at both replicas (full replication): the
	// replica-side freeze count must cover commits × 2.
	if freezes < commits*2 {
		t.Fatalf("freezes received = %d, want >= %d (commits=%d × 2 replicas)", freezes, commits*2, commits)
	}
}
