package engine

import (
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/wire"
)

// pollUntil retries cond for up to two seconds.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPropagatedEntriesFollowWriter exercises §III-C's transitive
// anti-dependency machinery end to end: a read-only transaction's
// snapshot-queue entry must travel with an update transaction that read the
// key into the queues of that transaction's written keys, and the Remove
// must chase it there (FwdRemove relay).
func TestPropagatedEntriesFollowWriter(t *testing.T) {
	nodes := newCluster(t, 3, 1, Config{})
	preload(nodes, map[string]string{"src": "s0", "dst": "d0"})
	lookup := nodes[0].lookup
	srcNode := nodes[lookup.Primary("src")]
	dstNode := nodes[lookup.Primary("dst")]

	// 1. A read-only transaction reads src and stays open: its R entry
	//    parks in src's queue.
	ro := nodes[0].Begin(true)
	if _, _, err := ro.Read("src"); err != nil {
		t.Fatal(err)
	}
	if r, _ := srcNode.store.SQLen("src"); r == 0 {
		t.Fatal("read-only entry missing from src's queue")
	}

	// 2. An update transaction reads src (collecting the propagated set)
	//    and writes dst; at its pre-commit the RO's entry must appear in
	//    dst's queue.
	up := nodes[1].Begin(false)
	if _, _, err := up.Read("src"); err != nil {
		t.Fatal(err)
	}
	if err := up.Write("dst", []byte("d1")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- up.Commit() }()

	pollUntil(t, "propagated R entry in dst's queue", func() bool {
		r, _ := dstNode.store.SQLen("dst")
		return r > 0
	})

	// 3. The RO commits: its Remove must be forwarded through the update
	//    coordinator to dst's replica, emptying dst's R list.
	mustCommit(t, ro)
	pollUntil(t, "propagated entry removed from dst", func() bool {
		r, _ := dstNode.store.SQLen("dst")
		return r == 0
	})
	if err := <-done; err != nil {
		t.Fatalf("update commit: %v", err)
	}
	fwd := srcNode.Stats().FwdRemoves.Load() + dstNode.Stats().FwdRemoves.Load() +
		nodes[0].Stats().FwdRemoves.Load() + nodes[1].Stats().FwdRemoves.Load() +
		nodes[2].Stats().FwdRemoves.Load()
	if fwd == 0 {
		t.Fatal("no FwdRemove was recorded")
	}
}

func TestWaitExternalUnknownTxnAcksImmediately(t *testing.T) {
	nodes := newCluster(t, 2, 1, Config{})
	start := time.Now()
	nodes[0].waitExternal(wire.TxnID{Node: 0, Seq: 999}) // never registered
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("wait on unknown local txn took %v", d)
	}
	start = time.Now()
	nodes[0].waitExternal(wire.TxnID{Node: 1, Seq: 999}) // remote, unknown
	if d := time.Since(start); d > time.Second {
		t.Fatalf("wait on unknown remote txn took %v", d)
	}
}

func TestTombstoneBlocksLateReadEntry(t *testing.T) {
	nodes := newCluster(t, 1, 1, Config{})
	nd := nodes[0]
	nd.Preload("k", []byte("v"))
	ro := wire.TxnID{Node: 0, Seq: 4242}

	// Remove arrives before the (reordered) read request: the tombstone
	// must prevent the late insert from parking writers forever.
	nd.handleRemove(&wire.Remove{Txn: ro})
	if !nd.tombstoned(ro) {
		t.Fatal("remove did not tombstone the transaction")
	}
	nd.handleRead(0, 0, &wire.ReadRequest{
		Txn: ro, Key: "k", VC: nd.log.MostRecentVC(), HasRead: make([]bool, 1),
	})
	if r, _ := nd.store.SQLen("k"); r != 0 {
		t.Fatalf("late read inserted %d entries past its tombstone", r)
	}
}

func TestCommitFreezeThenPurge(t *testing.T) {
	nodes := newCluster(t, 1, 1, Config{})
	nd := nodes[0]
	nd.Preload("k", []byte("v0"))

	// Drive a full update commit and watch the queue entry lifecycle.
	tx := nd.Begin(false)
	if _, _, err := tx.Read("k"); err != nil {
		t.Fatal(err)
	}
	_ = tx.Write("k", []byte("v1"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The purge is asynchronous (a one-way notification after the client
	// reply); wait for the W entry to clear.
	waitUntil(t, "W entry purged", func() bool {
		_, w := nd.store.SQLen("k")
		return w == 0
	})
	if nd.Stats().Commits.Load() != 1 {
		t.Fatal("commit not counted")
	}
	waitUntil(t, "parked state cleared", func() bool {
		return nd.parkedCount() == 0 && nd.inflightCount() == 0
	})
}

func TestStarvationBackoffDelaysReads(t *testing.T) {
	nodes := newCluster(t, 1, 1, Config{})
	nd := nodes[0]
	nd.Preload("k", []byte("v"))
	nd.store.SQInsert("k", wire.SQEntry{Txn: wire.TxnID{Node: 0, Seq: 7}, SID: 1, Kind: wire.EntryWrite})
	time.Sleep(starvationAge + time.Millisecond) // the parked writer is starving

	// The whole schedule runs: backoffBase doubling while within backoffMax
	// is 100+200+400+800+1600 µs, and a sleep never returns early.
	start := time.Now()
	nd.roAdmission("k")
	if d := time.Since(start); d < 3100*time.Microsecond {
		t.Fatalf("admission control delayed %v, want the full 3.1ms schedule", d)
	}
	nd.store.SQRemoveWrite("k", wire.TxnID{Node: 0, Seq: 7})
	start = time.Now()
	nd.roAdmission("k")
	if d := time.Since(start); d > 3*time.Millisecond {
		t.Fatalf("admission control delayed an uncontended key: %v", d)
	}
}
