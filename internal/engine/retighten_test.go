package engine

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/wire"
)

// TestRetightenDrainRound forces a real commitUpdate down its standalone
// drain round — the only sender of wire.ExtCommit — and pins what that round
// is for: the freeze vector is re-sampled from its acks, so every write
// replica stamps the frontier it reported *then*, not the one its
// piggybacked decide ack carried.
//
// The trigger is the replica-side reader signal: an R entry parked on the
// written key with an insertion-snapshot at or above the writer's blocks no
// drain, but SQHasReadEntries sets DecideAck.Gated, and one gated ack makes
// the coordinator re-tighten at every write replica. The re-sample is made
// observable by the transport filter, which stands in for a concurrent
// transaction: as each drain-round request leaves the coordinator it
// internally commits one more slot at the destination, so that replica's
// drain-stage frontier has moved past the value its decide ack reported.
func TestRetightenDrainRound(t *testing.T) {
	const coord = wire.NodeID(2)
	var nodes []*Node
	// One slot per destination: the two drain-round sends run on different
	// goroutines and each writes only its own replica's element.
	var resampled [3]uint64
	filter := func(from, to wire.NodeID, env wire.Envelope) bool {
		if _, ok := env.Msg.(*wire.ExtCommit); ok {
			nd := nodes[to]
			bump := wire.TxnID{Node: to, Seq: 1 << 43}
			nd.log.Decide(bump, nd.log.Prepare(bump, true, nil), true, true)
			resampled[to] = nd.log.AppliedSelf()
		}
		return true
	}
	nodes = newClusterNet(t, 3, 2, Config{}, transport.InProcConfig{DisableLatency: true, Filter: filter})
	lookup := cluster.NewLookup(3, 2)
	key := keyWithPrimary(t, lookup, 0, "retighten")
	writeReplicas := lookup.Replicas(key) // nodes 0 and 1: the coordinator writes nothing
	preload(nodes, map[string]string{key: "v0"})

	tx := nodes[coord].Begin(false)
	if v := mustRead(t, tx, key); v != "v0" {
		t.Fatalf("read %s = %q, want v0", key, v)
	}
	ro := wire.TxnID{Node: coord, Seq: 1 << 44}
	nodes[0].store.SQInsert(key, wire.SQEntry{Txn: ro, SID: 1 << 40, Kind: wire.EntryRead})
	defer nodes[0].store.SQRemoveRead(ro)
	if err := tx.Write(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	for _, w := range writeReplicas {
		rounds := &nodes[w].Stats().CommitRounds
		if got := rounds.DrainsPiggybacked.Load(); got != 1 {
			t.Fatalf("node %d: DrainsPiggybacked = %d, want 1 (the decide carried the drain stage)", w, got)
		}
		if got := rounds.DrainRounds.Load(); got != 1 {
			t.Fatalf("node %d: DrainRounds = %d, want 1 (one gated ack re-tightens every write replica)", w, got)
		}
		ver := nodes[w].store.Latest(key)
		if ver.Writer != tx.ID() {
			t.Fatalf("node %d: latest version of %s written by %v, want %v", w, key, ver.Writer, tx.ID())
		}
		commitVC := ver.VC
		if resampled[w] <= commitVC[w] {
			t.Fatalf("node %d: drain-round frontier %d did not move past the commit slot %d", w, resampled[w], commitVC[w])
		}
		if got := stampOf(nodes[w], key, tx.ID()); got != resampled[w] {
			t.Fatalf("node %d: stamp = %d, want %d (the frontier the drain round re-sampled; commit slot %d)",
				w, got, resampled[w], commitVC[w])
		}
	}
	if got := nodes[coord].Stats().CommitRounds.DrainRounds.Load(); got != 0 {
		t.Fatalf("coordinator (no written key) served %d drain rounds, want 0", got)
	}
}

// TestLostDecideAckRetightensWithoutDrainTimeout drops the one DecideAck a
// write replica sends for a decide. The coordinator's decide leg then
// returns no ack; the commit must still complete through the standalone
// drain round (counted at the replica as DrainRounds), and no node may
// count a DrainTimeouts — no drain hit its cap, an ack was merely lost.
func TestLostDecideAckRetightensWithoutDrainTimeout(t *testing.T) {
	var dropped atomic.Bool
	filter := func(from, to wire.NodeID, env wire.Envelope) bool {
		if _, ok := env.Msg.(*wire.DecideAck); ok && from == 1 && to == 0 {
			return !dropped.CompareAndSwap(false, true) // drop the first only
		}
		return true
	}
	cfg := Config{DrainTimeout: 200 * time.Millisecond}
	nodes := newClusterNet(t, 2, 1, cfg, transport.InProcConfig{DisableLatency: true, Filter: filter})
	key := keyOwnedBy(t, nodes[0].lookup, 1)
	preload(nodes, map[string]string{key: "v0"})

	tx := nodes[0].Begin(false)
	if v := mustRead(t, tx, key); v != "v0" {
		t.Fatalf("read %s = %q, want v0", key, v)
	}
	if err := tx.Write(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	if !dropped.Load() {
		t.Fatal("no DecideAck was dropped: the test exercised nothing")
	}
	if got := nodes[1].Stats().CommitRounds.DrainRounds.Load(); got < 1 {
		t.Fatalf("replica served %d standalone drain rounds, want >= 1 (the lost ack re-tightens)", got)
	}
	for i, nd := range nodes {
		if got := nd.Stats().DrainTimeouts.Load(); got != 0 {
			t.Fatalf("node %d: DrainTimeouts = %d, want 0 (a lost ack is not a drain that hit its cap)", i, got)
		}
	}
	if got := readKey(t, nodes[0], key); got != "v1" {
		t.Fatalf("read after commit = %q, want v1", got)
	}
}
