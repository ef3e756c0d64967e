package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
)

// TestFreezeSkewReplicaIndependence reconstructs, deterministically, the
// interleaving behind the multi-node freeze-skew residue (ROADMAP, closed by
// the replica-independent inclusion rule — see docs/CONSISTENCY.md §5) and
// asserts both readers agree on the order of two concurrently-freezing
// writers.
//
// The construction: two update transactions W1 (keys kA@node0, kB@node1) and
// W2 (keys kC@node1, kD@node0) are driven through prepare → decide → drain by
// a puppet coordinator (node 2) so the test controls every protocol step.
// Before the freeze round, one parked reader gates W1's freeze re-drain on
// kB@node1 and another gates W2's on kD@node0. The freeze broadcasts then
// land everywhere, but the re-drain — and with it the old committed flag —
// completes only on the ungated replicas: node 0 has W1 flagged while node 1
// has it stamped-but-parked, and vice versa for W2. Exactly this flag-timing
// divergence used to let reader R1 (reading kA then kD) include W1 but
// exclude W2 while reader R2 (reading kC then kB) included W2 but excluded
// W1 — a serialization cycle W1 → R1 → W2 → R2 → W1. With verdicts keyed off
// the coordinator-assigned freeze stamp alone, every replica reaches the
// same verdict: both readers must observe both writers.
func TestFreezeSkewReplicaIndependence(t *testing.T) {
	nodes := newCluster(t, 3, 1, Config{MaxVersions: 1 << 20, DrainTimeout: 2 * time.Second})
	lookup := cluster.NewLookup(3, 1)
	kA := keyWithPrimary(t, lookup, 0, "skewA")
	kB := keyWithPrimary(t, lookup, 1, "skewB")
	kC := keyWithPrimary(t, lookup, 1, "skewC")
	kD := keyWithPrimary(t, lookup, 0, "skewD")
	for _, k := range []string{kA, kB, kC, kD} {
		for _, nd := range nodes {
			nd.Preload(k, []byte("init"))
		}
	}
	puppet := nodes[2]

	w1 := wire.TxnID{Node: 2, Seq: 1 << 40}
	w2 := wire.TxnID{Node: 2, Seq: 1<<40 + 1}
	w1VC := puppetCommit(t, puppet, w1, []wire.KV{{Key: kA, Val: []byte("w1")}, {Key: kB, Val: []byte("w1")}}, []wire.NodeID{0, 1})
	w2VC := puppetCommit(t, puppet, w2, []wire.KV{{Key: kC, Val: []byte("w2")}, {Key: kD, Val: []byte("w2")}}, []wire.NodeID{0, 1})

	// Drain rounds first (both complete instantly: no readers are parked
	// yet). The freeze vector is computed once per writer from the commit
	// clock and the drain-stage frontiers.
	f1 := puppetDrain(t, puppet, w1, w1VC, []wire.NodeID{0, 1})
	f2 := puppetDrain(t, puppet, w2, w2VC, []wire.NodeID{0, 1})

	// Park one reader under each writer's still-unannounced W entry: their R
	// entries sit beneath the writers' insertion-snapshots, so the upcoming
	// freeze re-drains on kB@1 and kD@0 block until these readers complete.
	gateB := puppet.Begin(true)
	if v := mustRead(t, gateB, kB); v != "init" {
		t.Fatalf("gate reader on %s: unannounced parked writer must be excluded, got %q", kB, v)
	}
	gateD := puppet.Begin(true)
	if v := mustRead(t, gateD, kD); v != "init" {
		t.Fatalf("gate reader on %s: unannounced parked writer must be excluded, got %q", kD, v)
	}
	defer func() {
		_ = gateB.Abort()
		_ = gateD.Abort()
	}()

	// Freeze rounds: the gated replicas stamp the freeze vector on arrival
	// but stay parked in their re-drain until the gate readers complete.
	puppetFreeze(puppet, w1, f1, []wire.NodeID{0, 1})
	puppetFreeze(puppet, w2, f2, []wire.NodeID{0, 1})

	waitUntil(t, "kA@0 flagged", func() bool {
		_, flagged, _ := nodes[0].store.SQWriteState(kA, w1)
		return flagged
	})
	waitUntil(t, "kC@1 flagged", func() bool {
		_, flagged, _ := nodes[1].store.SQWriteState(kC, w2)
		return flagged
	})
	waitUntil(t, "kB@1 stamped", func() bool {
		stamp, _, _ := nodes[1].store.SQWriteState(kB, w1)
		return stamp != 0
	})
	waitUntil(t, "kD@0 stamped", func() bool {
		stamp, _, _ := nodes[0].store.SQWriteState(kD, w2)
		return stamp != 0
	})
	// The divergence window is pinned open: same writers, opposite flag
	// states on their two replicas — and the stamps equal the freeze
	// vector's entries, i.e. they are replica-independent values.
	if stamp, flagged, _ := nodes[1].store.SQWriteState(kB, w1); flagged || stamp != f1[1] {
		t.Fatalf("kB@1: want gated entry stamped with freezeVC[1]=%d, got stamp=%d flagged=%v", f1[1], stamp, flagged)
	}
	if stamp, flagged, _ := nodes[0].store.SQWriteState(kD, w2); flagged || stamp != f2[0] {
		t.Fatalf("kD@0: want gated entry stamped with freezeVC[0]=%d, got stamp=%d flagged=%v", f2[0], stamp, flagged)
	}

	// Two fresh readers, mirror-image key orders. Before the fix, R1 saw
	// {W1, ¬W2} and R2 saw {W2, ¬W1} — opposite orderings of two writers
	// that were freezing concurrently. The replica-independent verdict
	// includes both writers for both readers.
	r1 := puppet.Begin(true)
	r1A, r1D := mustRead(t, r1, kA), mustRead(t, r1, kD)
	r2 := puppet.Begin(true)
	r2C, r2B := mustRead(t, r2, kC), mustRead(t, r2, kB)
	if err := r1.Commit(); err != nil {
		t.Fatalf("r1 commit: %v", err)
	}
	if err := r2.Commit(); err != nil {
		t.Fatalf("r2 commit: %v", err)
	}

	// Release the gates and let both freezes complete before teardown.
	_ = gateB.Abort()
	_ = gateD.Abort()
	waitUntil(t, "kB@1 flagged after gate release", func() bool {
		_, flagged, _ := nodes[1].store.SQWriteState(kB, w1)
		return flagged
	})
	waitUntil(t, "kD@0 flagged after gate release", func() bool {
		_, flagged, _ := nodes[0].store.SQWriteState(kD, w2)
		return flagged
	})

	r1SawW1, r1SawW2 := r1A == "w1", r1D == "w2"
	r2SawW2, r2SawW1 := r2C == "w2", r2B == "w1"
	if r1SawW1 && !r1SawW2 && r2SawW2 && !r2SawW1 {
		t.Fatalf("freeze-skew: readers ordered the freezing writers oppositely: r1={%s:%q %s:%q} r2={%s:%q %s:%q}",
			kA, r1A, kD, r1D, kC, r2C, kB, r2B)
	}
	// The deterministic construction pins the strong outcome, not just the
	// absence of opposite orderings: every replica's verdict keys off the
	// stamped freeze vector, which both readers' cuts cover.
	if !r1SawW1 || !r1SawW2 || !r2SawW1 || !r2SawW2 {
		t.Fatalf("stamped freezing writers must be visible to both readers: r1={%s:%q %s:%q} r2={%s:%q %s:%q}",
			kA, r1A, kD, r1D, kC, r2C, kB, r2B)
	}
}

// keyWithPrimary returns a key whose primary replica is node want.
func keyWithPrimary(t *testing.T, lookup cluster.Lookup, want wire.NodeID, prefix string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("%s%d", prefix, i)
		if lookup.Primary(k) == want {
			return k
		}
	}
	t.Fatalf("no key with primary %d", want)
	return ""
}

func mustRead(t *testing.T, tx *Txn, key string) string {
	t.Helper()
	v, ok, err := tx.Read(key)
	if err != nil || !ok {
		t.Fatalf("read %s: ok=%v err=%v", key, ok, err)
	}
	return string(v)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// puppetCommit drives txn through prepare and decide at the given write
// replicas from the puppet coordinator, returning the levelled commit clock.
// The transaction is left parked (internally committed, external commit not
// yet started) on every replica.
func puppetCommit(t *testing.T, puppet *Node, txn wire.TxnID, writes []wire.KV, writeNodes []wire.NodeID) vclock.VC {
	t.Helper()
	return puppetPrepareDecide(t, puppet, &wire.Prepare{Txn: txn, VC: vclock.New(puppet.n), Writes: writes}, writeNodes)
}

// puppetPrepareDecide is puppetCommit for a caller-built Prepare — one that
// carries the clock and dependency set of a read the puppet made first.
func puppetPrepareDecide(t *testing.T, puppet *Node, prep *wire.Prepare, writeNodes []wire.NodeID) vclock.VC {
	t.Helper()
	txn := prep.Txn
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	commitVC := prep.VC.Clone()
	for _, to := range writeNodes {
		resp, err := puppet.rpc.Call(ctx, to, prep)
		if err != nil {
			t.Fatalf("prepare %v at %d: %v", txn, to, err)
		}
		vote, ok := resp.(*wire.Vote)
		if !ok || !vote.OK {
			t.Fatalf("prepare %v at %d: vote %+v", txn, to, resp)
		}
		commitVC.MaxInto(vote.VC)
	}
	// Level the written replicas' entries (Algorithm 1 lines 21–24).
	var xactVN uint64
	for _, w := range writeNodes {
		if commitVC[w] > xactVN {
			xactVN = commitVC[w]
		}
	}
	for _, w := range writeNodes {
		commitVC[w] = xactVN
	}
	for _, to := range writeNodes {
		if _, err := puppet.rpc.Call(ctx, to, &wire.Decide{Txn: txn, VC: commitVC, Commit: true}); err != nil {
			t.Fatalf("decide %v at %d: %v", txn, to, err)
		}
	}
	return commitVC
}

// puppetDrain runs the drain round and assembles the freeze vector from the
// drain-stage frontiers exactly as the real coordinator does.
func puppetDrain(t *testing.T, puppet *Node, txn wire.TxnID, commitVC vclock.VC, writeNodes []wire.NodeID) vclock.VC {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	freezeVC := commitVC.Clone()
	for _, to := range writeNodes {
		resp, err := puppet.rpc.Call(ctx, to, &wire.ExtCommit{Txn: txn})
		if err != nil {
			t.Fatalf("drain %v at %d: %v", txn, to, err)
		}
		if ack, ok := resp.(*wire.DecideAck); ok && ack.Ext > freezeVC[to] {
			freezeVC[to] = ack.Ext
		}
	}
	return freezeVC
}

// puppetFreeze broadcasts the freeze round — the wire.Freeze a real
// coordinator's freeze fan-out sends — without
// waiting for its acks (gated replicas block in their re-drain until the gate
// readers complete; the puppet's Close fails whatever is still outstanding).
func puppetFreeze(puppet *Node, txn wire.TxnID, freezeVC vclock.VC, writeNodes []wire.NodeID) {
	for _, to := range writeNodes {
		to := to
		go func() {
			fctx, fcancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer fcancel()
			_, _ = puppet.rpc.Call(fctx, to, &wire.Freeze{Txn: txn, VC: freezeVC})
		}()
	}
}

// TestPiggybackedDecideDrainReplicaIndependence re-runs the freeze-skew
// construction through the *piggybacked* decide+drain path (Decide.Drain):
// the drain stage rides the decide round, each write replica returns its
// drain-stage frontier in the decide ack, and the puppet coordinator forms
// the freeze vector from those acks — exactly as commitUpdate does. The
// test pins the PR-3 invariants across the pipelining: drain-stage
// frontiers are produced (in the acks) strictly before the freeze vector
// is formed, gated replicas stamp exactly freezeVC[self] at freeze
// arrival, and the two mirror-image readers agree on both freezing
// writers.
func TestPiggybackedDecideDrainReplicaIndependence(t *testing.T) {
	nodes := newCluster(t, 3, 1, Config{MaxVersions: 1 << 20, DrainTimeout: 2 * time.Second})
	lookup := cluster.NewLookup(3, 1)
	kA := keyWithPrimary(t, lookup, 0, "pgskewA")
	kB := keyWithPrimary(t, lookup, 1, "pgskewB")
	kC := keyWithPrimary(t, lookup, 1, "pgskewC")
	kD := keyWithPrimary(t, lookup, 0, "pgskewD")
	for _, k := range []string{kA, kB, kC, kD} {
		for _, nd := range nodes {
			nd.Preload(k, []byte("init"))
		}
	}
	puppet := nodes[2]

	w1 := wire.TxnID{Node: 2, Seq: 1 << 41}
	w2 := wire.TxnID{Node: 2, Seq: 1<<41 + 1}
	w1VC, f1 := puppetCommitPiggyback(t, puppet, w1, []wire.KV{{Key: kA, Val: []byte("w1")}, {Key: kB, Val: []byte("w1")}}, []wire.NodeID{0, 1})
	w2VC, f2 := puppetCommitPiggyback(t, puppet, w2, []wire.KV{{Key: kC, Val: []byte("w2")}, {Key: kD, Val: []byte("w2")}}, []wire.NodeID{0, 1})

	// The piggybacked acks carried the drain-stage frontiers: the freeze
	// vector must cover the commit clock and can only have been raised by
	// those frontiers — and it exists before any freeze was issued.
	for _, pair := range []struct{ commit, freeze vclock.VC }{{w1VC, f1}, {w2VC, f2}} {
		if !pair.commit.LessEq(pair.freeze) {
			t.Fatalf("freeze vector %v does not cover commit clock %v", pair.freeze, pair.commit)
		}
	}
	for _, w := range []wire.NodeID{0, 1} {
		if f1[w] == 0 || f2[w] == 0 {
			t.Fatalf("drain-stage frontier missing for replica %d: f1=%v f2=%v", w, f1, f2)
		}
	}

	// Gate each writer's freeze re-drain on one replica, mirrored.
	gateB := puppet.Begin(true)
	if v := mustRead(t, gateB, kB); v != "init" {
		t.Fatalf("gate reader on %s: unannounced parked writer must be excluded, got %q", kB, v)
	}
	gateD := puppet.Begin(true)
	if v := mustRead(t, gateD, kD); v != "init" {
		t.Fatalf("gate reader on %s: unannounced parked writer must be excluded, got %q", kD, v)
	}
	defer func() {
		_ = gateB.Abort()
		_ = gateD.Abort()
	}()

	puppetFreeze(puppet, w1, f1, []wire.NodeID{0, 1})
	puppetFreeze(puppet, w2, f2, []wire.NodeID{0, 1})

	waitUntil(t, "kB@1 stamped", func() bool {
		stamp, _, _ := nodes[1].store.SQWriteState(kB, w1)
		return stamp != 0
	})
	waitUntil(t, "kD@0 stamped", func() bool {
		stamp, _, _ := nodes[0].store.SQWriteState(kD, w2)
		return stamp != 0
	})
	// The ungated halves of the same (un-awaited) freeze broadcasts: the
	// readers below must not outrun them, or they blanket-exclude a writer
	// whose freeze is merely still in flight.
	waitUntil(t, "kA@0 stamped", func() bool {
		stamp, _, _ := nodes[0].store.SQWriteState(kA, w1)
		return stamp != 0
	})
	waitUntil(t, "kC@1 stamped", func() bool {
		stamp, _, _ := nodes[1].store.SQWriteState(kC, w2)
		return stamp != 0
	})
	// Gated replicas stamped exactly the freeze vector's entry, before
	// their re-drain completed: the stamp is replica-independent.
	if stamp, flagged, _ := nodes[1].store.SQWriteState(kB, w1); flagged || stamp != f1[1] {
		t.Fatalf("kB@1: want gated entry stamped with freezeVC[1]=%d, got stamp=%d flagged=%v", f1[1], stamp, flagged)
	}
	if stamp, flagged, _ := nodes[0].store.SQWriteState(kD, w2); flagged || stamp != f2[0] {
		t.Fatalf("kD@0: want gated entry stamped with freezeVC[0]=%d, got stamp=%d flagged=%v", f2[0], stamp, flagged)
	}

	r1 := puppet.Begin(true)
	r1A, r1D := mustRead(t, r1, kA), mustRead(t, r1, kD)
	r2 := puppet.Begin(true)
	r2C, r2B := mustRead(t, r2, kC), mustRead(t, r2, kB)
	if err := r1.Commit(); err != nil {
		t.Fatalf("r1 commit: %v", err)
	}
	if err := r2.Commit(); err != nil {
		t.Fatalf("r2 commit: %v", err)
	}

	_ = gateB.Abort()
	_ = gateD.Abort()
	waitUntil(t, "kB@1 flagged after gate release", func() bool {
		_, flagged, _ := nodes[1].store.SQWriteState(kB, w1)
		return flagged
	})
	waitUntil(t, "kD@0 flagged after gate release", func() bool {
		_, flagged, _ := nodes[0].store.SQWriteState(kD, w2)
		return flagged
	})

	if !(r1A == "w1" && r1D == "w2" && r2C == "w2" && r2B == "w1") {
		t.Fatalf("stamped freezing writers must be visible to both readers: r1={%s:%q %s:%q} r2={%s:%q %s:%q}",
			kA, r1A, kD, r1D, kC, r2C, kB, r2B)
	}
}

// puppetCommitPiggyback drives txn through prepare and a piggybacked
// decide+drain (Decide.Drain=true) at the given write replicas, assembling
// the freeze vector from the decide acks' drain-stage frontiers exactly as
// commitUpdate does. It returns the levelled commit clock and the freeze
// vector; the transaction is left parked (drained, freeze not yet issued)
// on every replica.
func puppetCommitPiggyback(t *testing.T, puppet *Node, txn wire.TxnID, writes []wire.KV, writeNodes []wire.NodeID) (commitVC, freezeVC vclock.VC) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	commitVC = vclock.New(puppet.n)
	for _, to := range writeNodes {
		resp, err := puppet.rpc.Call(ctx, to, &wire.Prepare{Txn: txn, VC: vclock.New(puppet.n), Writes: writes})
		if err != nil {
			t.Fatalf("prepare %v at %d: %v", txn, to, err)
		}
		vote, ok := resp.(*wire.Vote)
		if !ok || !vote.OK {
			t.Fatalf("prepare %v at %d: vote %+v", txn, to, resp)
		}
		commitVC.MaxInto(vote.VC)
	}
	var xactVN uint64
	for _, w := range writeNodes {
		if commitVC[w] > xactVN {
			xactVN = commitVC[w]
		}
	}
	for _, w := range writeNodes {
		commitVC[w] = xactVN
	}
	freezeVC = commitVC.Clone()
	for _, to := range writeNodes {
		resp, err := puppet.rpc.Call(ctx, to, &wire.Decide{Txn: txn, VC: commitVC, Commit: true, Drain: true})
		if err != nil {
			t.Fatalf("piggybacked decide %v at %d: %v", txn, to, err)
		}
		ack, ok := resp.(*wire.DecideAck)
		if !ok {
			t.Fatalf("piggybacked decide %v at %d: unexpected ack %T", txn, to, resp)
		}
		if ack.Ext == 0 {
			t.Fatalf("piggybacked decide %v at %d: ack carries no drain-stage frontier", txn, to)
		}
		if ack.Ext > freezeVC[to] {
			freezeVC[to] = ack.Ext
		}
	}
	return commitVC, freezeVC
}
