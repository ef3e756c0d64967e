package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/mvstore"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/wire"
)

// These suites are the deterministic tier-1 form of the disk-full fault
// lane's residual anomaly (docs/CONSISTENCY.md §7): a committed writer whose
// freeze delivery to one replica keeps failing, so the client ack could
// outrun that replica's stamp. The live lane needs a cluster, a wedged disk
// and a checker to surface the resulting
//
//	A -rt-> B -rw-> C -wr-> D -rw-> A
//
// cycle; here the lossy link is a puppet — an InProc Filter that swallows
// Freeze messages to the starved replica — and the closed window
// is asserted directly on the engine's defense, FreezeAckBudget (the ack is
// withheld while the freeze redelivers). No live cluster, no
// timing-dependent checker.

// freezeStarver returns an InProc filter dropping Freeze envelopes addressed
// to victim while blocked holds, plus the flag itself.
func freezeStarver(victim wire.NodeID) (*atomic.Bool, func(from, to wire.NodeID, env wire.Envelope) bool) {
	blocked := &atomic.Bool{}
	blocked.Store(true)
	return blocked, func(from, to wire.NodeID, env wire.Envelope) bool {
		if to != victim || !blocked.Load() {
			return true
		}
		if _, ok := env.Msg.(*wire.Freeze); ok {
			return false // the lossy link: freeze never arrives
		}
		return true
	}
}

// keyOwnedBy finds a key whose single replica (degree 1) is node v, so the
// test controls exactly which replica the freeze delivery starves.
func keyOwnedBy(t *testing.T, lk cluster.Lookup, v wire.NodeID) string {
	t.Helper()
	for _, k := range []string{"ka", "kb", "kc", "kd", "ke", "kf", "kg", "kh"} {
		reps := lk.Replicas(k)
		if len(reps) == 1 && reps[0] == v {
			return k
		}
	}
	t.Fatal("no probe key maps to the victim replica")
	return ""
}

// TestFreezeAckWithheldOnLostFreeze: with FreezeAckBudget active, the
// committer's client ack must not be released while the victim replica's
// freeze is still being redelivered — the ack-vs-stamp window stays
// closed, so no post-ack reader can catch the replica unstamped.
func TestFreezeAckWithheldOnLostFreeze(t *testing.T) {
	blocked, filter := freezeStarver(1)
	cfg := Config{VoteTimeout: 100 * time.Millisecond, FreezeAckBudget: 30 * time.Second}
	nodes := newClusterNet(t, 2, 1, cfg, transport.InProcConfig{DisableLatency: true, Filter: filter})
	key := keyOwnedBy(t, nodes[0].lookup, 1)
	preload(nodes, map[string]string{key: "v0"})

	committed := make(chan error, 1)
	go func() {
		tx := nodes[0].Begin(false)
		if _, _, err := tx.Read(key); err != nil {
			committed <- err
			return
		}
		if err := tx.Write(key, []byte("v1")); err != nil {
			committed <- err
			return
		}
		committed <- tx.Commit()
	}()

	// The first delivery times out after VoteTimeout; the withheld leg
	// is counted before the retry. Wait for proof the discipline engaged.
	deadline := time.Now().Add(10 * time.Second)
	for nodes[0].Stats().FreezeAckWithheld.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("freeze redelivery never withheld the ack")
		}
		select {
		case err := <-committed:
			t.Fatalf("commit returned (%v) while the freeze was undelivered", err)
		case <-time.After(5 * time.Millisecond):
		}
	}

	blocked.Store(false) // link heals; the withheld freeze redelivers
	select {
	case err := <-committed:
		if err != nil {
			t.Fatalf("commit after link heal: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commit did not complete after the link healed")
	}
	if got := nodes[0].Stats().FreezeAckBudgetExpired.Load(); got != 0 {
		t.Fatalf("budget expired %d times within a 30s budget", got)
	}

	// The ack was withheld until the stamp landed: a post-ack read through
	// the once-starved replica sees the write with no blind exclusion — the
	// rt edge of the checker cycle cannot form.
	if got := readKey(t, nodes[0], key); got != "v1" {
		t.Fatalf("post-ack read through healed replica = %q, want v1", got)
	}
}

// TestFreezeAckBudgetExpiryReleasesClient: the discipline is liveness-first
// past the budget — a replica that stays unreachable must not wedge the
// committer forever, and the degrade is counted.
func TestFreezeAckBudgetExpiryReleasesClient(t *testing.T) {
	blocked, filter := freezeStarver(1)
	cfg := Config{VoteTimeout: 100 * time.Millisecond, FreezeAckBudget: time.Millisecond}
	nodes := newClusterNet(t, 2, 1, cfg, transport.InProcConfig{DisableLatency: true, Filter: filter})
	key := keyOwnedBy(t, nodes[0].lookup, 1)
	preload(nodes, map[string]string{key: "v0"})

	done := make(chan struct{})
	go func() {
		defer close(done)
		writeKey(t, nodes[0], key, "v1")
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("commit still withheld past an expired 1ms budget")
	}
	if got := nodes[0].Stats().FreezeAckBudgetExpired.Load(); got == 0 {
		t.Fatal("liveness-first release not counted in FreezeAckBudgetExpired")
	}
	blocked.Store(false)

	// The release did not abandon the freeze: redelivery stamps the starved
	// replica, and its purge, which comes only after that ack, clears the
	// parked W entry.
	waitUntil(t, "the starved replica's purge", func() bool { return nodes[1].parkedCount() == 0 })
	if got := readKey(t, nodes[1], key); got != "v1" {
		t.Fatalf("read at the once-starved replica = %q, want v1", got)
	}
	var stamp uint64
	_ = nodes[1].store.Dump(func(k string, v mvstore.VersionRec) error {
		if k == key && string(v.Val) == "v1" {
			stamp = v.ExtSID
		}
		return nil
	})
	if stamp == 0 {
		t.Fatal("v1 purged at the once-starved replica without its freeze stamp")
	}
}

// TestCloseDuringFreezeRedelivery: a commit released past its freeze-ack
// budget leaves a goroutine redelivering the starved replica's freeze. Close
// must end it — return promptly and leave no goroutine behind.
func TestCloseDuringFreezeRedelivery(t *testing.T) {
	_, filter := freezeStarver(1)
	cfg := Config{VoteTimeout: 100 * time.Millisecond, FreezeAckBudget: time.Millisecond}
	nodes := newClusterNet(t, 2, 1, cfg, transport.InProcConfig{DisableLatency: true, Filter: filter})
	key := keyOwnedBy(t, nodes[0].lookup, 1)
	own := keyOwnedBy(t, nodes[0].lookup, 0)
	preload(nodes, map[string]string{key: "v0", own: "v0"})
	// Warm every link the commit uses, so the baseline counts their
	// transport goroutines.
	writeKey(t, nodes[0], own, "w")
	_ = readKey(t, nodes[0], key)
	base := runtime.NumGoroutine()

	writeKey(t, nodes[0], key, "v1")
	if nodes[0].Stats().FreezeAckBudgetExpired.Load() == 0 {
		t.Fatal("commit returned without the budget expiring")
	}
	closed := make(chan struct{})
	go func() {
		_ = nodes[0].Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on the freeze redelivery")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the commit", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
