package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// TestLateStampExclusionClosure pins, deterministically, the one case the
// dependency-lifetime rule (docs/CONSISTENCY.md §4 item 1) has to cover with a
// clock instead of a dependency set: a reader that excludes writer d by its
// *stamp*, after d's slot already sits inside the reader's frozen bound, must
// still be kept from everything downstream of d — including a transaction that
// read d's dependent only after that dependent was purged and so inherited no
// set at all.
//
// d writes c@Y and parks unstamped at slot s. Updater T reads d's version of c
// (pending), writes e@X and decides. Reader R first-contacts Y on another key,
// freezing a bound b ≥ s that covers no stamp of d. d then freezes at Y with
// freezeVC[Y] > b, flags and purges; T — after its completion wait, whose
// acknowledgement told its coordinator d's freeze vector — freezes (shipping
// that knowledge as Freeze.Know) and purges. T′ reads e at X: T is purged
// there, nothing is inherited. It writes g@Z and completes. R re-reads Y for c,
// stamp-excluding d (sticky), and then first-contacts Z for g: returning T′'s
// version would close R -rw(c)→ d -wr→ T -wr→ T′ -wr(g)→ R.
func TestLateStampExclusionClosure(t *testing.T) {
	nodes := newCluster(t, 4, 1, Config{MaxVersions: 1 << 20, DrainTimeout: 2 * time.Second})
	lookup := cluster.NewLookup(4, 1)
	const X, Y, Z = wire.NodeID(0), wire.NodeID(1), wire.NodeID(2)
	kE := keyWithPrimary(t, lookup, X, "lateE")
	kC := keyWithPrimary(t, lookup, Y, "lateC")
	kOther := keyWithPrimary(t, lookup, Y, "lateOther")
	kFill := keyWithPrimary(t, lookup, Y, "lateFill")
	kG := keyWithPrimary(t, lookup, Z, "lateG")
	for _, k := range []string{kE, kC, kOther, kFill, kG} {
		for _, nd := range nodes {
			nd.Preload(k, []byte("init"))
		}
	}
	puppet := nodes[3]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	freezeAndPurge := func(f wire.Freeze, at wire.NodeID, key string) {
		t.Helper()
		if _, err := puppet.rpc.Call(ctx, at, &f); err != nil {
			t.Fatalf("freeze %v at %d: %v", f.Txn, at, err)
		}
		if err := puppet.rpc.Notify(at, &wire.Purge{Txn: f.Txn}); err != nil {
			t.Fatalf("purge %v at %d: %v", f.Txn, at, err)
		}
		waitUntil(t, "purge of "+f.Txn.String(), func() bool {
			_, _, present := nodes[at].store.SQWriteState(key, f.Txn)
			return !present
		})
	}

	// d parks on c@Y, unstamped.
	d := wire.TxnID{Node: 3, Seq: 1 << 43}
	dVC := puppetCommit(t, puppet, d, []wire.KV{{Key: kC, Val: []byte("d")}}, []wire.NodeID{Y})

	// T reads d's provisional version through the real update-read path and
	// carries what that reply hands it into its Prepare, as Txn.Read does.
	tID := wire.TxnID{Node: 3, Seq: 1<<43 + 1}
	resp, err := puppet.rpc.Call(ctx, Y, &wire.UpdateRead{Keys: []string{kC}})
	if err != nil {
		t.Fatalf("T's read of %s: %v", kC, err)
	}
	rr := &resp.(*wire.UpdateReadReply).Results[0]
	if rr.PendingWriter != d || string(rr.Val) != "d" {
		t.Fatalf("T's read of %s: val=%q pending=%v, want d's provisional version", kC, rr.Val, rr.PendingWriter)
	}
	tVC := puppetPrepareDecide(t, puppet, &wire.Prepare{Txn: tID, VC: rr.VC,
		Writes: []wire.KV{{Key: kE, Val: []byte("T")}},
		Deps:   append([]wire.TxnID{rr.PendingWriter}, rr.VerDeps...)}, []wire.NodeID{X})

	// R's bound at Y freezes on a key d never wrote: it covers d's slot and
	// none of its stamps.
	r := puppet.Begin(true)
	defer func() { _ = r.Abort() }()
	if v := mustRead(t, r, kOther); v != "init" {
		t.Fatalf("R's first contact with Y: %q", v)
	}
	b := r.vc[Y]
	if b < dVC[Y] {
		t.Fatalf("R's bound at Y is %d, beneath d's slot %d: the construction needs the slot covered", b, dVC[Y])
	}

	// A stranger's apply lifts Y's drain-stage frontier, so d's freeze vector
	// lands above R's bound.
	puppetCommit(t, puppet, wire.TxnID{Node: 3, Seq: 1<<43 + 2}, []wire.KV{{Key: kFill, Val: []byte("f")}}, []wire.NodeID{Y})
	fd := puppetDrain(t, puppet, d, dVC, []wire.NodeID{Y})
	if fd[Y] <= b {
		t.Fatalf("d's stamp at Y is %d, not above R's bound %d", fd[Y], b)
	}
	freezeAndPurge(wire.Freeze{Txn: d, VC: fd}, Y, kC)

	// T completes behind d.
	fT := puppetDrain(t, puppet, tID, tVC, []wire.NodeID{X})
	freezeAndPurge(wire.Freeze{Txn: tID, VC: fT, Know: fd}, X, kE)

	// T′ is a real transaction: it reads e at X with T purged.
	t2 := nodes[Z].Begin(false)
	if v := mustRead(t, t2, kE); v != "T" {
		t.Fatalf("T′ read %s = %q, want T's version", kE, v)
	}
	if err := t2.Write(kG, []byte("T2")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, t2)

	if v := mustRead(t, r, kC); v != "init" {
		t.Fatalf("R re-reading Y for %s saw %q: d's stamp %d is above its bound %d", kC, v, fd[Y], b)
	}
	if _, sticky := r.before[d]; !sticky {
		t.Fatalf("R did not record d as excluded: before=%v", r.before)
	}
	if v := mustRead(t, r, kG); v != "init" {
		t.Fatalf("R excluded d yet read %q from %s: R -rw-> d -wr-> T -wr-> T′ -wr-> R", v, kG)
	}
}

// TestDependencySetsStayBounded is the cost side of the same rule: two
// coordinators read-modify-write one key beside 4-key read-only transactions
// that include it. Every generation used to hand its whole ancestry to the
// next — Prepare.Deps and ReadRequest.Seen grew by one entry per commit, past a
// thousand within this run, and each transaction cost more than the last. A
// set now lives only while its writers are parked together, so both stay
// small, and the entries a request carries do not grow from the first half of
// the run to the second. The cost is counted in list entries, not wall time,
// so the bound holds on a machine of any speed.
func TestDependencySetsStayBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 3000 contended commits")
	}
	nodes := newCluster(t, 3, 2, Config{})
	keys := []string{"hot", "cold1", "cold2", "cold3"}
	for _, k := range keys {
		for _, nd := range nodes {
			nd.Preload(k, []byte("0"))
		}
	}
	const (
		commits = 3000
		maxSet  = 32
	)
	// cost is what the requests sent so far carried: Prepare.Deps and
	// ReadRequest.Seen entries over prepares (one per Commit call) plus
	// read-only read requests.
	type cost struct{ entries, requests uint64 }
	costSoFar := func(prepares uint64) cost {
		c := cost{requests: prepares}
		for _, nd := range nodes {
			c.entries += nd.stats.PrepareDeps.Load() + nd.stats.ReadSeenEntries.Load()
			c.requests += nd.stats.ReadRequests.Load()
		}
		return c
	}
	var (
		mu        sync.Mutex
		committed int
		prepares  uint64
		half      cost // at the commits/2-th commit
		depsHigh  int
		seenHigh  int
	)
	stop := make(chan struct{})
	var writers, reader sync.WaitGroup
	for _, nd := range nodes[:2] {
		nd := nd
		writers.Add(1)
		go func() {
			defer writers.Done()
			for {
				tx := nd.Begin(false)
				if _, _, err := tx.Read("hot"); err != nil {
					t.Errorf("read hot: %v", err)
					return
				}
				if err := tx.Write("hot", []byte("x")); err != nil {
					t.Errorf("write hot: %v", err)
					return
				}
				err := tx.Commit()
				if err != nil && !errors.Is(err, kv.ErrAborted) {
					t.Errorf("commit: %v", err)
					return
				}
				mu.Lock()
				prepares++
				if n := len(tx.deps); n > depsHigh {
					depsHigh = n
				}
				if err == nil {
					if committed++; committed == commits/2 {
						half = costSoFar(prepares)
					}
				}
				finished := committed >= commits
				mu.Unlock()
				if finished {
					return
				}
			}
		}()
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ro := nodes[2].Begin(true)
			for _, k := range keys {
				if _, _, err := ro.Read(k); err != nil {
					t.Errorf("ro read %s: %v", k, err)
					return
				}
			}
			if err := ro.Commit(); err != nil {
				t.Errorf("ro commit: %v", err)
				return
			}
			mu.Lock()
			if n := len(ro.seen); n > seenHigh {
				seenHigh = n
			}
			mu.Unlock()
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if t.Failed() {
		return
	}
	if depsHigh > maxSet || seenHigh > maxSet {
		t.Fatalf("high-water len(Prepare.Deps) = %d, len(ReadRequest.Seen) = %d over %d commits; want both <= %d",
			depsHigh, seenHigh, committed, maxSet)
	}
	// The bound: the second half's requests carry at most one entry more on
	// average than the first half's. Sets that grew by one entry per commit
	// would add hundreds.
	end := costSoFar(prepares)
	early := float64(half.entries) / float64(half.requests)
	late := float64(end.entries-half.entries) / float64(end.requests-half.requests)
	t.Logf("deps high-water %d, seen high-water %d; entries per request: first %d commits %.3f, last %d %.3f",
		depsHigh, seenHigh, commits/2, early, commits-commits/2, late)
	if late > early+1 {
		t.Fatalf("requests carried %.3f dependency entries each over the last %d commits, %.3f over the first %d: sets are growing",
			late, commits-commits/2, early, commits/2)
	}
}

// TestCommitterShipsWhatItWaitedOut drives the coordinator half of the fold
// with a real committer: T reads d's version before d has any stamp, so T's
// commit clock knows d's slot only; T's completion wait is answered with d's
// coordinator's external-knowledge clock (WaitExternalAck.VC), T's node folds
// it, and T's freeze carries it (Freeze.Know) to a write replica that never
// heard of d — whose clock must then cover d's stamp.
func TestCommitterShipsWhatItWaitedOut(t *testing.T) {
	nodes := newCluster(t, 4, 1, Config{MaxVersions: 1 << 20, DrainTimeout: 5 * time.Second})
	lookup := cluster.NewLookup(4, 1)
	const X, Y, A = wire.NodeID(0), wire.NodeID(1), wire.NodeID(2)
	kE := keyWithPrimary(t, lookup, X, "shipE")
	kC := keyWithPrimary(t, lookup, Y, "shipC")
	kFill := keyWithPrimary(t, lookup, Y, "shipFill")
	for _, k := range []string{kE, kC, kFill} {
		for _, nd := range nodes {
			nd.Preload(k, []byte("init"))
		}
	}
	puppet := nodes[3]

	// d parks on c@Y unstamped; its puppet coordinator registers it in flight
	// as commitUpdate does, so a WaitExternal for it blocks.
	d := wire.TxnID{Node: 3, Seq: 1 << 44}
	dVC := puppetCommit(t, puppet, d, []wire.KV{{Key: kC, Val: []byte("d")}}, []wire.NodeID{Y})
	dDone := make(chan struct{})
	st := puppet.stripeOf(d)
	st.mu.Lock()
	st.inflight[d] = dDone
	st.mu.Unlock()

	tx := nodes[A].Begin(false)
	if v := mustRead(t, tx, kC); v != "d" {
		t.Fatalf("T read %s = %q, want d's provisional version", kC, v)
	}
	if err := tx.Write(kE, []byte("T")); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() { committed <- tx.Commit() }()
	waitUntil(t, "T parked at X behind its wait for d", func() bool {
		_, _, present := nodes[X].store.SQWriteState(kE, tx.ID())
		return present
	})

	// d externally commits: a stranger's apply puts its stamp at Y above its
	// slot, the freeze lands, and its coordinator records the vector before
	// releasing its waiters.
	puppetCommit(t, puppet, wire.TxnID{Node: 3, Seq: 1<<44 + 1}, []wire.KV{{Key: kFill, Val: []byte("f")}}, []wire.NodeID{Y})
	fd := puppetDrain(t, puppet, d, dVC, []wire.NodeID{Y})
	if fd[Y] <= dVC[Y] {
		t.Fatalf("d's stamp at Y is %d, not above its slot %d", fd[Y], dVC[Y])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := puppet.rpc.Call(ctx, Y, &wire.Freeze{Txn: d, VC: fd}); err != nil {
		t.Fatalf("freeze d: %v", err)
	}
	puppet.log.RecordExternal(fd)
	st.mu.Lock()
	delete(st.inflight, d)
	st.mu.Unlock()
	close(dDone)

	if err := <-committed; err != nil {
		t.Fatalf("T commit: %v", err)
	}
	if got := nodes[X].store.Latest(kE).VC[Y]; got >= fd[Y] {
		t.Fatalf("T's commit clock already has %d at Y: the construction needs it beneath d's stamp %d", got, fd[Y])
	}
	if got := nodes[X].log.ExternalVC()[Y]; got < fd[Y] {
		t.Fatalf("X's external-knowledge clock has %d at Y after T's freeze, want d's stamp %d", got, fd[Y])
	}
}
