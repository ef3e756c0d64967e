package lockmgr

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/wire"
)

var (
	t1 = wire.TxnID{Node: 0, Seq: 1}
	t2 = wire.TxnID{Node: 1, Seq: 1}
	t3 = wire.TxnID{Node: 2, Seq: 1}
)

const tick = 20 * time.Millisecond

func TestExclusiveBlocksExclusive(t *testing.T) {
	tbl := New()
	if !tbl.AcquireAll(t1, []string{"k"}, nil, tick) {
		t.Fatal("first exclusive should succeed")
	}
	if tbl.AcquireAll(t2, []string{"k"}, nil, tick) {
		t.Fatal("second exclusive should time out")
	}
	tbl.ReleaseAll(t1, []string{"k"}, nil)
	if !tbl.AcquireAll(t2, []string{"k"}, nil, tick) {
		t.Fatal("exclusive after release should succeed")
	}
}

func TestSharedCoexist(t *testing.T) {
	tbl := New()
	if !tbl.AcquireAll(t1, nil, []string{"k"}, tick) {
		t.Fatal("shared 1 failed")
	}
	if !tbl.AcquireAll(t2, nil, []string{"k"}, tick) {
		t.Fatal("shared 2 failed")
	}
	if tbl.AcquireAll(t3, []string{"k"}, nil, tick) {
		t.Fatal("exclusive over shared should time out")
	}
	tbl.ReleaseAll(t1, nil, []string{"k"})
	tbl.ReleaseAll(t2, nil, []string{"k"})
	if !tbl.AcquireAll(t3, []string{"k"}, nil, tick) {
		t.Fatal("exclusive after shared release failed")
	}
}

func TestExclusiveBlocksShared(t *testing.T) {
	tbl := New()
	if !tbl.AcquireAll(t1, []string{"k"}, nil, tick) {
		t.Fatal("exclusive failed")
	}
	if tbl.AcquireAll(t2, nil, []string{"k"}, tick) {
		t.Fatal("shared under exclusive should time out")
	}
}

func TestSameTxnReadWriteKey(t *testing.T) {
	tbl := New()
	// A transaction that reads and writes "k" exclusively locks it once;
	// the shared request must be satisfied by its own exclusive lock.
	if !tbl.AcquireAll(t1, []string{"k"}, []string{"k", "other"}, tick) {
		t.Fatal("read+write same key by one txn should succeed")
	}
	if tbl.AcquireAll(t2, nil, []string{"k"}, tick) {
		t.Fatal("other txn should not get shared lock")
	}
	tbl.ReleaseAll(t1, []string{"k"}, []string{"k", "other"})
	if tbl.Held("k") || tbl.Held("other") {
		t.Fatal("locks should be fully released")
	}
}

func TestRollbackOnPartialFailure(t *testing.T) {
	tbl := New()
	if !tbl.AcquireAll(t1, []string{"b"}, nil, tick) {
		t.Fatal("setup failed")
	}
	// t2 wants a and b; b is taken, so a must be rolled back.
	if tbl.AcquireAll(t2, []string{"a", "b"}, nil, tick) {
		t.Fatal("should time out on b")
	}
	if tbl.Held("a") {
		t.Fatal("a should have been rolled back")
	}
}

func TestRollbackSharedOnFailure(t *testing.T) {
	tbl := New()
	if !tbl.AcquireAll(t1, []string{"c"}, nil, tick) {
		t.Fatal("setup failed")
	}
	// t2 shared-locks a, b then fails on exclusive... rather: reads c
	// (blocked by t1's exclusive) after reading a.
	if tbl.AcquireAll(t2, nil, []string{"a", "c"}, tick) {
		t.Fatal("should time out on c")
	}
	if tbl.Held("a") {
		t.Fatal("shared lock on a should have been rolled back")
	}
}

func TestWaiterWakesOnRelease(t *testing.T) {
	tbl := New()
	if !tbl.AcquireAll(t1, []string{"k"}, nil, tick) {
		t.Fatal("setup failed")
	}
	done := make(chan bool, 1)
	go func() {
		done <- tbl.AcquireAll(t2, []string{"k"}, nil, time.Second)
	}()
	time.Sleep(10 * time.Millisecond)
	tbl.ReleaseAll(t1, []string{"k"}, nil)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("waiter should have acquired after release")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestReleaseNotHeldIsNoop(t *testing.T) {
	tbl := New()
	tbl.ReleaseAll(t1, []string{"x"}, []string{"y"}) // must not panic
	if tbl.Held("x") || tbl.Held("y") {
		t.Fatal("phantom locks appeared")
	}
	// Release by a non-owner must not free the lock.
	if !tbl.AcquireAll(t1, []string{"k"}, nil, tick) {
		t.Fatal("setup failed")
	}
	tbl.ReleaseAll(t2, []string{"k"}, nil)
	if !tbl.Held("k") {
		t.Fatal("non-owner release freed the lock")
	}
}

func TestDuplicateKeysInRequest(t *testing.T) {
	tbl := New()
	if !tbl.AcquireAll(t1, []string{"k", "k", "k"}, []string{"r", "r"}, tick) {
		t.Fatal("duplicate keys should be deduplicated")
	}
	tbl.ReleaseAll(t1, []string{"k", "k"}, []string{"r", "r"})
	if tbl.Held("k") || tbl.Held("r") {
		t.Fatal("release with duplicates failed")
	}
}

func TestConcurrentDisjointAcquisitions(t *testing.T) {
	tbl := New()
	const n = 32
	var wg sync.WaitGroup
	var failures atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			txn := wire.TxnID{Node: wire.NodeID(i), Seq: 1}
			key := string(rune('a' + i%26))
			for rep := 0; rep < 50; rep++ {
				if !tbl.AcquireAll(txn, []string{key}, nil, time.Second) {
					failures.Add(1)
					return
				}
				tbl.ReleaseAll(txn, []string{key}, nil)
			}
		}(i)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d goroutines failed to cycle locks", failures.Load())
	}
}

func TestContendedProgress(t *testing.T) {
	// Many goroutines contend on a handful of keys with generous timeouts;
	// everyone must eventually succeed (no lost wakeups).
	tbl := New()
	keys := []string{"a", "b", "c"}
	const n = 16
	var wg sync.WaitGroup
	var failures atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			txn := wire.TxnID{Node: wire.NodeID(i), Seq: 7}
			for rep := 0; rep < 20; rep++ {
				if !tbl.AcquireAll(txn, keys, nil, 5*time.Second) {
					failures.Add(1)
					return
				}
				tbl.ReleaseAll(txn, keys, nil)
			}
		}(i)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d goroutines timed out under contention", failures.Load())
	}
}

func TestSortedUnique(t *testing.T) {
	got := sortedUniqueInto(nil, []string{"c", "a", "b", "a", "c"})
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("sortedUniqueInto = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sortedUniqueInto = %v, want %v", got, want)
		}
	}
	if got := sortedUniqueInto(nil, nil); got != nil {
		t.Fatalf("sortedUniqueInto(nil, nil) = %v, want nil", got)
	}
	// Scratch reuse: results append after the existing prefix.
	scratch := make([]string, 0, 8)
	first := sortedUniqueInto(scratch, []string{"b", "a"})
	if len(first) != 2 || first[0] != "a" || first[1] != "b" {
		t.Fatalf("sortedUniqueInto into scratch = %v", first)
	}
}

// waitUnlockedTimed runs WaitUnlocked on key and reports its results and
// how long it took.
func waitUnlockedTimed(tbl *Table, key string, timeout time.Duration) (waited, free bool, took time.Duration) {
	start := time.Now()
	waited, free = tbl.WaitUnlocked(key, timeout)
	return waited, free, time.Since(start)
}

func TestWaitUnlockedFreeKey(t *testing.T) {
	tbl := New()
	waited, free, took := waitUnlockedTimed(tbl, "k", 5*time.Second)
	if waited || !free || took > time.Second {
		t.Fatalf("free key: waited=%v free=%v after %v, want an immediate free return", waited, free, took)
	}
}

func TestWaitUnlockedIgnoresShared(t *testing.T) {
	tbl := New()
	if !tbl.AcquireAll(t1, nil, []string{"k"}, tick) || !tbl.AcquireAll(t2, nil, []string{"k"}, tick) {
		t.Fatal("shared setup failed")
	}
	waited, free, took := waitUnlockedTimed(tbl, "k", 5*time.Second)
	if waited || !free || took > time.Second {
		t.Fatalf("shared-only key: waited=%v free=%v after %v, want an immediate free return", waited, free, took)
	}
}

func TestWaitUnlockedWakesOnRelease(t *testing.T) {
	tbl := New()
	if !tbl.AcquireAll(t1, []string{"k"}, nil, tick) {
		t.Fatal("setup failed")
	}
	type result struct {
		waited, free bool
		took         time.Duration
	}
	const bound = 5 * time.Second
	done := make(chan result, 1)
	go func() {
		w, f, d := waitUnlockedTimed(tbl, "k", bound)
		done <- result{w, f, d}
	}()
	time.Sleep(10 * time.Millisecond)
	tbl.ReleaseAll(t1, []string{"k"}, nil)
	select {
	case r := <-done:
		if !r.waited || !r.free {
			t.Fatalf("waited=%v free=%v, want a wait ended by the release", r.waited, r.free)
		}
		if r.took >= bound/2 {
			t.Fatalf("release woke the waiter only after %v (bound %v)", r.took, bound)
		}
	case <-time.After(bound):
		t.Fatal("waiter never woke")
	}
	if s := tbl.shard("k"); s.waiters != 0 {
		t.Fatalf("shard waiter count %d after the wait, want 0", s.waiters)
	}
}

func TestWaitUnlockedTimesOut(t *testing.T) {
	tbl := New()
	if !tbl.AcquireAll(t1, []string{"k"}, nil, tick) {
		t.Fatal("setup failed")
	}
	const bound, slack = 50 * time.Millisecond, 500 * time.Millisecond
	waited, free, took := waitUnlockedTimed(tbl, "k", bound)
	if !waited || free {
		t.Fatalf("held key: waited=%v free=%v, want a wait that times out", waited, free)
	}
	if took < bound || took > bound+slack {
		t.Fatalf("timed out after %v, want %v (+%v slack)", took, bound, slack)
	}
	if !tbl.Held("k") {
		t.Fatal("the waiter must not disturb the holder's lock")
	}
}
