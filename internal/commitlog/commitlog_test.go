package commitlog

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
)

func txn(node, seq int) wire.TxnID {
	return wire.TxnID{Node: wire.NodeID(node), Seq: uint64(seq)}
}

func TestPrepareNonWriteReplicaProposesMostRecent(t *testing.T) {
	l := New(0, 3, 0)
	vc := l.Prepare(txn(0, 1), false, nil)
	if !vc.IsZero() {
		t.Fatalf("fresh log should propose zero clock, got %v", vc)
	}
	if l.QueueLen() != 0 {
		t.Fatal("non-write replica must not enqueue")
	}
}

func TestPrepareWriteReplicaIncrementsAndEnqueues(t *testing.T) {
	l := New(1, 3, 0)
	vc := l.Prepare(txn(0, 1), true, nil)
	if vc[1] != 1 {
		t.Fatalf("prepare VC = %v, want own entry 1", vc)
	}
	if l.QueueLen() != 1 {
		t.Fatal("write replica must enqueue pending entry")
	}
	vc2 := l.Prepare(txn(0, 2), true, nil)
	if vc2[1] != 2 {
		t.Fatalf("second prepare VC = %v, want own entry 2", vc2)
	}
}

func TestDecideCommitAppliesInOrder(t *testing.T) {
	l := New(0, 2, 0)
	var applied []int
	mkApply := func(i int) ApplyFunc {
		return func(vc vclock.VC) { applied = append(applied, i) }
	}
	vc1 := l.Prepare(txn(0, 1), true, mkApply(1))
	vc2 := l.Prepare(txn(0, 2), true, mkApply(2))

	// Decide T2 first: it must wait behind pending T1.
	if l.Decide(txn(0, 2), vc2, true, true) {
		t.Fatal("T2 must not apply while T1 is pending ahead of it")
	}
	if len(applied) != 0 {
		t.Fatal("nothing should have applied yet")
	}
	if !l.Decide(txn(0, 1), vc1, true, true) {
		t.Fatal("T1 should apply at queue head")
	}
	if len(applied) != 2 || applied[0] != 1 || applied[1] != 2 {
		t.Fatalf("apply order = %v, want [1 2]", applied)
	}
	if got := l.Applied(); got != 2 {
		t.Fatalf("Applied = %d, want 2", got)
	}
}

func TestDecideAbortUnblocksFollowers(t *testing.T) {
	l := New(0, 2, 0)
	var applied []int
	vc1 := l.Prepare(txn(0, 1), true, func(vclock.VC) { applied = append(applied, 1) })
	_ = vc1
	vc2 := l.Prepare(txn(0, 2), true, func(vclock.VC) { applied = append(applied, 2) })
	if l.Decide(txn(0, 2), vc2, true, true) {
		t.Fatal("T2 blocked by pending T1")
	}
	// Abort T1: T2 must drain.
	l.Decide(txn(0, 1), nil, false, true)
	if len(applied) != 1 || applied[0] != 2 {
		t.Fatalf("applied = %v, want [2]", applied)
	}
}

func TestDecideReorderByFinalClock(t *testing.T) {
	l := New(0, 2, 0)
	var applied []int
	vc1 := l.Prepare(txn(0, 1), true, func(vclock.VC) { applied = append(applied, 1) }) // [1 0]
	vc2 := l.Prepare(txn(0, 2), true, func(vclock.VC) { applied = append(applied, 2) }) // [2 0]
	// T1's final clock jumps past T2's prepare clock (a remote replica
	// proposed a higher entry): final vc1[0] = 5.
	final1 := vc1.Clone()
	final1[0] = 5
	if l.Decide(txn(0, 1), final1, true, true) {
		t.Fatal("T1 reordered behind pending T2; must not apply yet")
	}
	if !l.Decide(txn(0, 2), vc2, true, true) {
		t.Fatal("T2 is now the head and ready")
	}
	if len(applied) != 2 || applied[0] != 2 || applied[1] != 1 {
		t.Fatalf("apply order = %v, want [2 1]", applied)
	}
}

func TestNodeVCFoldsCommitVC(t *testing.T) {
	l := New(0, 3, 0)
	// A decide for a transaction this node only read for: folds the clock.
	l.Decide(txn(1, 1), vclock.VC{0, 7, 2}, true, false)
	if got := l.NodeVC(); got[1] != 7 || got[2] != 2 {
		t.Fatalf("NodeVC = %v, want [_ 7 2]", got)
	}
	// mostRecent unchanged: nothing applied here.
	if !l.MostRecentVC().IsZero() {
		t.Fatal("MostRecentVC should remain zero (no local apply)")
	}
}

func TestWaitMostRecent(t *testing.T) {
	l := New(0, 2, 0)
	if !l.WaitMostRecent(0, time.Millisecond) {
		t.Fatal("bound 0 should be satisfied immediately")
	}
	if l.WaitMostRecent(1, 10*time.Millisecond) {
		t.Fatal("bound 1 unreachable, wait should time out")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var ok bool
	go func() {
		defer wg.Done()
		ok = l.WaitMostRecent(1, 5*time.Second)
	}()
	time.Sleep(5 * time.Millisecond)
	vc := l.Prepare(txn(0, 1), true, nil)
	l.Decide(txn(0, 1), vc, true, true)
	wg.Wait()
	if !ok {
		t.Fatal("waiter should observe the applied commit")
	}
}

func TestVisibleMaxRespectsHasRead(t *testing.T) {
	l := New(0, 2, 0)
	vc1 := l.Prepare(txn(0, 1), true, nil)
	l.Decide(txn(0, 1), vc1, true, true) // applied [1 0]
	vc2 := l.Prepare(txn(0, 2), true, nil)
	l.Decide(txn(0, 2), vc2, true, true) // applied [2 0]

	all := l.VisibleMax(nil, nil, nil)
	if all[0] != 2 {
		t.Fatalf("unbounded VisibleMax = %v, want [2 0]", all)
	}
	bounded := l.VisibleMax([]bool{true, false}, vclock.VC{1, 0}, nil)
	if bounded[0] != 1 {
		t.Fatalf("bounded VisibleMax = %v, want [1 0]", bounded)
	}
	// Excluding T2 with no bound gives [1 0] as well.
	ex := map[wire.TxnID]struct{}{txn(0, 2): {}}
	if got := l.VisibleMax(nil, nil, ex); got[0] != 1 {
		t.Fatalf("excluded VisibleMax = %v, want [1 0]", got)
	}
}

func TestVisibleMaxGenesisAlwaysPresent(t *testing.T) {
	l := New(0, 2, 4)
	// Bound that nothing satisfies still yields the genesis zero clock.
	vc1 := l.Prepare(txn(0, 1), true, nil)
	l.Decide(txn(0, 1), vc1, true, true)
	got := l.VisibleMax([]bool{true, true}, vclock.VC{0, 0}, nil)
	if !got.IsZero() {
		t.Fatalf("VisibleMax = %v, want zero (genesis only)", got)
	}
}

// TestRingEviction overfills a capacity-4 log with commits the external
// clock never covers: the log keeps only the last four, while Applied,
// MostRecentVC and VisibleMax still reflect every commit.
func TestRingEviction(t *testing.T) {
	l := New(0, 1, 4)
	for i := 1; i <= 20; i++ {
		vc := l.Prepare(txn(0, i), true, nil)
		l.Decide(txn(0, i), vc, true, true)
	}
	if got := l.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := l.Applied(); got != 20 {
		t.Fatalf("Applied = %d, want 20", got)
	}
	if got := l.MostRecentVC(); got[0] != 20 {
		t.Fatalf("MostRecentVC = %v, want [20]", got)
	}
	// VisibleMax over retained entries must still work.
	if got := l.VisibleMax(nil, nil, nil); got[0] != 20 {
		t.Fatalf("VisibleMax = %v", got)
	}
}

func TestStringSmoke(t *testing.T) {
	l := New(0, 2, 0)
	if s := l.String(); s == "" {
		t.Fatal("String should not be empty")
	}
}

// Property: for any interleaving of prepares and decides, transactions
// apply in ascending final vc[self] order.
func TestPropApplyOrderMatchesClockOrder(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := New(0, 1, 0)
		count := 2 + r.Intn(8)
		type prepared struct {
			id wire.TxnID
			vc vclock.VC
		}
		var applied []uint64
		pend := make([]prepared, 0, count)
		for i := 0; i < count; i++ {
			id := txn(0, i+1)
			var vc vclock.VC
			vc = l.Prepare(id, true, func(cvc vclock.VC) {
				applied = append(applied, cvc[0])
			})
			pend = append(pend, prepared{id, vc})
		}
		// Decide in random order; applies must still come out in
		// ascending vc[self] order.
		r.Shuffle(len(pend), func(i, j int) { pend[i], pend[j] = pend[j], pend[i] })
		for _, p := range pend {
			l.Decide(p.id, p.vc, true, true)
		}
		if l.QueueLen() != 0 || len(applied) != count {
			return false
		}
		for i := 1; i < len(applied); i++ {
			if applied[i-1] >= applied[i] {
				return false
			}
		}
		return l.MostRecentVC()[0] == uint64(count)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPrepareDecide(t *testing.T) {
	l := New(0, 4, 0)
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := wire.TxnID{Node: wire.NodeID(w), Seq: uint64(i + 1)}
				vc := l.Prepare(id, true, nil)
				l.Decide(id, vc, true, true)
			}
		}(w)
	}
	wg.Wait()
	if l.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", l.QueueLen())
	}
	if got := l.Applied(); got != workers*perWorker {
		t.Fatalf("Applied = %d, want %d", got, workers*perWorker)
	}
	if got := l.NodeVC()[0]; got != workers*perWorker {
		t.Fatalf("NodeVC[0] = %d, want %d", got, workers*perWorker)
	}
}
