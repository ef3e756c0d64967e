package commitlog

import (
	"math/rand"
	"testing"

	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
)

// TestRingGrowsToCapacityThenWraps drives a log at a non-power-of-two
// capacity through growth, the first full ring, and repeated wrap-around,
// checking after every append that the index still answers every query
// shape like the linear scan, that CommitClock finds exactly the retained
// transactions with their commit clocks, and that the ring never holds more
// than capacity entries.
func TestRingGrowsToCapacityThenWraps(t *testing.T) {
	const capacity, n = 100, 3
	l := New(1, n, capacity)
	if l.Len() != 0 || cap(l.entries) != 0 {
		t.Fatalf("fresh log: Len = %d, cap(entries) = %d, want 0, 0", l.Len(), cap(l.entries))
	}
	r := rand.New(rand.NewSource(7))
	var ids []wire.TxnID
	var clocks []vclock.VC
	for i := 1; i <= 5*capacity/2; i++ {
		id := wire.TxnID{Node: wire.NodeID(r.Intn(n)), Seq: uint64(i)}
		final := l.Prepare(id, true, nil).Clone()
		final[0] = uint64(r.Intn(i + 1))
		final[2] = uint64(r.Intn(i + 1))
		l.Decide(id, final, true, true)
		ids = append(ids, id)
		clocks = append(clocks, final)

		if got, want := l.Len(), min(i, capacity); got != want {
			t.Fatalf("after %d appends: Len = %d, want %d", i, got, want)
		}
		if c := cap(l.entries); c > capacity {
			t.Fatalf("after %d appends: cap(entries) = %d exceeds capacity %d", i, c, capacity)
		}
		if i < capacity && l.start != 0 {
			t.Fatalf("after %d appends: start = %d before the ring filled", i, l.start)
		}

		frontier := l.MostRecentVC()
		hasRead := []bool{true, false, true}
		bound := vclock.VC{frontier[0] / 2, 0, frontier[2]}
		excluded := map[wire.TxnID]struct{}{ids[r.Intn(len(ids))]: {}}
		for _, q := range []struct {
			hasRead  []bool
			bound    vclock.VC
			excluded map[wire.TxnID]struct{}
		}{{nil, nil, nil}, {hasRead, bound, nil}, {nil, nil, excluded}, {hasRead, bound, excluded}} {
			got := l.VisibleMax(q.hasRead, q.bound, q.excluded)
			want := l.visibleMaxNaive(q.hasRead, q.bound, q.excluded)
			if !got.Equal(want) {
				t.Fatalf("after %d appends: VisibleMax(%v, %v, %v) = %v, naive %v",
					i, q.hasRead, q.bound, q.excluded, got, want)
			}
		}

		for j, id := range ids {
			vc, ok := l.CommitClock(id)
			retained := j >= i-capacity
			if ok != retained {
				t.Fatalf("after %d appends: CommitClock(txn %d) ok = %v, want %v", i, j+1, ok, retained)
			}
			if ok && !vc.Equal(clocks[j]) {
				t.Fatalf("after %d appends: CommitClock(txn %d) = %v, want %v", i, j+1, vc, clocks[j])
			}
		}
	}
}

// TestNewAllocatesNoRing pins the footprint of an idle node's commit
// machinery: building a Log at the default capacity must not allocate the
// ring or the txn→seq index for the capacity up front.
func TestNewAllocatesNoRing(t *testing.T) {
	const ceiling = 64 << 10
	if got := testing.Benchmark(BenchmarkNew).AllocedBytesPerOp(); got >= ceiling {
		t.Fatalf("New(0, 3, 0) allocates %d B, want < %d", got, ceiling)
	}
}
