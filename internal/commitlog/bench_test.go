package commitlog

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
)

// fillLog appends `count` commits to a fresh log of the given capacity,
// mimicking steady-state traffic: ascending own slots with drifting remote
// entries, as produced by a cluster of n nodes.
func fillLog(capacity, count, n int, seed int64) *Log {
	l := New(0, n, capacity)
	r := rand.New(rand.NewSource(seed))
	remote := make([]uint64, n)
	for i := 1; i <= count; i++ {
		id := wire.TxnID{Node: wire.NodeID(r.Intn(n)), Seq: uint64(i)}
		vc := l.Prepare(id, true, nil)
		final := vc.Clone()
		for w := 1; w < n; w++ {
			if r.Intn(4) == 0 {
				remote[w]++
			}
			final[w] = remote[w]
		}
		l.Decide(id, final, true, true)
	}
	return l
}

// BenchmarkVisibleMax measures Algorithm 6's bound computation at the
// default NLog capacity with the ring full — the per-first-read cost on the
// read-only hot path. The seed implementation scanned all 65536 entries per
// call; the indexed implementation must not scale with capacity.
func BenchmarkVisibleMax(b *testing.B) {
	const n = 4
	for _, capacity := range []int{4096, DefaultCapacity} {
		l := fillLog(capacity, capacity, n, 1)
		frontier := l.MostRecentVC()

		// A realistic constrained bound: two contacted nodes, bound near the
		// frontier (fresh readers begin close to the applied state).
		hasRead := make([]bool, n)
		hasRead[1], hasRead[2] = true, true
		bound := frontier.Clone()
		bound[1] = bound[1] * 3 / 4
		bound[2] = bound[2] * 3 / 4

		// A small exclusion set naming recent writers, as produced by parked
		// update transactions on the key being read.
		excluded := map[wire.TxnID]struct{}{
			{Node: 1, Seq: uint64(capacity - 3)}: {},
			{Node: 2, Seq: uint64(capacity - 7)}: {},
		}

		b.Run(fmt.Sprintf("cap=%d/unconstrained", capacity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = l.VisibleMax(nil, nil, nil)
			}
		})
		b.Run(fmt.Sprintf("cap=%d/bounded", capacity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = l.VisibleMax(hasRead, bound, nil)
			}
		})
		b.Run(fmt.Sprintf("cap=%d/excluded", capacity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = l.VisibleMax(nil, nil, excluded)
			}
		})
		// The seed's linear ring scan, for the speedup comparison.
		b.Run(fmt.Sprintf("cap=%d/naive-unconstrained", capacity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = l.visibleMaxNaive(nil, nil, nil)
			}
		})
		b.Run(fmt.Sprintf("cap=%d/naive-bounded", capacity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = l.visibleMaxNaive(hasRead, bound, nil)
			}
		})
		b.Run(fmt.Sprintf("cap=%d/naive-excluded", capacity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = l.visibleMaxNaive(nil, nil, excluded)
			}
		})
	}
}

// BenchmarkClockReads measures the read-side clock accessors that every
// transaction begin and read-reply touches.
func BenchmarkClockReads(b *testing.B) {
	l := fillLog(4096, 4096, 4, 1)
	b.Run("SnapshotVC", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = l.SnapshotVC()
		}
	})
	b.Run("AppliedSelf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = l.AppliedSelf()
		}
	})
	b.Run("FoldExternalInto", func(b *testing.B) {
		b.ReportAllocs()
		vc := vclock.New(4)
		for i := 0; i < b.N; i++ {
			l.FoldExternalInto(vc)
		}
	})
}

// BenchmarkNew measures building a node's commit machinery at the default
// capacity. The ring and its txn→seq index grow with the retained entries,
// so construction must not allocate for the capacity up front;
// scripts/check_allocs.sh holds its bytes/op under a ceiling.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = New(0, 3, 0)
	}
}
