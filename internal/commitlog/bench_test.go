package commitlog

import (
	"math/rand"
	"testing"

	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
)

// fillLog appends `count` commits to a fresh log of the given capacity,
// mimicking steady-state traffic: ascending own slots with drifting remote
// entries, as produced by a cluster of n nodes. With lag > 0 each decide is
// followed by the freeze of the commit lag decides back (RecordExternal, as
// a replica's freeze does), so lag updates stay in flight; with lag 0 no
// freeze ever lands and the log fills to its capacity.
func fillLog(capacity, count, n, lag int, seed int64) *Log {
	l := New(0, n, capacity)
	r := rand.New(rand.NewSource(seed))
	remote := make([]uint64, n)
	var decided []vclock.VC
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
		if lag > 0 {
			decided = append(decided, final)
			if len(decided) > lag {
				l.RecordExternal(decided[0])
				decided = decided[1:]
			}
		}
	}
	return l
}

// BenchmarkVisibleMax measures Algorithm 6's bound computation, the
// per-first-read cost on the read-only hot path, in the two shapes a node's
// log has: steady, a few updates in flight (each freeze landing 8 decides
// behind its commit), and worst, DefaultCapacity commits no freeze covers.
func BenchmarkVisibleMax(b *testing.B) {
	const n = 4
	for _, shape := range []struct {
		name string
		lag  int
	}{{"steady", 8}, {"worst", 0}} {
		l := fillLog(DefaultCapacity, DefaultCapacity+100, n, shape.lag, 1)
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
			{Node: 1, Seq: DefaultCapacity + 97}: {},
			{Node: 2, Seq: DefaultCapacity + 93}: {},
		}

		b.Run(shape.name+"/unconstrained", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = l.VisibleMax(nil, nil, nil)
			}
		})
		b.Run(shape.name+"/bounded", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = l.VisibleMax(hasRead, bound, nil)
			}
		})
		b.Run(shape.name+"/excluded", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = l.VisibleMax(nil, nil, excluded)
			}
		})
	}
}

// BenchmarkClockReads measures the read-side clock accessors that every
// transaction begin and read-reply touches.
func BenchmarkClockReads(b *testing.B) {
	l := fillLog(4096, 4096, 4, 8, 1)
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
// capacity. The NLog grows with its uncovered entries, so construction must
// not allocate for the capacity up front; scripts/check_allocs.sh holds its
// bytes/op under a ceiling.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = New(0, 3, 0)
	}
}
