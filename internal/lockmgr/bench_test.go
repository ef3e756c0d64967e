package lockmgr

import (
	"fmt"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/wire"
)

// BenchmarkAcquire measures AcquireAll on the shapes the engine actually
// produces: the single-write-key fast path (read keys covered by the write
// lock), the multi-key canonicalizing path, and a pure shared acquisition.
// allocs/op here is the lockmgr regression metric guarded by
// scripts/check_allocs.sh — the fast paths must stay allocation-free.
func BenchmarkAcquire(b *testing.B) {
	shapes := []struct {
		name   string
		writes []string
		reads  []string
	}{
		{"single", []string{"k1"}, []string{"k1"}},
		{"multi", []string{"k1", "k2"}, []string{"k1", "k2"}},
		{"sharedOnly", nil, []string{"k1"}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			tbl := New()
			txn := wire.TxnID{Node: 0, Seq: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !tbl.AcquireAll(txn, sh.writes, sh.reads, time.Millisecond) {
					b.Fatal("uncontended acquire failed")
				}
				tbl.ReleaseAll(txn, sh.writes, sh.reads)
			}
		})
	}
}

// BenchmarkRelease isolates ReleaseAll (locks re-acquired outside the
// timed sections would distort it, so the pair is measured and the acquire
// cost subtracted by comparing with BenchmarkAcquire is left to the
// reader); the interesting number is allocs/op = 0 and the absence of
// cond.Broadcast on the uncontended path.
func BenchmarkRelease(b *testing.B) {
	tbl := New()
	txn := wire.TxnID{Node: 0, Seq: 1}
	writes, reads := []string{"k1", "k2"}, []string{"k1", "k3"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if !tbl.AcquireAll(txn, writes, reads, time.Millisecond) {
			b.Fatal("uncontended acquire failed")
		}
		b.StartTimer()
		tbl.ReleaseAll(txn, writes, reads)
	}
}

// BenchmarkWaitUnlocked measures an update read's lock check on a free key,
// the common case: one shard lookup, no clock read, no allocation (gated at
// 0 allocs/op by scripts/check_allocs.sh).
func BenchmarkWaitUnlocked(b *testing.B) {
	tbl := New()
	b.ReportAllocs()
	for b.Loop() {
		if waited, _ := tbl.WaitUnlocked("k1", time.Millisecond); waited {
			b.Fatal("free key reported a wait")
		}
	}
}

// BenchmarkAcquireContended measures the parked path: GOMAXPROCS goroutines
// fighting over a small keyspace, so waits, waiter accounting and wakeups
// are all exercised.
func BenchmarkAcquireContended(b *testing.B) {
	tbl := New()
	keys := make([]string, 4)
	for i := range keys {
		keys[i] = fmt.Sprintf("hot%d", i)
	}
	var seq int
	b.RunParallel(func(pb *testing.PB) {
		seq++
		txn := wire.TxnID{Node: wire.NodeID(seq), Seq: uint64(seq)}
		i := 0
		for pb.Next() {
			k := keys[i%len(keys)]
			i++
			if tbl.AcquireAll(txn, []string{k}, nil, 10*time.Millisecond) {
				tbl.ReleaseAll(txn, []string{k}, nil)
			}
		}
	})
}
