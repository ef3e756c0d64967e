package sss

// Ablation benchmarks for the headline design knobs (docs/ARCHITECTURE.md):
// replication
// degree, lock-acquisition timeout (the paper's deadlock-prevention
// parameter, §III-E), and read-only transaction share sweeps finer than the
// paper's three points. These are not paper figures; they characterize the
// implementation's own trade-offs.

import (
	"fmt"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/bench"
	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/ycsb"
)

// BenchmarkAblation_ReplicationDegree sweeps the replication degree: more
// replicas mean more 2PC participants and read fan-out per transaction, but
// better read locality.
func BenchmarkAblation_ReplicationDegree(b *testing.B) {
	for _, degree := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			w := ycsb.Config{Keys: 5000, ReadOnlyPct: 50}
			for i := 0; i < b.N; i++ {
				res := runPoint(b, EngineSSS, 3, degree, w, 10)
				b.ReportMetric(res.Throughput, "txn/s")
				b.ReportMetric(res.AbortRate*100, "abort%")
			}
		})
	}
}

// BenchmarkAblation_LockTimeout sweeps the lock-acquisition timeout: too
// short aborts transactions that merely queued behind a healthy holder, too
// long serializes conflicting prepares. The paper picks 1ms for a 20µs
// network.
func BenchmarkAblation_LockTimeout(b *testing.B) {
	for _, lt := range []time.Duration{200 * time.Microsecond, 1 * time.Millisecond, 5 * time.Millisecond} {
		b.Run(fmt.Sprintf("timeout=%v", lt), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := New(Options{
					Nodes: 3, ReplicationDegree: 2, Engine: EngineSSS, LockTimeout: lt,
				})
				if err != nil {
					b.Fatal(err)
				}
				w := ycsb.Config{Keys: 500, ReadOnlyPct: 20} // contended
				for _, k := range ycsb.Keyspace(w.Keys) {
					c.Preload(k, []byte("init"))
				}
				res := bench.Run(mapNodes(c), bench.Options{
					Workload:       w,
					ClientsPerNode: 10,
					Warmup:         50 * time.Millisecond,
					Duration:       300 * time.Millisecond,
					Seed:           1,
					Lookup:         cluster.NewLookup(3, 2),
				})
				_ = c.Close()
				b.ReportMetric(res.Throughput, "txn/s")
				b.ReportMetric(res.AbortRate*100, "abort%")
			}
		})
	}
}

// BenchmarkAblation_ReadOnlyShare sweeps the read-only percentage finely,
// showing where abort-freedom starts paying on this substrate.
func BenchmarkAblation_ReadOnlyShare(b *testing.B) {
	for _, ro := range []int{0, 25, 50, 75, 95} {
		b.Run(fmt.Sprintf("ro=%d", ro), func(b *testing.B) {
			w := ycsb.Config{Keys: 2000, ReadOnlyPct: ro}
			for i := 0; i < b.N; i++ {
				res := runPoint(b, EngineSSS, 3, 2, w, 10)
				b.ReportMetric(res.Throughput, "txn/s")
				b.ReportMetric(float64(res.Stats.ExternalWaits.Load()), "ext-waits")
			}
		})
	}
}

// BenchmarkAblation_ZipfSkew runs the (beyond-paper) Zipfian hotspot
// distribution to show snapshot-queue contention on skewed access.
func BenchmarkAblation_ZipfSkew(b *testing.B) {
	for _, dist := range []struct {
		name string
		cfg  ycsb.Config
	}{
		{"uniform", ycsb.Config{Keys: 2000, ReadOnlyPct: 50}},
		{"zipfian", ycsb.Config{Keys: 2000, ReadOnlyPct: 50, Distribution: ycsb.Zipfian}},
	} {
		b.Run(dist.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runPoint(b, EngineSSS, 3, 2, dist.cfg, 10)
				b.ReportMetric(res.Throughput, "txn/s")
				b.ReportMetric(res.AbortRate*100, "abort%")
			}
		})
	}
}
