package sss

// One benchmark per figure of the paper's evaluation (§V). Each bench runs
// the YCSB workload of the corresponding experiment on the simulated
// cluster (20µs message latency, as the paper's testbed) and reports
// throughput and the figure's headline metrics via b.ReportMetric, printing
// the same series the paper plots. Node counts are laptop-scaled stand-ins
// ({2,4,6} for the paper's {5,10,15,20}); EXPERIMENTS.md records the
// shape comparison. Durations are short by default; raise -benchtime for
// smoother curves.

import (
	"fmt"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/bench"
	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/ycsb"
)

func harnessNodes(c *Cluster) []bench.Node { return mapNodes(c) }
func mapNodes(c *Cluster) (out []bench.Node) {
	for i := 0; i < c.NumNodes(); i++ {
		out = append(out, HarnessNode(c.Node(i)))
	}
	return out
}

// runPoint assembles a cluster, preloads the keyspace and runs one
// measurement point.
func runPoint(b *testing.B, eng Engine, nodes, degree int, w ycsb.Config, clients int) bench.Result {
	b.Helper()
	c, err := New(Options{Nodes: nodes, ReplicationDegree: degree, Engine: eng})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for _, k := range ycsb.Keyspace(w.Keys) {
		c.Preload(k, []byte("init"))
	}
	return bench.Run(harnessNodes(c), bench.Options{
		Workload:       w,
		ClientsPerNode: clients,
		Warmup:         50 * time.Millisecond,
		Duration:       300 * time.Millisecond,
		Seed:           1,
		Lookup:         cluster.NewLookup(nodes, degree),
	})
}

// BenchmarkFig3_Throughput regenerates Figure 3: throughput vs node count
// for SSS, 2PC-baseline and Walter at 20/50/80% read-only, 5k and 10k keys,
// replication degree 2. Also reports the abort-rate ranges quoted in §V.
func BenchmarkFig3_Throughput(b *testing.B) {
	for _, ro := range []int{20, 50, 80} {
		for _, keys := range []int{5000, 10000} {
			for _, eng := range []Engine{EngineSSS, Engine2PC, EngineWalter} {
				for _, n := range []int{2, 4, 6} {
					name := fmt.Sprintf("ro=%d/keys=%d/%s/nodes=%d", ro, keys, eng, n)
					b.Run(name, func(b *testing.B) {
						w := ycsb.Config{Keys: keys, ReadOnlyPct: ro}
						for i := 0; i < b.N; i++ {
							res := runPoint(b, eng, n, 2, w, 10)
							b.ReportMetric(res.Throughput, "txn/s")
							b.ReportMetric(res.AbortRate*100, "abort%")
						}
					})
				}
			}
		}
	}
}

// BenchmarkFig4a_MaxThroughput regenerates Figure 4(a): maximum attainable
// throughput of SSS vs 2PC-baseline (clients swept upward), 50% read-only,
// 5k keys.
func BenchmarkFig4a_MaxThroughput(b *testing.B) {
	for _, eng := range []Engine{EngineSSS, Engine2PC} {
		for _, n := range []int{2, 4, 6} {
			b.Run(fmt.Sprintf("%s/nodes=%d", eng, n), func(b *testing.B) {
				w := ycsb.Config{Keys: 5000, ReadOnlyPct: 50}
				for i := 0; i < b.N; i++ {
					best := 0.0
					for _, clients := range []int{10, 20, 40} {
						if tp := runPoint(b, eng, n, 2, w, clients).Throughput; tp > best {
							best = tp
						}
					}
					b.ReportMetric(best, "txn/s")
				}
			})
		}
	}
}

// BenchmarkFig4b_Latency regenerates Figure 4(b): external-commit latency
// of update transactions vs clients per node, 50% read-only, 5k keys.
func BenchmarkFig4b_Latency(b *testing.B) {
	for _, eng := range []Engine{EngineSSS, Engine2PC} {
		for _, clients := range []int{1, 3, 5, 10} {
			b.Run(fmt.Sprintf("%s/clients=%d", eng, clients), func(b *testing.B) {
				w := ycsb.Config{Keys: 5000, ReadOnlyPct: 50}
				for i := 0; i < b.N; i++ {
					res := runPoint(b, eng, 4, 2, w, clients)
					b.ReportMetric(float64(res.UpdateLatency.Mean.Microseconds()), "µs/commit")
				}
			})
		}
	}
}

// BenchmarkFig5_Breakdown regenerates Figure 5: the split of SSS update
// latency into begin→internal-commit and the pre-commit (snapshot-queuing)
// wait. §V reports the wait at ≤ ~30% of total latency.
func BenchmarkFig5_Breakdown(b *testing.B) {
	for _, clients := range []int{1, 3, 5, 10} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			w := ycsb.Config{Keys: 5000, ReadOnlyPct: 50}
			for i := 0; i < b.N; i++ {
				res := runPoint(b, EngineSSS, 4, 2, w, clients)
				internal := float64(res.Stats.InternalLatency.Mean().Microseconds())
				wait := float64(res.Stats.PreCommitWait.Mean().Microseconds())
				b.ReportMetric(internal, "µs-internal")
				b.ReportMetric(wait, "µs-precommit")
				if internal+wait > 0 {
					b.ReportMetric(100*wait/(internal+wait), "wait%")
				}
			}
		})
	}
}

// BenchmarkFig6_Rococo regenerates Figure 6: SSS vs ROCOCO vs 2PC-baseline
// without replication, 5k keys, at 20% and 80% read-only.
func BenchmarkFig6_Rococo(b *testing.B) {
	for _, ro := range []int{20, 80} {
		for _, eng := range []Engine{EngineSSS, Engine2PC, EngineROCOCO} {
			for _, n := range []int{2, 4, 6} {
				b.Run(fmt.Sprintf("ro=%d/%s/nodes=%d", ro, eng, n), func(b *testing.B) {
					w := ycsb.Config{Keys: 5000, ReadOnlyPct: ro}
					for i := 0; i < b.N; i++ {
						res := runPoint(b, eng, n, 1, w, 10)
						b.ReportMetric(res.Throughput, "txn/s")
					}
				})
			}
		}
	}
}

// BenchmarkFig7_Locality regenerates Figure 7: throughput at 80% read-only
// with 50% key-access locality, replication 2.
func BenchmarkFig7_Locality(b *testing.B) {
	for _, keys := range []int{5000, 10000} {
		for _, eng := range []Engine{EngineSSS, Engine2PC, EngineWalter} {
			for _, n := range []int{2, 4, 6} {
				b.Run(fmt.Sprintf("keys=%d/%s/nodes=%d", keys, eng, n), func(b *testing.B) {
					w := ycsb.Config{
						Keys: keys, ReadOnlyPct: 80,
						Distribution: ycsb.Local, Locality: 0.5,
					}
					for i := 0; i < b.N; i++ {
						res := runPoint(b, eng, n, 2, w, 10)
						b.ReportMetric(res.Throughput, "txn/s")
					}
				})
			}
		}
	}
}

// BenchmarkFig8_ReadOnlySize regenerates Figure 8: the speedup of SSS over
// ROCOCO and 2PC-baseline as read-only transactions grow from 2 to 16 keys
// (80% read-only, no replication).
func BenchmarkFig8_ReadOnlySize(b *testing.B) {
	for _, ops := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("roKeys=%d", ops), func(b *testing.B) {
			w := ycsb.Config{Keys: 5000, ReadOnlyPct: 80, ReadOnlyOps: ops}
			for i := 0; i < b.N; i++ {
				sss := runPoint(b, EngineSSS, 3, 1, w, 10).Throughput
				roc := runPoint(b, EngineROCOCO, 3, 1, w, 10).Throughput
				base := runPoint(b, Engine2PC, 3, 1, w, 10).Throughput
				if roc > 0 {
					b.ReportMetric(sss/roc, "x-vs-rococo")
				}
				if base > 0 {
					b.ReportMetric(sss/base, "x-vs-2pc")
				}
			}
		})
	}
}
