package engine

import (
	"fmt"
	"testing"
)

// BenchmarkUpdateTxnCommit measures the end-to-end update path — Begin,
// `ops` read-modify-writes, Commit through prepare, piggybacked
// decide+drain, freeze fan-out and purge — on a single node so transport
// noise is minimal. allocs/op here is the write-side allocation-diet
// regression metric guarded by scripts/check_allocs.sh.
func BenchmarkUpdateTxnCommit(b *testing.B) {
	for _, ops := range []int{1, 2} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			nodes := newBenchCluster(b, 1, 1, 64)
			nd := nodes[0]
			val := []byte("v")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := nd.Begin(false)
				for j := 0; j < ops; j++ {
					k := fmt.Sprintf("key%04d", (i*ops+j)%64)
					if _, _, err := tx.Read(k); err != nil {
						b.Fatal(err)
					}
					if err := tx.Write(k, val); err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpdateTxnCommitRemote drives the same path across a 2-node
// cluster with replication, so every commit pays real broadcasts, the
// piggybacked drain ack, and the freeze fan-out to both replicas.
func BenchmarkUpdateTxnCommitRemote(b *testing.B) {
	nodes := newBenchCluster(b, 2, 2, 64)
	nd := nodes[0]
	val := []byte("v")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := nd.Begin(false)
		k := fmt.Sprintf("key%04d", i%64)
		if _, _, err := tx.Read(k); err != nil {
			b.Fatal(err)
		}
		if err := tx.Write(k, val); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
