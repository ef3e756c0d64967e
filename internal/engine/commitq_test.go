package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/wire"
)

// TestExtBatchApply drives two transactions to the parked state with the
// puppet coordinator and then freezes both with a single ExtBatch call —
// the replica-side batch path: both must be stamped with their own
// freeze vectors, re-drained, flagged, and acked at once; a purge batch
// then clears both W entries.
func TestExtBatchApply(t *testing.T) {
	nodes := newCluster(t, 3, 1, Config{MaxVersions: 1 << 20, DrainTimeout: 2 * time.Second})
	lookup := cluster.NewLookup(3, 1)
	k1 := keyWithPrimary(t, lookup, 0, "batchK1")
	k2 := keyWithPrimary(t, lookup, 0, "batchK2")
	for _, k := range []string{k1, k2} {
		for _, nd := range nodes {
			nd.Preload(k, []byte("init"))
		}
	}
	puppet := nodes[2]

	w1 := wire.TxnID{Node: 2, Seq: 1 << 42}
	w2 := wire.TxnID{Node: 2, Seq: 1<<42 + 1}
	_, f1 := puppetCommitPiggyback(t, puppet, w1, []wire.KV{{Key: k1, Val: []byte("w1")}}, []wire.NodeID{0})
	_, f2 := puppetCommitPiggyback(t, puppet, w2, []wire.KV{{Key: k2, Val: []byte("w2")}}, []wire.NodeID{0})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := puppet.rpc.Call(ctx, 0, &wire.ExtBatch{Freezes: []wire.ExtFreeze{
		{Txn: w1, VC: f1},
		{Txn: w2, VC: f2},
	}})
	if err != nil {
		t.Fatalf("ExtBatch call: %v", err)
	}
	ack, ok := resp.(*wire.ExtBatchAck)
	if !ok || ack.Freezes != 2 {
		t.Fatalf("ExtBatch ack = %+v, want 2 freezes acked", resp)
	}
	if stamp, flagged, present := nodes[0].store.SQWriteState(k1, w1); !present || !flagged || stamp != f1[0] {
		t.Fatalf("k1 after batch freeze: stamp=%d flagged=%v present=%v, want stamp=%d flagged", stamp, flagged, present, f1[0])
	}
	if stamp, flagged, present := nodes[0].store.SQWriteState(k2, w2); !present || !flagged || stamp != f2[0] {
		t.Fatalf("k2 after batch freeze: stamp=%d flagged=%v present=%v, want stamp=%d flagged", stamp, flagged, present, f2[0])
	}
	if got := nodes[0].stats.CommitRounds.FreezeBatchTxns.Load(); got < 2 {
		t.Fatalf("FreezeBatchTxns = %d, want >= 2", got)
	}

	// Purge batch (one-way) removes both entries.
	if err := puppet.rpc.Notify(0, &wire.ExtBatch{Purges: []wire.TxnID{w1, w2}}); err != nil {
		t.Fatalf("purge notify: %v", err)
	}
	waitUntil(t, "both W entries purged", func() bool {
		_, _, present1 := nodes[0].store.SQWriteState(k1, w1)
		_, _, present2 := nodes[0].store.SQWriteState(k2, w2)
		return !present1 && !present2
	})
}

// TestConcurrentFreezesNoLostAcks hammers the freeze round with concurrent
// update transactions from both nodes of a fully-replicated pair (every
// freeze goes to both peers) and asserts every commit completes — no lost
// freeze acks, no wedged commit — with the replica-side batch accounting
// consistent. Run under -race in CI.
func TestConcurrentFreezesNoLostAcks(t *testing.T) {
	nodes := newCluster(t, 2, 2, Config{})
	const keys = 32
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("cq%03d", i)
		for _, nd := range nodes {
			nd.Preload(k, []byte("init"))
		}
	}

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(nodes))
	for _, nd := range nodes {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(nd *Node, w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					tx := nd.Begin(false)
					k := fmt.Sprintf("cq%03d", (w*perWorker+i)%keys)
					if _, _, err := tx.Read(k); err != nil {
						errs <- fmt.Errorf("read %s: %w", k, err)
						_ = tx.Abort()
						return
					}
					if err := tx.Write(k, []byte{byte(i)}); err != nil {
						errs <- err
						_ = tx.Abort()
						return
					}
					// Lock-conflict aborts are legitimate under this
					// contention; only wedges/infrastructure errors fail.
					_ = tx.Commit()
				}
			}(nd, w)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("commit workers wedged: freeze acks lost")
	}
	close(errs)
	for err := range errs {
		t.Errorf("worker error: %v", err)
	}

	var commits, freezes uint64
	for _, nd := range nodes {
		commits += nd.stats.Commits.Load()
		freezes += nd.stats.CommitRounds.FreezeBatchTxns.Load()
	}
	if commits == 0 {
		t.Fatal("no commits went through")
	}
	// Every commit freezes at both replicas (full replication): the
	// replica-side batch accounting must cover commits × 2.
	if freezes < commits*2 {
		t.Fatalf("freeze batch txns = %d, want >= %d (commits=%d × 2 replicas)", freezes, commits*2, commits)
	}
}
