package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/wire"
)

// TestStripedStateStress hammers the striped engine state from every path
// that used to serialize on nd.mu — concurrent prepares/decides (update
// commits), read-only reads with their inserts, removes (both direct and
// forwarded via update-read propagation), and ext-commit freezes/purges —
// on a replicated cluster. Run under -race this is the striping soundness
// check; the final assertions catch leaked per-transaction state.
func TestStripedStateStress(t *testing.T) {
	nodes := newCluster(t, 3, 2, Config{})
	const keys = 16
	for i := 0; i < keys; i++ {
		preload(nodes, map[string]string{fmt.Sprintf("k%02d", i): "v0"})
	}

	workers := 4
	iters := 120
	if testing.Short() {
		iters = 30
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for ni, nd := range nodes {
			wg.Add(1)
			go func(nd *Node, w, ni int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					k1 := fmt.Sprintf("k%02d", (i*7+w)%keys)
					k2 := fmt.Sprintf("k%02d", (i*13+ni)%keys)
					switch i % 3 {
					case 0: // update transaction: prepare/decide/ext-commit
						tx := nd.Begin(false)
						if _, _, err := tx.Read(k1); err != nil {
							_ = tx.Abort()
							continue
						}
						_ = tx.Write(k1, []byte(fmt.Sprintf("v%d-%d-%d", w, ni, i)))
						_ = tx.Commit() // aborts are fine; state must not leak
					case 1: // read-only transaction: insert/remove
						tx := nd.Begin(true)
						_, _, err1 := tx.Read(k1)
						_, _, err2 := tx.Read(k2)
						if err1 != nil || err2 != nil {
							_ = tx.Abort()
							continue
						}
						if err := tx.Commit(); err != nil {
							t.Errorf("read-only commit: %v", err)
							return
						}
					default: // read-only abort path: removes still sent
						tx := nd.Begin(true)
						_, _, _ = tx.Read(k2)
						_ = tx.Abort()
					}
				}
			}(nd, w, ni)
		}
	}
	wg.Wait()

	// Every commit path completed; parked/inflight/pending state must have
	// drained (tombstones persist by design, capped).
	deadline := time.Now().Add(5 * time.Second)
	for _, nd := range nodes {
		for time.Now().Before(deadline) {
			if nd.parkedCount() == 0 && nd.inflightCount() == 0 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if p, f := nd.parkedCount(), nd.inflightCount(); p != 0 || f != 0 {
			t.Fatalf("node %d leaked state: parked=%d inflight=%d", nd.id, p, f)
		}
	}
}

// TestTombstoneCapAmortized checks the capped tombstone eviction: sustained
// removes must never grow removedROs beyond the cap, the newest tombstones
// must survive, and the oldest must be evicted — without any full-map
// rescan (the seed rescanned all 2^16 entries per handler call once full).
func TestTombstoneCapAmortized(t *testing.T) {
	nodes := newCluster(t, 1, 1, Config{})
	nd := nodes[0]

	var st *stripe
	// All tombstones land in one stripe to exercise its cap: pick TxnIDs
	// that hash to stripe 0... easier: drive one stripe directly. Inserts
	// are minutes apart so every FIFO head is past the age floor and the
	// soft cap governs.
	st = &nd.stripes[0]
	now := time.Now()
	total := 3 * maxTombstonesPerStripe
	st.mu.Lock()
	for i := 1; i <= total; i++ {
		st.tombstoneLocked(wire.TxnID{Node: 7, Seq: uint64(i)}, now.Add(time.Duration(i)*time.Minute))
	}
	size := len(st.removedROs)
	_, oldestGone := st.removedROs[wire.TxnID{Node: 7, Seq: 1}]
	_, newestKept := st.removedROs[wire.TxnID{Node: 7, Seq: uint64(total)}]
	st.mu.Unlock()

	if size > maxTombstonesPerStripe {
		t.Fatalf("stripe tombstones = %d, want <= %d", size, maxTombstonesPerStripe)
	}
	if oldestGone {
		t.Fatal("oldest tombstone survived past the cap")
	}
	if !newestKept {
		t.Fatal("newest tombstone evicted")
	}

	// Re-tombstoning a transaction (Remove plus a later FwdRemove) leaves a
	// stale FIFO entry at its old position. When the cap pops that stale
	// entry, the eviction must skip it by timestamp mismatch — evicting the
	// next-oldest instead — so the refreshed tombstone lives out its full
	// FIFO term.
	st.mu.Lock()
	oldest := wire.TxnID{Node: 7, Seq: uint64(total - maxTombstonesPerStripe + 1)}
	second := wire.TxnID{Node: 7, Seq: uint64(total - maxTombstonesPerStripe + 2)}
	// Refresh the oldest survivor, then insert one more (both past every
	// prior stamp so FIFO order stays time-ordered).
	st.tombstoneLocked(oldest, now.Add(time.Duration(total+1)*time.Minute))
	st.tombstoneLocked(wire.TxnID{Node: 8, Seq: 1}, now.Add(time.Duration(total+2)*time.Minute))
	_, oldestKept := st.removedROs[oldest]
	_, secondKept := st.removedROs[second]
	size = len(st.removedROs)
	st.mu.Unlock()
	if size > maxTombstonesPerStripe {
		t.Fatalf("stripe tombstones after churn = %d, want <= %d", size, maxTombstonesPerStripe)
	}
	if !oldestKept {
		t.Fatal("refreshed tombstone evicted through its stale FIFO entry")
	}
	if secondKept {
		t.Fatal("eviction did not advance past the stale FIFO entry")
	}
}

// TestTombstoneYoungBurstSparedUpToHardCap checks the age floor: a burst of
// tombstones younger than tombstoneMinAge is never evicted at the soft cap
// (the Remove-vs-late-read race they guard is still live), but the hard cap
// still bounds the stripe.
func TestTombstoneYoungBurstSparedUpToHardCap(t *testing.T) {
	nodes := newCluster(t, 1, 1, Config{})
	st := &nodes[0].stripes[0]
	now := time.Now()
	st.mu.Lock()
	for i := 1; i <= 2*hardMaxTombstonesPerStripe; i++ {
		st.tombstoneLocked(wire.TxnID{Node: 7, Seq: uint64(i)}, now)
	}
	size := len(st.removedROs)
	_, newestKept := st.removedROs[wire.TxnID{Node: 7, Seq: uint64(2 * hardMaxTombstonesPerStripe)}]
	st.mu.Unlock()
	if size != hardMaxTombstonesPerStripe {
		t.Fatalf("young burst size = %d, want hard cap %d", size, hardMaxTombstonesPerStripe)
	}
	if !newestKept {
		t.Fatal("newest tombstone evicted")
	}
}

// TestTombstoneCapViaHandlers drives the cap through the real Remove path.
// All tombstones are younger than the age floor here, so the hard cap is
// the binding bound.
func TestTombstoneCapViaHandlers(t *testing.T) {
	nodes := newCluster(t, 1, 1, Config{})
	nd := nodes[0]
	total := stripeCount*hardMaxTombstonesPerStripe + 5000
	if testing.Short() {
		total = stripeCount * 8
	}
	for i := 1; i <= total; i++ {
		nd.handleRemove(&wire.Remove{Txn: wire.TxnID{Node: 0, Seq: uint64(i)}})
	}
	if got, bound := nd.tombstoneCount(), stripeCount*hardMaxTombstonesPerStripe; got > bound {
		t.Fatalf("tombstones = %d, want <= %d", got, bound)
	}
}

// TestTombstoneBytesBounded bounds what a live tombstone costs the heap: its
// removedROs entry plus its FIFO slot, with the map's and the FIFO's spare
// capacity, at the soft cap after sustained churn. Measured at 64–91 B on
// amd64 (24 B entries in both structures; 160 B with time.Time stamps). A
// fatter stamp in either structure, or a FIFO that pins its evicted prefix,
// lands above the bound. Allocations elsewhere only add to a reading, so
// the smallest of three fresh stripes is the measurement.
func TestTombstoneBytesBounded(t *testing.T) {
	const bound = 112
	nodes := newCluster(t, 1, 1, Config{})
	perEntry := int64(-1)
	for round := 0; round < 3; round++ {
		st := &nodes[0].stripes[round]
		now := time.Now()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st.mu.Lock()
		for i := 1; i <= 8*maxTombstonesPerStripe; i++ {
			st.tombstoneLocked(wire.TxnID{Node: 7, Seq: uint64(i)}, now.Add(time.Duration(i)*time.Minute))
		}
		live := len(st.removedROs)
		st.mu.Unlock()
		runtime.GC()
		runtime.ReadMemStats(&after)
		if live != maxTombstonesPerStripe {
			t.Fatalf("live tombstones = %d, want the soft cap %d", live, maxTombstonesPerStripe)
		}
		b := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(live)
		if perEntry < 0 || b < perEntry {
			perEntry = b
		}
	}
	runtime.KeepAlive(nodes)
	t.Logf("%d B per live tombstone", perEntry)
	if perEntry > bound {
		t.Fatalf("%d B per live tombstone, want <= %d", perEntry, bound)
	}
}
