package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

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

// tomb tombstones id under its stripe lock, as the handlers do.
func tomb(nd *Node, id wire.TxnID) {
	st := nd.stripeOf(id)
	st.mu.Lock()
	st.tombstoneLocked(id)
	st.mu.Unlock()
}

// windowCaps returns the largest word capacity any tombstone window holds.
func windowCaps(nd *Node) int {
	most := 0
	for i := range nd.stripes {
		st := &nd.stripes[i]
		st.mu.Lock()
		for _, w := range st.tombs {
			most = max(most, cap(w.words))
		}
		st.mu.Unlock()
	}
	return most
}

// TestTombstoneCapAmortized checks the window rule under sustained
// tombstoning by one coordinator: the count never passes tombWindow, the
// newest tombWindow/2 always survive, everything older than the window is
// gone, no window grows past its tombWords share (the window slides instead
// of growing), and re-tombstoning a kept transaction changes nothing.
func TestTombstoneCapAmortized(t *testing.T) {
	nd := newCluster(t, 1, 1, Config{})[0]
	total := 3 * tombWindow
	if testing.Short() {
		total = tombWindow + tombWindow/2
	}
	id := func(seq int) wire.TxnID { return wire.TxnID{Node: 7, Seq: uint64(seq)} }
	for seq := 1; seq <= total; seq++ {
		tomb(nd, id(seq))
		if seq%4096 == 0 {
			if got := nd.tombstoneCount(); got > tombWindow {
				t.Fatalf("after %d tombstones: count %d, want <= %d", seq, got, tombWindow)
			}
		}
	}
	for seq := total - tombWindow/2 + 1; seq <= total; seq++ {
		if !nd.tombstoned(id(seq)) {
			t.Fatalf("tombstone %d of the newest %d forgotten (newest %d)", seq, tombWindow/2, total)
		}
	}
	// A stripe's window spans tombWindow/stripeCount of its slots, so
	// nothing a window and a stripe's worth of slots older than the newest
	// survives.
	for seq := 1; seq <= total-tombWindow-2*stripeCount; seq++ {
		if nd.tombstoned(id(seq)) {
			t.Fatalf("tombstone %d older than the window survived (newest %d)", seq, total)
		}
	}
	if got := windowCaps(nd); got > tombWords {
		t.Fatalf("a window holds %d words, want <= %d", got, tombWords)
	}
	before := nd.tombstoneCount()
	tomb(nd, id(total))
	tomb(nd, id(total-1))
	if got := nd.tombstoneCount(); got != before {
		t.Fatalf("re-tombstoning changed the count %d -> %d", before, got)
	}
}

// TestTombstoneBurstSparesOtherCoordinators checks that windows are per
// coordinator epoch: a burst from one coordinator slides only its own
// window, never another coordinator's or its own other epoch's.
func TestTombstoneBurstSparesOtherCoordinators(t *testing.T) {
	nd := newCluster(t, 1, 1, Config{})[0]
	const few = 100
	for seq := uint64(1); seq <= few; seq++ {
		tomb(nd, wire.TxnID{Node: 3, Seq: seq})
		tomb(nd, wire.TxnID{Node: 7, Seq: 1<<32 + seq})
	}
	burst := 2 * tombWindow
	if testing.Short() {
		burst = tombWindow + tombWindow/2
	}
	for seq := 1; seq <= burst; seq++ {
		tomb(nd, wire.TxnID{Node: 7, Seq: uint64(seq)})
	}
	for seq := uint64(1); seq <= few; seq++ {
		if !nd.tombstoned(wire.TxnID{Node: 3, Seq: seq}) {
			t.Fatalf("coordinator 3's tombstone %d evicted by coordinator 7's burst", seq)
		}
		if !nd.tombstoned(wire.TxnID{Node: 7, Seq: 1<<32 + seq}) {
			t.Fatalf("coordinator 7's epoch-1 tombstone %d evicted by its epoch-0 burst", seq)
		}
	}
	if nd.tombstoned(wire.TxnID{Node: 7, Seq: 1}) {
		t.Fatal("the burst's oldest tombstone survived a slide")
	}
	if got, bound := nd.tombstoneCount(), 2*few+tombWindow; got > bound {
		t.Fatalf("count %d, want <= %d", got, bound)
	}
}

// TestTombstoneCapViaHandlers drives the window rule through the real
// Remove path, on one stripe's transactions so it stays cheap under -race:
// that stripe's count never passes its tombWindow/stripeCount share, and
// the newest half of the share survives.
func TestTombstoneCapViaHandlers(t *testing.T) {
	nd := newCluster(t, 1, 1, Config{})[0]
	const share = tombWindow / stripeCount
	total := share + share/2 + 5000
	if testing.Short() {
		total = share / 8
	}
	id := func(k int) wire.TxnID { return wire.TxnID{Node: 0, Seq: uint64(k) * stripeCount} }
	for k := 1; k <= total; k++ {
		nd.handleRemove(&wire.Remove{Txn: id(k)})
	}
	if got := nd.tombstoneCount(); got > share {
		t.Fatalf("tombstones = %d, want <= %d", got, share)
	}
	for k := max(1, total-share/2+1); k <= total; k++ {
		if !nd.tombstoned(id(k)) {
			t.Fatalf("tombstone %v of the newest half window forgotten", id(k))
		}
	}
	if total > share && nd.tombstoned(id(1)) {
		t.Fatal("the oldest tombstone survived a slide")
	}
}

// tombstoneBytes is the heap the tombstone bitmaps hold: every window's
// words at capacity plus the window headers.
func tombstoneBytes(nd *Node) int {
	total := 0
	for i := range nd.stripes {
		st := &nd.stripes[i]
		st.mu.Lock()
		total += cap(st.tombs) * int(unsafe.Sizeof(seqWindow{}))
		for _, w := range st.tombs {
			total += 8 * cap(w.words)
		}
		st.mu.Unlock()
	}
	return total
}

// TestTombstoneBytesBounded bounds the tombstones' heap from the words the
// bitmaps hold. Dense churn from one coordinator costs a fraction of a
// byte per live tombstone (the map-plus-FIFO layout cost 64-91 B); a
// window that grows instead of sliding, or pins its evicted words, lands
// above the bound. Three coordinators with two epochs each, every window
// at its cap, stay within the worst case of 2 KiB per window.
func TestTombstoneBytesBounded(t *testing.T) {
	nd := newCluster(t, 1, 1, Config{})[0]
	for seq := 1; seq <= tombWindow+tombWindow/2; seq++ {
		tomb(nd, wire.TxnID{Node: 0, Seq: uint64(seq)})
	}
	live, bytes := nd.tombstoneCount(), tombstoneBytes(nd)
	t.Logf("%d live tombstones in %d B", live, bytes)
	if live < tombWindow/2 {
		t.Fatalf("live tombstones = %d, want >= %d", live, tombWindow/2)
	}
	if 2*bytes > live { // half a byte per live tombstone
		t.Fatalf("%d B for %d live tombstones, want <= 0.5 B each", bytes, live)
	}

	// Worst case: a tombstone at the far end of every window of three
	// coordinators' two epochs opens each window at its full capacity.
	const coords = 3
	for node := wire.NodeID(0); node < coords; node++ {
		for epoch := uint64(0); epoch < tombEpochs; epoch++ {
			for r := uint64(0); r < stripeCount; r++ {
				tomb(nd, wire.TxnID{Node: node, Seq: epoch<<32 + tombWindow - 1 - r})
			}
		}
	}
	windows := coords * tombEpochs * stripeCount
	words := 8 * tombWords * windows
	// Window headers, with up to as many spare slots again as append leaves.
	bound := words + 2*windows*int(unsafe.Sizeof(seqWindow{}))
	bytes = tombstoneBytes(nd)
	t.Logf("worst case: %d B for %d windows", bytes, windows)
	if got := windowCaps(nd); got > tombWords {
		t.Fatalf("a window holds %d words, want <= %d", got, tombWords)
	}
	if bytes > bound || bytes < words {
		t.Fatalf("worst case %d B, want within [%d, %d]", bytes, words, bound)
	}
}
