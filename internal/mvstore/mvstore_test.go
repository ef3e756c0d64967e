package mvstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
)

func txn(node, seq int) wire.TxnID {
	return wire.TxnID{Node: wire.NodeID(node), Seq: uint64(seq)}
}

// readRO is ReadRO for a reader with no history — no seen or sticky sets, no
// observed clock — returning just the selected version. Stamp cut 0 passes
// every unstamped version (ExtSID 0).
func readRO(s *Store, key string, hasRead []bool, maxVC vclock.VC) ReadResult {
	return s.ReadRO(txn(9, 9), key, 0, len(maxVC), 0, hasRead, maxVC, nil, nil, nil, nil).Res
}

func TestPreloadAndLatest(t *testing.T) {
	s := New(2, 0)
	s.Preload("k", []byte("v0"))
	got := s.Latest("k")
	if !got.Exists || string(got.Val) != "v0" {
		t.Fatalf("Latest = %+v", got)
	}
	if !got.VC.IsZero() {
		t.Fatal("preloaded version must carry the zero clock")
	}
	if miss := s.Latest("absent"); miss.Exists {
		t.Fatal("absent key should not exist")
	}
}

func TestApplyChainsVersions(t *testing.T) {
	s := New(2, 0)
	s.Preload("k", []byte("v0"))
	s.Apply("k", []byte("v1"), vclock.VC{1, 0}, txn(0, 1), nil)
	s.Apply("k", []byte("v2"), vclock.VC{2, 0}, txn(0, 2), nil)
	got := s.Latest("k")
	if string(got.Val) != "v2" || got.Writer != txn(0, 2) {
		t.Fatalf("Latest = %+v", got)
	}
	if d := s.Depth("k"); d != 3 {
		t.Fatalf("Depth = %d, want 3", d)
	}
}

func TestReadROBounds(t *testing.T) {
	s := New(2, 0)
	s.Preload("k", []byte("v0"))
	s.Apply("k", []byte("v1"), vclock.VC{1, 0}, txn(0, 1), nil)
	s.Apply("k", []byte("v2"), vclock.VC{3, 0}, txn(0, 2), nil)

	// Reader bound to node 0 at clock 1 must see v1.
	got := readRO(s, "k", []bool{true, false}, vclock.VC{1, 0})
	if string(got.Val) != "v1" {
		t.Fatalf("ReadRO = %q, want v1", got.Val)
	}
	// Bound 0 sees only the preloaded version.
	got = readRO(s, "k", []bool{true, false}, vclock.VC{0, 0})
	if string(got.Val) != "v0" {
		t.Fatalf("ReadRO = %q, want v0", got.Val)
	}
	// No constraint on node 0 → latest.
	got = readRO(s, "k", []bool{false, true}, vclock.VC{0, 0})
	if string(got.Val) != "v2" {
		t.Fatalf("ReadRO = %q, want v2", got.Val)
	}
	// Missing key.
	if got := readRO(s, "nope", []bool{false, false}, vclock.VC{0, 0}); got.Exists {
		t.Fatal("missing key should not exist")
	}
}

func TestReadROExcludesWriters(t *testing.T) {
	s := New(2, 0)
	s.Preload("k", []byte("v0"))
	s.Apply("k", []byte("v1"), vclock.VC{1, 0}, txn(0, 1), nil)
	s.Apply("k", []byte("v2"), vclock.VC{2, 0}, txn(0, 2), nil)
	// T2 is still parked (W entry, no stamp): blanket-excluded.
	s.SQInsert("k", wire.SQEntry{Txn: txn(0, 2), SID: 2, Kind: wire.EntryWrite})
	got := readRO(s, "k", []bool{false, false}, vclock.VC{9, 9})
	if string(got.Val) != "v1" {
		t.Fatalf("ReadRO excluding T2 = %q, want v1", got.Val)
	}
	// Excluding the genesis writer (zero TxnID) must not skip genesis.
	exZero := map[wire.TxnID]struct{}{{}: {}}
	got = s.ReadRO(txn(9, 9), "k", 0, 2, 0, []bool{true, true}, vclock.VC{0, 0}, nil, exZero, nil, nil).Res
	if !got.Exists || string(got.Val) != "v0" {
		t.Fatalf("genesis must never be excluded, got %+v", got)
	}
}

func TestVersionChainPruning(t *testing.T) {
	s := New(1, 4)
	s.Preload("k", []byte("v0"))
	for i := 1; i <= 10; i++ {
		s.Apply("k", []byte(fmt.Sprintf("v%d", i)), vclock.VC{uint64(i)}, txn(0, i), nil)
	}
	if d := s.Depth("k"); d != 4 {
		t.Fatalf("Depth = %d, want 4", d)
	}
	// Oldest retained version is v7; a read below that bound finds nothing.
	got := readRO(s, "k", []bool{true}, vclock.VC{3})
	if got.Exists {
		t.Fatalf("pruned version unexpectedly visible: %+v", got)
	}
	if got := readRO(s, "k", []bool{true}, vclock.VC{7}); string(got.Val) != "v7" {
		t.Fatalf("ReadRO = %q, want v7", got.Val)
	}
}

func TestSQInsertDeduplicates(t *testing.T) {
	s := New(2, 0)
	s.SQInsert("k", wire.SQEntry{Txn: txn(1, 1), SID: 7, Kind: wire.EntryRead})
	s.SQInsert("k", wire.SQEntry{Txn: txn(1, 1), SID: 9, Kind: wire.EntryRead})
	r, w := s.SQLen("k")
	if r != 1 || w != 0 {
		t.Fatalf("SQLen = (%d,%d), want (1,0)", r, w)
	}
	// Re-insertion with a smaller SID lowers the recorded snapshot.
	s.SQInsert("k", wire.SQEntry{Txn: txn(1, 1), SID: 3, Kind: wire.EntryRead})
	if !s.SQBlocked("k", txn(9, 9), 4) {
		t.Fatal("entry with SID 3 must block sid 4")
	}
	if s.SQBlocked("k", txn(9, 9), 3) {
		t.Fatal("entry with SID 3 must not block sid 3")
	}
}

func TestSQRemoveRead(t *testing.T) {
	s := New(2, 0)
	s.SQInsert("a", wire.SQEntry{Txn: txn(1, 1), SID: 1, Kind: wire.EntryRead})
	s.SQInsert("b", wire.SQEntry{Txn: txn(1, 1), SID: 2, Kind: wire.EntryRead})
	s.SQInsert("a", wire.SQEntry{Txn: txn(2, 2), SID: 3, Kind: wire.EntryRead})
	if got := s.SQRemoveRead(txn(1, 1)); got != 2 {
		t.Fatalf("SQRemoveRead = %d, want 2", got)
	}
	if r, _ := s.SQLen("a"); r != 1 {
		t.Fatal("other txn's entry must survive")
	}
	if r, _ := s.SQLen("b"); r != 0 {
		t.Fatal("b should be empty")
	}
	if got := s.SQRemoveRead(txn(1, 1)); got != 0 {
		t.Fatalf("second remove = %d, want 0 (idempotent)", got)
	}
}

func TestSQRemoveWrite(t *testing.T) {
	s := New(2, 0)
	s.SQInsert("k", wire.SQEntry{Txn: txn(0, 1), SID: 5, Kind: wire.EntryWrite})
	if _, w := s.SQLen("k"); w != 1 {
		t.Fatal("write entry missing")
	}
	s.SQRemoveWrite("k", txn(0, 1))
	if _, w := s.SQLen("k"); w != 0 {
		t.Fatal("write entry not removed")
	}
	s.SQRemoveWrite("k", txn(0, 1)) // idempotent
	s.SQRemoveWrite("absent", txn(0, 1))
}

func TestSQWaitDrainBlocksAndWakes(t *testing.T) {
	s := New(2, 0)
	ro := txn(1, 1)
	writer := txn(0, 2)
	s.SQInsert("k", wire.SQEntry{Txn: ro, SID: 5, Kind: wire.EntryRead})
	s.SQInsert("k", wire.SQEntry{Txn: writer, SID: 8, Kind: wire.EntryWrite})

	// The writer (sid 8) is blocked by the reader (sid 5).
	if !s.SQBlocked("k", writer, 8) {
		t.Fatal("writer should be blocked by the parked reader")
	}
	// The writer's own entry must not block it: with only the writer's
	// entry in the queue, a drain at any higher sid passes.
	if s.SQBlocked("other", writer, 100) {
		t.Fatal("empty queue must not block")
	}
	s.SQInsert("own", wire.SQEntry{Txn: writer, SID: 8, Kind: wire.EntryWrite})
	if s.SQBlocked("own", writer, 100) {
		t.Fatal("own entry must not block its own drain")
	}

	done := make(chan bool, 1)
	go func() { done <- s.SQWaitDrain("k", writer, 8, 5*time.Second) }()
	time.Sleep(5 * time.Millisecond)
	s.SQRemoveRead(ro)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("drain should succeed once the reader is removed")
		}
	case <-time.After(time.Second):
		t.Fatal("drain never woke")
	}
}

func TestSQWaitDrainTimeout(t *testing.T) {
	s := New(2, 0)
	s.SQInsert("k", wire.SQEntry{Txn: txn(1, 1), SID: 1, Kind: wire.EntryRead})
	if s.SQWaitDrain("k", txn(0, 2), 9, 10*time.Millisecond) {
		t.Fatal("drain should time out while the reader is parked")
	}
}

func TestSQWaitDrainImmediate(t *testing.T) {
	s := New(2, 0)
	if !s.SQWaitDrain("empty", txn(0, 1), 5, time.Millisecond) {
		t.Fatal("empty queue should drain immediately")
	}
	// An entry with sid >= ours does not block.
	s.SQInsert("k", wire.SQEntry{Txn: txn(1, 1), SID: 9, Kind: wire.EntryRead})
	if !s.SQWaitDrain("k", txn(0, 1), 9, time.Millisecond) {
		t.Fatal("sid 9 entry must not block sid 9 drain")
	}
}

func TestSQUnstampedWritersInto(t *testing.T) {
	s := New(2, 0)
	s.SQInsert("k", wire.SQEntry{Txn: txn(0, 1), SID: 4, Kind: wire.EntryWrite})
	s.SQInsert("k", wire.SQEntry{Txn: txn(0, 2), SID: 9, Kind: wire.EntryWrite})
	s.SQInsert("k", wire.SQEntry{Txn: txn(0, 4), SID: 11, Kind: wire.EntryWrite})
	// Announced with stamp 7 ≤ floor: included (not excluded from the fold),
	// regardless of whether the re-drain has completed.
	s.SQStampWrite("k", txn(0, 1), 7)
	// Announced with stamp 12 > floor: excluded like an unannounced writer.
	s.SQStampWrite("k", txn(0, 4), 12)
	seen := map[wire.TxnID]struct{}{txn(0, 3): {}}
	dst := make(map[wire.TxnID]struct{})
	s.SQUnstampedWritersInto("k", 7, seen, dst)
	if len(dst) != 2 {
		t.Fatalf("excluded = %v, want the unannounced and above-floor writers", dst)
	}
	if _, ok := dst[txn(0, 2)]; !ok {
		t.Fatal("unannounced writer missing")
	}
	if _, ok := dst[txn(0, 4)]; !ok {
		t.Fatal("above-floor stamped writer missing")
	}
	// A seen writer is never re-excluded.
	seen[txn(0, 2)] = struct{}{}
	seen[txn(0, 4)] = struct{}{}
	clear(dst)
	s.SQUnstampedWritersInto("k", 7, seen, dst)
	if len(dst) != 0 {
		t.Fatalf("seen writer re-excluded: %v", dst)
	}
	// Absent key adds nothing.
	s.SQUnstampedWritersInto("absent", 0, nil, dst)
	if len(dst) != 0 {
		t.Fatal("absent key must add nothing")
	}
}

// TestReadROExcludesUnstampedWithoutBlocking pins the reader discipline: a
// decided, applied writer whose stamp has not landed here is blanket-excluded
// at once (the reader serializes before it and is told to keep excluding
// it), and the stamp's arrival alone flips the verdict.
func TestReadROExcludesUnstampedWithoutBlocking(t *testing.T) {
	w := txn(0, 1)
	reader := txn(1, 9)
	s := New(1, 0)
	s.Preload("k", []byte("v0"))
	s.SQInsert("k", wire.SQEntry{Txn: w, SID: 5, Kind: wire.EntryWrite})
	s.Apply("k", []byte("v1"), vclock.VC{5}, w, nil)

	read := func() RORead {
		t.Helper()
		done := make(chan RORead, 1)
		go func() { done <- s.ReadRO(reader, "k", 0, 1, 7, nil, vclock.VC{9}, nil, nil, nil, nil) }()
		select {
		case got := <-done:
			return got
		case <-time.After(5 * time.Second):
			t.Fatal("ReadRO blocked on an unstamped writer")
			return RORead{}
		}
	}
	got := read()
	if string(got.Res.Val) != "v0" || len(got.QueueSkips) != 1 || got.QueueSkips[0].Txn != w {
		t.Fatalf("unstamped writer must be blanket-excluded: %+v", got)
	}
	if len(got.Skipped) != 1 || got.Skipped[0].Txn != w {
		t.Fatalf("the skipped version must be reported for sticky exclusion: %+v", got.Skipped)
	}
	if got.Skipped[0].VC != nil || got.QueueSkips[0].VC != nil || got.LowSID != 5 {
		t.Fatalf("an unstamped writer is reported bare, with its slot for the R entry: %+v", got)
	}
	s.SQStampWrite("k", w, 7)
	got = read()
	if got.Res.Writer != w || len(got.QueueSkips) != 0 || got.PendingWriter != w {
		t.Fatalf("stamped writer beneath the cut must be included: %+v", got)
	}
}

// TestSQStampVerdictIgnoresFlag is the store-level statement of the
// replica-independent inclusion rule: once a freezing writer is stamped,
// ReadRO's verdict depends only on (stamp, reader cut) — the committed
// flag (re-drain progress, which skews across replicas) never changes it.
func TestSQStampVerdictIgnoresFlag(t *testing.T) {
	w := txn(0, 1)
	reader := txn(1, 9)
	for _, flagged := range []bool{false, true} {
		s := New(1, 0)
		s.Apply("k", []byte("v1"), vclock.VC{5}, w, nil)
		s.SQInsert("k", wire.SQEntry{Txn: w, SID: 5, Kind: wire.EntryWrite})
		s.SQStampWrite("k", w, 7)
		if flagged {
			s.SQFlagWrite("k", w, 7)
		}
		// Cut covers the stamp: include (and report the writer pending).
		got := s.ReadRO(reader, "k", 0, 1, 7, nil, vclock.VC{9}, nil, nil, nil, nil)
		if !got.Res.Exists || got.Res.Writer != w {
			t.Fatalf("flagged=%v: stamped writer beneath the cut must be included, got %+v", flagged, got.Res)
		}
		if got.PendingWriter != w {
			t.Fatalf("flagged=%v: included freezing writer must be pending", flagged)
		}
		// Cut beneath the stamp: exclude, stickily.
		got = s.ReadRO(reader, "k", 0, 1, 6, nil, vclock.VC{9}, nil, nil, nil, nil)
		if got.Res.Exists && got.Res.Writer == w {
			t.Fatalf("flagged=%v: stamped writer above the cut must be excluded", flagged)
		}
		// The report carries the stamp (in this node's column) for the reader
		// to hold its bound beneath, and the slot its R entry must sit under.
		found := false
		for _, ex := range got.Skipped {
			if ex.Txn == w {
				found = len(ex.VC) == 1 && ex.VC[0] == 7
			}
		}
		if !found || got.LowSID != 5 {
			t.Fatalf("flagged=%v: excluded writer must be reported with its stamp 7 and slot 5: %+v", flagged, got)
		}
	}
}

func TestSQReadEntries(t *testing.T) {
	s := New(2, 0)
	if got := s.SQReadEntries("k"); got != nil {
		t.Fatal("empty queue should return nil")
	}
	s.SQInsert("k", wire.SQEntry{Txn: txn(1, 1), SID: 3, Kind: wire.EntryRead})
	s.SQInsert("k", wire.SQEntry{Txn: txn(0, 9), SID: 7, Kind: wire.EntryWrite})
	got := s.SQReadEntries("k")
	if len(got) != 1 || got[0].Txn != txn(1, 1) {
		t.Fatalf("SQReadEntries = %v", got)
	}
}

func TestSQOldestWriteAge(t *testing.T) {
	s := New(2, 0)
	now := time.Unix(1000, 0)
	s.nowFn = func() time.Time { return now }
	if _, ok := s.SQOldestWriteAge("k"); ok {
		t.Fatal("no write entries → no age")
	}
	s.SQInsert("k", wire.SQEntry{Txn: txn(0, 1), SID: 1, Kind: wire.EntryWrite})
	now = now.Add(50 * time.Millisecond)
	s.SQInsert("k", wire.SQEntry{Txn: txn(0, 2), SID: 2, Kind: wire.EntryWrite})
	age, ok := s.SQOldestWriteAge("k")
	if !ok || age != 50*time.Millisecond {
		t.Fatalf("age = %v ok=%v, want 50ms", age, ok)
	}
}

func TestConcurrentApplyAndRead(t *testing.T) {
	s := New(2, 0)
	const keys = 16
	for i := 0; i < keys; i++ {
		s.Preload(fmt.Sprintf("k%d", i), []byte("v0"))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d", (w*7+i)%keys)
				s.Apply(key, []byte("x"), vclock.VC{uint64(i), uint64(w)}, txn(w, i), nil)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", (r*3+i)%keys)
				res := s.Latest(key)
				if !res.Exists {
					t.Errorf("key %s vanished", key)
					return
				}
				_ = readRO(s, key, []bool{true, true}, vclock.VC{uint64(i), uint64(i)})
			}
		}(r)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// Property: ReadRO never returns a version that violates the hasRead
// bound, and always returns the newest version satisfying it (by vc[0]).
func TestPropReadROCorrectness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New(1, 0)
		s.Preload("k", []byte("v0"))
		n := 1 + r.Intn(10)
		clocks := make([]uint64, n)
		c := uint64(0)
		for i := 0; i < n; i++ {
			c += 1 + uint64(r.Intn(3))
			clocks[i] = c
			s.Apply("k", []byte(fmt.Sprintf("v%d", c)), vclock.VC{c}, txn(0, i+1), nil)
		}
		bound := uint64(r.Intn(int(c) + 2))
		got := readRO(s, "k", []bool{true}, vclock.VC{bound})
		if !got.Exists {
			return false // genesis always satisfies
		}
		// Expected: largest clock <= bound, or genesis (0).
		want := uint64(0)
		for _, cc := range clocks {
			if cc <= bound && cc > want {
				want = cc
			}
		}
		return got.VC[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any sequence of SQ inserts and removes, SQBlocked agrees
// with a naive model.
func TestPropSQModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New(1, 0)
		type mEntry struct {
			txn  wire.TxnID
			sid  uint64
			kind wire.EntryKind
		}
		model := map[mEntry]bool{}
		key := "k"
		for op := 0; op < 30; op++ {
			id := txn(r.Intn(3), 1+r.Intn(3))
			sid := uint64(r.Intn(10))
			switch r.Intn(3) {
			case 0: // insert read
				s.SQInsert(key, wire.SQEntry{Txn: id, SID: sid, Kind: wire.EntryRead})
				// model: dedupe by (txn,kind), min sid
				found := false
				for e := range model {
					if e.txn == id && e.kind == wire.EntryRead {
						found = true
						if sid < e.sid {
							delete(model, e)
							model[mEntry{id, sid, wire.EntryRead}] = true
						}
						break
					}
				}
				if !found {
					model[mEntry{id, sid, wire.EntryRead}] = true
				}
			case 1: // insert write
				found := false
				for e := range model {
					if e.txn == id && e.kind == wire.EntryWrite {
						found = true
						if sid < e.sid {
							delete(model, e)
							model[mEntry{id, sid, wire.EntryWrite}] = true
						}
						break
					}
				}
				if !found {
					model[mEntry{id, sid, wire.EntryWrite}] = true
				}
				s.SQInsert(key, wire.SQEntry{Txn: id, SID: sid, Kind: wire.EntryWrite})
			case 2: // remove reads of id
				s.SQRemoveRead(id)
				for e := range model {
					if e.txn == id && e.kind == wire.EntryRead {
						delete(model, e)
					}
				}
			}
			// Compare SQBlocked for a probe txn against the model.
			probe := txn(9, 9)
			probeSID := uint64(r.Intn(12))
			want := false
			for e := range model {
				if e.sid < probeSID {
					want = true
					break
				}
			}
			if got := s.SQBlocked(key, probe, probeSID); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
