package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
)

func testRecord(i int) *Record {
	return &Record{
		Type:   RecType(1 + i%5),
		Txn:    wire.TxnID{Node: wire.NodeID(i % 3), Seq: uint64(i + 1)},
		Commit: i%2 == 0,
		Stamp:  uint64(i * 7),
		Seq:    uint64(i),
		Key:    fmt.Sprintf("key%d", i),
		Val:    []byte(fmt.Sprintf("val%d", i)),
		VC:     vclock.VC{uint64(i), uint64(i + 1), uint64(i + 2)},
		VC2:    vclock.VC{uint64(2 * i), 0, 1},
		Keys:   []string{"a", fmt.Sprintf("b%d", i)},
		Writes: []wire.KV{{Key: "w", Val: []byte{byte(i)}}},
		Deps:   []wire.TxnID{{Node: 1, Seq: uint64(i)}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i := 0; i < 10; i++ {
		r := testRecord(i)
		payload := appendPayload(nil, r)
		got, err := decodePayload(payload)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("record %d round trip:\n want %+v\n got  %+v", i, r, got)
		}
	}
	// The zero-ish record (all optional fields empty) must round-trip too:
	// purge records are this shape.
	r := &Record{Type: RecPurge, Txn: wire.TxnID{Node: 2, Seq: 9}}
	got, err := decodePayload(appendPayload(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("purge round trip: want %+v got %+v", r, got)
	}
}

func openTest(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l
}

func replayAll(t *testing.T, dir string) []*Record {
	t.Helper()
	l := openTest(t, dir, Options{})
	defer func() { _ = l.Close() }()
	var out []*Record
	if err := l.Replay(func(r *Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendSyncReplay(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	var want []*Record
	for i := 0; i < 50; i++ {
		r := testRecord(i)
		want = append(want, r)
		l.Append(r)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("record %d: want %+v got %+v", i, want[i], got[i])
		}
	}
}

// TestGroupCommit drives many goroutines through Append+Sync and checks the
// fsync count stays well below the record count: concurrent Syncs must
// coalesce behind shared fsyncs, the whole point of riding the batch
// boundary.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	stats := &metrics.Durability{}
	l := openTest(t, dir, Options{Stats: stats})
	const writers, perWriter = 16, 32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Append(testRecord(w*perWriter + i))
				if err := l.Sync(); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	appends := stats.WalAppends.Load()
	syncs := stats.WalSyncs.Load()
	if appends != writers*perWriter {
		t.Fatalf("appends = %d, want %d", appends, writers*perWriter)
	}
	// With 16 concurrent committers, coalescing must beat 1 fsync/record.
	// (1 fsync per record = writers*perWriter; allow generous slack for a
	// slow box that serializes most of the time.)
	if syncs >= appends {
		t.Fatalf("no group commit: %d syncs for %d appends", syncs, appends)
	}
	t.Logf("group commit: %d records over %d syncs (%.1f rec/sync)",
		appends, syncs, stats.RecordsPerSync())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(replayAll(t, dir)); got != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", got, writers*perWriter)
	}
}

// TestTornTailProperty is the corruption property test: for a seeded matrix
// of prefix truncations and single-bit flips applied to a written segment,
// opening + replaying must either produce a clean prefix of the original
// records or fail loudly — never decode garbage or invent records.
func TestTornTailProperty(t *testing.T) {
	const n = 40
	base := t.TempDir()
	writeLog := func(dir string) {
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			l.Append(testRecord(i))
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	pristine := filepath.Join(base, "pristine")
	if err := os.Mkdir(pristine, 0o755); err != nil {
		t.Fatal(err)
	}
	writeLog(pristine)
	segs, err := filepath.Glob(filepath.Join(pristine, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("expected 1 segment, got %v (%v)", segs, err)
	}
	orig, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Record, 0, n)
	for i := 0; i < n; i++ {
		want = append(want, testRecord(i))
	}

	// check opens a log over the damaged segment and verifies the
	// prefix-or-loud-failure property.
	check := func(t *testing.T, name string, data []byte) {
		dir := filepath.Join(base, name)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			return // loud failure at open: acceptable
		}
		defer func() { _ = l.Close() }()
		var got []*Record
		err = l.Replay(func(r *Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			return // loud failure at replay: acceptable
		}
		if len(got) > len(want) {
			t.Fatalf("%s: replay invented records: %d > %d", name, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("%s: record %d diverged after damage:\n want %+v\n got  %+v",
					name, i, want[i], got[i])
			}
		}
	}

	// Prefix truncations across the whole file, including mid-header and
	// mid-payload cuts.
	for cut := 0; cut <= len(orig); cut += 1 + len(orig)/97 {
		cut := cut
		t.Run(fmt.Sprintf("truncate-%d", cut), func(t *testing.T) {
			check(t, fmt.Sprintf("trunc%d", cut), append([]byte(nil), orig[:cut]...))
		})
	}
	// Seeded single-bit flips: length fields, CRCs, payload bytes.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 64; trial++ {
		pos := rng.Intn(len(orig))
		bit := byte(1) << rng.Intn(8)
		t.Run(fmt.Sprintf("bitflip-%d-%d", pos, bit), func(t *testing.T) {
			data := append([]byte(nil), orig...)
			data[pos] ^= bit
			check(t, fmt.Sprintf("flip%d-%d", pos, bit), data)
		})
	}
}

// TestSyncFailurePoisonsLog is the group-commit error-path regression: a
// failed write/fsync must latch. Before the fix, the owner's moved-aside
// buffer was silently dropped, and any later Sync re-ran against an empty
// buffer, advanced the durable frontier past the lost records, and returned
// nil — reporting records durable that never reached disk.
func TestSyncFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	stats := &metrics.Durability{}
	l := openTest(t, dir, Options{Stats: stats})
	l.Append(testRecord(0))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Sever the active segment underneath the log so the next write fails.
	l.mu.Lock()
	_ = l.f.Close()
	l.mu.Unlock()

	l.Append(testRecord(1))
	if err := l.Sync(); err == nil {
		t.Fatal("sync over a severed segment returned nil")
	}
	// The failure must be sticky: a Sync with nothing new buffered must NOT
	// report the dropped record durable (this was the bug — the group
	// waiter's re-run saw an empty buffer and returned nil).
	if err := l.Sync(); err == nil {
		t.Fatal("sync after a failed sync returned nil — dropped record reported durable")
	}
	// Post-poison appends are refused outright, and keep failing Sync.
	l.Append(testRecord(2))
	if err := l.Sync(); err == nil {
		t.Fatal("sync of a post-poison append returned nil")
	}
	if err := l.WriteCheckpoint(func(emit func(*Record) error) error { return nil }); err == nil {
		t.Fatal("checkpoint on a poisoned log succeeded")
	}
	if got := stats.WalSyncFailures.Load(); got == 0 {
		t.Fatal("WalSyncFailures = 0 after a failed sync")
	}
	if err := l.Close(); err == nil {
		t.Fatal("close of a poisoned log returned nil")
	}

	// On disk only the pre-failure record exists; nothing was appended after
	// the failure point, so replay recovers a clean prefix.
	got := replayAll(t, dir)
	if len(got) != 1 || !reflect.DeepEqual(got[0], testRecord(0)) {
		t.Fatalf("replay after poison: got %d records %+v, want just record 0", len(got), got)
	}
}

func TestDirLock(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open: err = %v, want ErrLocked", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	_ = l2.Close()
}

func TestOpenMissingDir(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "nope"), Options{})
	if err == nil {
		t.Fatal("open of a missing directory succeeded")
	}
}

// TestCheckpointRotationReclaim verifies the checkpoint cut: records before
// the cut disappear from the segment stream (reclaimed), the checkpoint
// stream carries what fill emitted, and records appended after the cut (or
// re-logged during fill) survive replay.
func TestCheckpointRotationReclaim(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{})
	for i := 0; i < 20; i++ {
		l.Append(testRecord(i))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	relogged := &Record{Type: RecPrepare, Txn: wire.TxnID{Node: 1, Seq: 99}}
	meta := &Record{Type: RecCheckpointMeta, VC: vclock.VC{5, 6, 7}, Stamp: 3, Seq: 42}
	if err := l.WriteCheckpoint(func(emit func(*Record) error) error {
		l.Append(relogged) // pending prepare re-logged past the cut
		if err := emit(meta); err != nil {
			return err
		}
		return emit(&Record{Type: RecVersion, Key: "k", Val: []byte("v"), VC: vclock.VC{1, 2, 3}})
	}); err != nil {
		t.Fatal(err)
	}
	after := &Record{Type: RecDecide, Txn: wire.TxnID{Node: 2, Seq: 100}, Commit: true}
	l.Append(after)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, dir, Options{})
	var ck []*Record
	found, err := l2.ReplayCheckpoint(func(r *Record) error {
		ck = append(ck, r)
		return nil
	})
	if err != nil || !found {
		t.Fatalf("checkpoint replay: found=%v err=%v", found, err)
	}
	if len(ck) != 2 || ck[0].Type != RecCheckpointMeta || ck[0].Seq != 42 || ck[1].Key != "k" {
		t.Fatalf("checkpoint contents: %+v", ck)
	}
	var tail []*Record
	if err := l2.Replay(func(r *Record) error {
		tail = append(tail, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 {
		t.Fatalf("post-checkpoint replay: %d records (want relogged+after), got %+v", len(tail), tail)
	}
	if tail[0].Txn.Seq != 99 || tail[1].Txn.Seq != 100 {
		t.Fatalf("post-checkpoint replay order: %+v", tail)
	}
	_ = l2.Close()
}

// TestSegmentRotationBySize checks size-based rotation alone (no
// checkpoint) loses nothing.
func TestSegmentRotationBySize(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, Options{SegmentBytes: 256})
	const n = 64
	for i := 0; i < n; i++ {
		l.Append(testRecord(i))
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v (%v)", segs, err)
	}
	if got := len(replayAll(t, dir)); got != n {
		t.Fatalf("replayed %d records across segments, want %d", got, n)
	}
}

// gatedFile wraps a real segment file, counts its fsyncs, and parks each one
// on gate (when non-nil) after announcing it on entered — the seam that lets
// a test hold one fsync in flight while it appends behind it.
type gatedFile struct {
	*os.File
	syncs   *atomic.Int64
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedFile) Sync() error {
	g.syncs.Add(1)
	if g.gate != nil {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.File.Sync()
}

func gatedOpts(syncs *atomic.Int64, entered, gate chan struct{}, stats *metrics.Durability) Options {
	return Options{Stats: stats, OpenFile: func(name string, flag int, perm os.FileMode) (File, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return &gatedFile{File: f, syncs: syncs, entered: entered, gate: gate}, nil
	}}
}

// TestSyncToCovered pins the LSN wait's fast path: once a neighbour's fsync
// covered a record, waiting for it costs no fsync — by sequence number or by
// a Sync with nothing new behind it.
func TestSyncToCovered(t *testing.T) {
	var syncs atomic.Int64
	stats := &metrics.Durability{}
	l := openTest(t, t.TempDir(), gatedOpts(&syncs, nil, nil, stats))
	first := l.Append(testRecord(0))
	second := l.Append(testRecord(1))
	if first != 1 || second != 2 {
		t.Fatalf("Append sequence numbers = %d, %d, want 1, 2", first, second)
	}
	// Waiting on the older record flushes the whole buffer: one fsync covers
	// the newer record too.
	if err := l.SyncTo(first); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{first, second, second + 10} {
		if err := l.SyncTo(seq); err != nil {
			t.Fatalf("SyncTo(%d): %v", seq, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := syncs.Load(); got != 1 {
		t.Fatalf("file fsyncs = %d, want 1: covered waits must not sync", got)
	}
	if got := stats.WalSyncs.Load(); got != 1 {
		t.Fatalf("WalSyncs = %d, want 1", got)
	}
}

// TestUnwaitedAppendLagBound pins the lag bound: a record nobody syncs
// reaches the disk on its own once it has waited maxUnsyncedLag, and a
// record a neighbour's fsync already covered costs no fsync of its own.
func TestUnwaitedAppendLagBound(t *testing.T) {
	var syncs atomic.Int64
	stats := &metrics.Durability{}
	dir := t.TempDir()
	l := openTest(t, dir, gatedOpts(&syncs, nil, nil, stats))
	start := time.Now()
	l.Append(testRecord(0))
	// The slack past the bound only absorbs scheduler noise on a loaded box.
	for stats.WalSyncedRecords.Load() < 1 {
		if time.Since(start) > maxUnsyncedLag+2*time.Second {
			t.Fatalf("unwaited record not synced %v after its Append", time.Since(start))
		}
		time.Sleep(time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed < maxUnsyncedLag {
		t.Fatalf("unwaited record synced after %v, inside the lag bound %v: Append itself must not sync",
			elapsed, maxUnsyncedLag)
	}
	if got := syncs.Load(); got != 1 {
		t.Fatalf("file fsyncs = %d, want 1", got)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	if fi, err := os.Stat(segs[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("segment after the lag sync: %v, %v", fi, err)
	}

	// A neighbour's Sync covers the next record before its lag expires: the
	// timer armed by its Append finds nothing left to do.
	l.Append(testRecord(1))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(maxUnsyncedLag + 200*time.Millisecond)
	if got := syncs.Load(); got != 2 {
		t.Fatalf("file fsyncs = %d, want 2: a covered record must cost no lag sync", got)
	}
}

// TestSyncToMissedByInflight holds one fsync in flight, appends a record
// behind it, and checks that the record's waiter is not released by the
// in-flight fsync (which never saw the record) but by a second one.
func TestSyncToMissedByInflight(t *testing.T) {
	var syncs atomic.Int64
	entered, gate := make(chan struct{}, 4), make(chan struct{})
	dir := t.TempDir()
	l := openTest(t, dir, gatedOpts(&syncs, entered, gate, nil))
	first := l.Append(testRecord(0))
	firstDone := make(chan error, 1)
	go func() { firstDone <- l.SyncTo(first) }()
	<-entered // the owner is inside its fsync, buffer already taken

	second := l.Append(testRecord(1))
	secondDone := make(chan error, 1)
	go func() { secondDone <- l.SyncTo(second) }()
	select {
	case err := <-secondDone:
		t.Fatalf("SyncTo of a record the in-flight fsync missed returned early (%v)", err)
	case <-time.After(20 * time.Millisecond):
	}

	gate <- struct{}{} // finish the first fsync
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	<-entered // the missed waiter took ownership of its own fsync
	select {
	case err := <-secondDone:
		t.Fatalf("missed waiter released before its own fsync finished (%v)", err)
	default:
	}
	gate <- struct{}{}
	if err := <-secondDone; err != nil {
		t.Fatal(err)
	}
	if got := syncs.Load(); got != 2 {
		t.Fatalf("file fsyncs = %d, want 2", got)
	}
	close(gate) // Close's final sync must not park
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(replayAll(t, dir)); got != 2 {
		t.Fatalf("replayed %d records, want 2", got)
	}
}

// TestSyncToPoisonedAndClosed pins that the LSN wait shares Sync's failure
// semantics: a poisoned log refuses even a record that became durable before
// the failure, and a closed log answers exactly as Sync does.
func TestSyncToPoisonedAndClosed(t *testing.T) {
	l := openTest(t, t.TempDir(), Options{})
	durable := l.Append(testRecord(0))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	_ = l.f.Close() // sever the segment: the next write fails
	l.mu.Unlock()
	lost := l.Append(testRecord(1))
	if err := l.SyncTo(lost); err == nil {
		t.Fatal("SyncTo over a severed segment returned nil")
	}
	if err := l.SyncTo(durable); err == nil {
		t.Fatal("SyncTo on a poisoned log returned nil")
	}
	if l.Err() == nil {
		t.Fatal("Err on a poisoned log returned nil")
	}
	if dropped := l.Append(testRecord(2)); dropped != lost {
		t.Fatalf("post-poison Append returned %d, want the unchanged frontier %d", dropped, lost)
	}

	c := openTest(t, t.TempDir(), Options{})
	seq := c.Append(testRecord(0))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	dropped := c.Append(testRecord(1))
	if dropped != seq {
		t.Fatalf("post-close Append returned %d, want the unchanged frontier %d", dropped, seq)
	}
	if got, want := c.SyncTo(dropped), c.Sync(); (got == nil) != (want == nil) {
		t.Fatalf("closed log: SyncTo = %v, Sync = %v", got, want)
	}
}
