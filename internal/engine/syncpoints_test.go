package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/mvstore"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/wal"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// The durable commit path has three serial fsync waits — remote participant
// prepare, coordinator decision, the coordinator's own freeze record (which
// overlaps the freeze round) — and these tests pin them from the outside:
// exact fsync counts per commit through a counting wal.Options.OpenFile seam,
// crash images taken at the instant a given fsync completes or right after
// the client reply, a write replica's later fsyncs blocked outright, and
// injected fsync failures at the two coordinator waits.

// syncSeam counts one log's fsyncs and runs an optional hook inside each,
// after the real fsync: the hook sees the log exactly as a crash at that
// instant would leave it, and a non-nil return fails the fsync.
type syncSeam struct {
	dir  string
	n    atomic.Int64
	hook atomic.Pointer[func(k int64) error]
}

func (s *syncSeam) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &seamFile{File: f, seam: s}, nil
}

// at arms fn for the k-th fsync from now.
func (s *syncSeam) at(k int64, fn func() error) {
	target := s.n.Load() + k
	hook := func(n int64) error {
		if n == target {
			return fn()
		}
		return nil
	}
	s.hook.Store(&hook)
}

// imageAt copies the log directory into dst when the k-th fsync from now
// completes: the disk a kill -9 at that instant leaves behind.
func (s *syncSeam) imageAt(t *testing.T, k int64, dst string) {
	s.at(k, func() error {
		if err := copySegments(s.dir, dst); err != nil {
			t.Error(err)
		}
		return nil
	})
}

type seamFile struct {
	*os.File
	seam *syncSeam
}

func (f *seamFile) Sync() error {
	err := f.File.Sync()
	k := f.seam.n.Add(1)
	if h := f.seam.hook.Load(); h != nil && err == nil {
		err = (*h)(k)
	}
	return err
}

// durableCluster is a 3-node, replication-2 in-process cluster whose logs sit
// in dirs (created when missing) behind one syncSeam each.
type durableCluster struct {
	nodes  []*Node
	seams  []*syncSeam
	lookup cluster.Lookup
}

func bootDurable(t *testing.T, dirs []string, cfg Config) *durableCluster {
	t.Helper()
	return bootDurableNet(t, dirs, cfg, transport.InProcConfig{DisableLatency: true})
}

// bootDurableNet is bootDurable over an explicit network configuration, for
// tests that drop messages through its Filter.
func bootDurableNet(t *testing.T, dirs []string, cfg Config, netCfg transport.InProcConfig) *durableCluster {
	t.Helper()
	n := len(dirs)
	dc := &durableCluster{lookup: cluster.NewLookup(n, 2)}
	net := transport.NewInProc(netCfg)
	logs := make([]*wal.Log, n)
	for i, dir := range dirs {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		seam := &syncSeam{dir: dir}
		w, err := wal.Open(dir, wal.Options{OpenFile: seam.OpenFile})
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.WAL = w
		nd, err := New(net, wire.NodeID(i), n, dc.lookup, c)
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = w
		dc.nodes = append(dc.nodes, nd)
		dc.seams = append(dc.seams, seam)
	}
	t.Cleanup(func() {
		for _, nd := range dc.nodes {
			_ = nd.Close()
		}
		_ = net.Close()
		for _, w := range logs {
			_ = w.Close()
		}
	})
	// Concurrently: an in-doubt participant's recovery queries a coordinator
	// that is itself recovering.
	var wg sync.WaitGroup
	for _, nd := range dc.nodes {
		wg.Add(1)
		go func(nd *Node) {
			defer wg.Done()
			if err := nd.Recover(); err != nil {
				t.Errorf("node %d recover: %v", nd.ID(), err)
			}
		}(nd)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return dc
}

func freshDirs(t *testing.T, n int) []string {
	root := t.TempDir()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("node%d", i))
	}
	return dirs
}

// keyFor finds a key whose replica set does (or does not) include coord.
func (dc *durableCluster) keyFor(t *testing.T, coord wire.NodeID, replicated bool) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("k%d", i)
		if dc.lookup.IsReplica(k, coord) == replicated {
			return k
		}
	}
	t.Fatal("no key with the wanted placement")
	return ""
}

// blindWrite commits one single-key update coordinated at nd.
func blindWrite(nd *Node, key, val string) (wire.TxnID, error) {
	tx := nd.Begin(false)
	if err := tx.Write(key, []byte(val)); err != nil {
		return tx.ID(), err
	}
	return tx.ID(), tx.Commit()
}

func (dc *durableCluster) syncCounts() []int64 {
	out := make([]int64, len(dc.seams))
	for i, s := range dc.seams {
		out[i] = s.n.Load()
	}
	return out
}

// stampOf returns the external-commit stamp nd recorded on txn's version of
// key (0 when the version is missing or unstamped).
func stampOf(nd *Node, key string, txn wire.TxnID) uint64 {
	var stamp uint64
	_ = nd.store.Dump(func(k string, v mvstore.VersionRec) error {
		if k == key && v.Writer == txn {
			stamp = v.ExtSID
		}
		return nil
	})
	return stamp
}

// TestFsyncsPerCommit pins the commit path's fsync budget per log, and that
// Stage.WalSync keeps one observation per wait. A write replica pays only its
// prepare fsync: its decide and freeze records ride the next one, here the
// next round's prepare (the rounds run well inside the WAL's lag bound).
func TestFsyncsPerCommit(t *testing.T) {
	const coord = wire.NodeID(0)
	cases := []struct {
		name       string
		replicated bool // the coordinator is a write replica
		// fsyncs and WalSync observations per commit, coordinator / each
		// other write replica.
		coordSyncs, coordWaits, replicaSyncs int64
	}{
		// Decision (covering the self-leg prepare and the previous round's
		// replica records) + the coordinator freeze record, overlapped with
		// the round; the own replica's freeze record rides the next round's
		// decision fsync.
		{"coordinator-is-write-replica", true, 2, 2, 1},
		// Decision + the coordinator freeze record, overlapped with the round.
		{"coordinator-replicates-nothing", false, 2, 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dc := bootDurable(t, freshDirs(t, 3), Config{})
			key := dc.keyFor(t, coord, tc.replicated)
			nd := dc.nodes[coord]
			for round := 0; round < 4; round++ {
				before := dc.syncCounts()
				waitsBefore := nd.Stats().Stage.WalSync.Count()
				if _, err := blindWrite(nd, key, fmt.Sprintf("v%d", round)); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				after := dc.syncCounts()
				for i := range after {
					want := int64(0)
					switch {
					case wire.NodeID(i) == coord:
						want = tc.coordSyncs
					case dc.lookup.IsReplica(key, wire.NodeID(i)):
						want = tc.replicaSyncs
					}
					if got := after[i] - before[i]; got != want {
						t.Fatalf("round %d: node %d paid %d fsyncs, want %d", round, i, got, want)
					}
				}
				if got := int64(nd.Stats().Stage.WalSync.Count() - waitsBefore); got != tc.coordWaits {
					t.Fatalf("round %d: coordinator observed %d WalSync waits, want %d", round, got, tc.coordWaits)
				}
			}
			st := nd.Stats()
			if c := st.Commits.Load(); c != 4 || st.Stage.Freeze.Count() != c {
				t.Fatalf("commits = %d, Stage.Freeze count = %d, want 4 and 4", c, st.Stage.Freeze.Count())
			}
		})
	}
}

// TestCrashAfterCoordFreezeDurable kills the whole cluster at the instant the
// coordinator's freeze record turns durable, before any replica saw the
// freeze (their disks hold the prepare only). Recovery must commit the
// in-doubt replicas and re-stamp them with the coordinator's durable freeze
// vector — the stamps the live replicas recorded.
func TestCrashAfterCoordFreezeDurable(t *testing.T) {
	const coord = wire.NodeID(0)
	dc := bootDurable(t, freshDirs(t, 3), Config{})
	key := dc.keyFor(t, coord, false)
	images := freshDirs(t, 3)
	for i, dir := range images {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if wire.NodeID(i) == coord {
			dc.seams[i].imageAt(t, 2, dir) // decision, then the freeze record
		} else {
			dc.seams[i].imageAt(t, 1, dir) // the prepare, before the yes vote
		}
	}
	txn, err := blindWrite(dc.nodes[coord], key, "frozen")
	if err != nil {
		t.Fatal(err)
	}
	replicas := dc.lookup.Replicas(key)
	live := make(map[wire.NodeID]uint64)
	for _, r := range replicas {
		live[r] = stampOf(dc.nodes[r], key, txn)
		if live[r] == 0 {
			t.Fatalf("live replica %d recorded no stamp", r)
		}
	}

	rc := bootDurable(t, images, Config{VoteTimeout: 200 * time.Millisecond})
	for _, r := range replicas {
		nd := rc.nodes[r]
		d := nd.Durability()
		if d.InDoubt.Load() != 1 || d.InDoubtCommitted.Load() != 1 {
			t.Fatalf("replica %d: inDoubt=%d committed=%d, want 1/1", r, d.InDoubt.Load(), d.InDoubtCommitted.Load())
		}
		if res := nd.store.Latest(key); !res.Exists || res.Writer != txn || string(res.Val) != "frozen" {
			t.Fatalf("replica %d: %s = %q by %v after recovery", r, key, res.Val, res.Writer)
		}
		if got := stampOf(nd, key, txn); got != live[r] {
			t.Fatalf("replica %d re-stamped %d, live replica stamped %d", r, got, live[r])
		}
	}
	// The coordinator's external knowledge covers the vector it made durable.
	ext := rc.nodes[coord].log.ExternalVC()
	for _, r := range replicas {
		if ext[r] < live[r] {
			t.Fatalf("coordinator ExternalVC = %v after recovery, want slot %d >= %d", ext, r, live[r])
		}
	}
}

// TestCrashAfterDecisionSync kills the cluster right after the coordinator's
// decision fsync — the first fsync of the commit on its log, so its own
// prepare record can only have ridden it. Recovery must find both records,
// commit the coordinator's own in-doubt leg locally, and land every replica
// on the same (floor) stamp.
func TestCrashAfterDecisionSync(t *testing.T) {
	const coord = wire.NodeID(0)
	dc := bootDurable(t, freshDirs(t, 3), Config{})
	key := dc.keyFor(t, coord, true)
	images := freshDirs(t, 3)
	for i, dir := range images {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		dc.seams[i].imageAt(t, 1, dir)
	}
	txn, err := blindWrite(dc.nodes[coord], key, "decided")
	if err != nil {
		t.Fatal(err)
	}

	rc := bootDurable(t, images, Config{VoteTimeout: 200 * time.Millisecond})
	var stamps []uint64
	for _, r := range rc.lookup.Replicas(key) {
		nd := rc.nodes[r]
		d := nd.Durability()
		if d.InDoubt.Load() != 1 || d.InDoubtCommitted.Load() != 1 {
			t.Fatalf("replica %d: inDoubt=%d committed=%d, want 1/1", r, d.InDoubt.Load(), d.InDoubtCommitted.Load())
		}
		if res := nd.store.Latest(key); !res.Exists || res.Writer != txn || string(res.Val) != "decided" {
			t.Fatalf("replica %d: %s = %q by %v after recovery", r, key, res.Val, res.Writer)
		}
		stamps = append(stamps, stampOf(nd, key, txn))
	}
	if stamps[0] == 0 || stamps[0] != stamps[1] {
		t.Fatalf("recovered stamps %v differ across replicas", stamps)
	}
}

// TestCoordinatorSyncFailures injects an fsync failure at each coordinator
// wait: a failed decision sync aborts (nothing irreversible left the node); a
// failed freeze-record sync — whether or not the coordinator is also a write
// replica — leaves the transaction committed but withholds the
// durable-sounding acknowledgement.
func TestCoordinatorSyncFailures(t *testing.T) {
	const coord = wire.NodeID(0)
	diskErr := errors.New("injected fsync failure")
	cases := []struct {
		name       string
		replicated bool
		failAt     int64
		wantAbort  bool
		// voteTimeout is short only where the case needs a fast batch-call
		// expiry. The decision case's commit waits on no timeout, and a
		// 50ms vote budget let a slow prepare round on a loaded box abort the
		// transaction before the injected fsync was ever reached; it keeps
		// the default (0), like every other fresh boot in this file — boot
		// itself costs about one VoteTimeout, so longer is not free.
		voteTimeout time.Duration
	}{
		{"decision", true, 1, true, 0},
		{"freeze-record-overlapped", false, 2, false, 50 * time.Millisecond},
		{"coordinator-own-freeze-fsync", true, 2, false, 50 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dc := bootDurable(t, freshDirs(t, 3), Config{VoteTimeout: tc.voteTimeout})
			key := dc.keyFor(t, coord, tc.replicated)
			dc.seams[coord].at(tc.failAt, func() error { return diskErr })
			txn, err := blindWrite(dc.nodes[coord], key, "v")
			if err == nil {
				t.Fatal("commit acknowledged over a failed fsync")
			}
			// First, so an abort for any other reason is not mistaken for the
			// injected one.
			if got := dc.nodes[coord].Durability().WalSyncFailures.Load(); got != 1 {
				t.Fatalf("WalSyncFailures = %d, want 1", got)
			}
			if got := errors.Is(err, kv.ErrAborted); got != tc.wantAbort {
				t.Fatalf("commit error = %v, aborted = %v, want %v", err, got, tc.wantAbort)
			}
			for _, r := range dc.lookup.Replicas(key) {
				applied := dc.nodes[r].store.Latest(key).Writer == txn
				if applied == tc.wantAbort {
					t.Fatalf("replica %d: applied = %v after %v", r, applied, err)
				}
			}
			if !tc.wantAbort && !strings.Contains(err.Error(), "freeze record not durable") {
				t.Fatalf("commit error = %v, want the freeze-record error", err)
			}
		})
	}
}

// TestFreezeAckWaitsForNoReplicaFsync blocks every write replica's first
// fsync after its prepare fsync: the freeze acks, and so the client reply,
// must not wait for it. The blocked fsync is then reached anyway — the
// replicas' decide and freeze records are synced within the WAL's lag bound
// although nobody waits for them.
func TestFreezeAckWaitsForNoReplicaFsync(t *testing.T) {
	const coord = wire.NodeID(0)
	// A long ack budget: a withheld ack would hold the reply far past the
	// deadline below instead of releasing it liveness-first.
	dc := bootDurable(t, freshDirs(t, 3), Config{FreezeAckBudget: time.Minute})
	key := dc.keyFor(t, coord, false)
	replicas := dc.lookup.Replicas(key)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // before the cluster's Close
	for _, r := range replicas {
		dc.seams[r].at(2, func() error { <-release; return nil })
	}
	done := make(chan error, 1)
	go func() {
		_, err := blindWrite(dc.nodes[coord], key, "v")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("client reply waited on a write replica's post-prepare fsync")
	}
	for _, r := range replicas {
		waitUntil(t, fmt.Sprintf("replica %d's lag sync", r), func() bool { return dc.seams[r].n.Load() >= 2 })
	}
}

// TestCrashAfterReplyRestoresKnow crashes the cluster right after the client
// reply of a committer T that waited out a pending writer d, and checks that
// what T learned by waiting (its freeze order's Know) survives on the write
// replicas through the coordinator alone: their own freeze records are not
// waited for, and clock catch-up is cut off, so only the coordinator's
// freeze record (VC2) and its TxnStatusReply.Know can carry it.
//
// Placement over 4 nodes, replication 2: d (coordinated at X) writes c on
// {0,1}; T (coordinated at 0) reads c and writes w on {1,2}. d's freeze to
// node 1 is dropped until, while T waits for d, X commits e on {3,0}: e's
// stamp at node 3, outside T's participants, reaches T only through X's
// WaitExternal answer, so Know exceeds T's commit clock there.
func TestCrashAfterReplyRestoresKnow(t *testing.T) {
	const coord, X = wire.NodeID(0), wire.NodeID(3)
	var dID atomic.Pointer[wire.TxnID]
	var holdD atomic.Bool
	holdD.Store(true)
	filter := func(from, to wire.NodeID, env wire.Envelope) bool {
		f, ok := env.Msg.(*wire.Freeze)
		if !ok || !holdD.Load() || from != X || to != 1 {
			return true
		}
		d := dID.Load()
		return d == nil || f.Txn != *d
	}
	dc := bootDurableNet(t, freshDirs(t, 4),
		Config{VoteTimeout: 200 * time.Millisecond, FreezeAckBudget: time.Minute},
		transport.InProcConfig{DisableLatency: true, Filter: filter})
	kC := keyWithPrimary(t, dc.lookup, 0, "knowC")
	kW := keyWithPrimary(t, dc.lookup, 1, "knowW")
	kE := keyWithPrimary(t, dc.lookup, 3, "knowE")

	d := dc.nodes[X].Begin(false)
	if err := d.Write(kC, []byte("d")); err != nil {
		t.Fatal(err)
	}
	id := d.ID()
	dID.Store(&id)
	dDone := make(chan error, 1)
	go func() { dDone <- d.Commit() }()
	// d is decided everywhere once its freeze round starts.
	waitUntil(t, "d's freeze round", func() bool { return dc.nodes[X].Stats().FreezeRetries.Load() > 0 })

	tx := dc.nodes[coord].Begin(false)
	if v := mustRead(t, tx, kC); v != "d" {
		t.Fatalf("T read %s = %q, want d's version", kC, v)
	}
	if _, pending := tx.pendingWriters[id]; !pending {
		t.Fatalf("T's pending writers %v miss d %v", tx.pendingWriters, id)
	}
	if err := tx.Write(kW, []byte("T")); err != nil {
		t.Fatal(err)
	}
	waits := dc.nodes[coord].Stats().ExternalWaits.Load()
	tDone := make(chan error, 1)
	go func() { tDone <- tx.Commit() }()
	waitUntil(t, "T's wait for d", func() bool { return dc.nodes[coord].Stats().ExternalWaits.Load() > waits })

	eID, err := blindWrite(dc.nodes[X], kE, "e")
	if err != nil {
		t.Fatal(err)
	}
	holdD.Store(false)
	if err := <-tDone; err != nil {
		t.Fatalf("T: %v", err)
	}
	images := freshDirs(t, 4)
	for i, dir := range images {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := copySegments(dc.seams[i].dir, dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-dDone; err != nil {
		t.Fatalf("d: %v", err)
	}

	dc.nodes[coord].coordMu.Lock()
	cr := dc.nodes[coord].coordStatus[tx.ID()]
	dc.nodes[coord].coordMu.Unlock()
	eStamp := stampOf(dc.nodes[X], kE, eID)
	if len(cr.know) != 4 || cr.know[X] < eStamp || cr.know[X] <= cr.commitVC[X] {
		t.Fatalf("T's Know %v, commit clock %v, e's stamp %d: the construction needs Know above the commit clock at %d",
			cr.know, cr.commitVC, eStamp, X)
	}
	live := make(map[wire.NodeID]uint64)
	for _, r := range dc.lookup.Replicas(kW) {
		live[r] = stampOf(dc.nodes[r], kW, tx.ID())
	}

	noCatchup := func(_, _ wire.NodeID, env wire.Envelope) bool {
		_, sync := env.Msg.(*wire.ClockSync)
		return !sync
	}
	rc := bootDurableNet(t, images, Config{VoteTimeout: 200 * time.Millisecond},
		transport.InProcConfig{DisableLatency: true, Filter: noCatchup})
	for _, r := range rc.lookup.Replicas(kW) {
		nd := rc.nodes[r]
		if res := nd.store.Latest(kW); !res.Exists || res.Writer != tx.ID() {
			t.Fatalf("replica %d: %s written by %v after recovery, want %v", r, kW, res.Writer, tx.ID())
		}
		if got := stampOf(nd, kW, tx.ID()); got != live[r] {
			t.Fatalf("replica %d re-stamped %d, live replica stamped %d", r, got, live[r])
		}
		ext := nd.log.ExternalVC()
		for i := range cr.know {
			if ext[i] < cr.know[i] {
				t.Fatalf("replica %d: ExternalVC = %v after recovery, does not cover Know %v", r, ext, cr.know)
			}
		}
	}
}

// copySegments copies the log segments in src to dst: the disk a kill -9 at
// this instant leaves behind.
func copySegments(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
