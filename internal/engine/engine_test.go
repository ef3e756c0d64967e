package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// newCluster assembles n SSS nodes over a zero-latency simulated network.
func newCluster(t *testing.T, n, degree int, cfg Config) []*Node {
	t.Helper()
	return newClusterNet(t, n, degree, cfg, transport.InProcConfig{DisableLatency: true})
}

// newClusterNet is newCluster with an explicit network configuration, for
// suites that run under a transport seam (duplicate-delivery amplifier,
// lossy-link filters).
func newClusterNet(t *testing.T, n, degree int, cfg Config, netCfg transport.InProcConfig) []*Node {
	t.Helper()
	net := transport.NewInProc(netCfg)
	lookup := cluster.NewLookup(n, degree)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nd, err := New(net, wire.NodeID(i), n, lookup, cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = nd
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
		_ = net.Close()
	})
	return nodes
}

func preload(nodes []*Node, keys map[string]string) {
	for _, nd := range nodes {
		for k, v := range keys {
			nd.Preload(k, []byte(v))
		}
	}
}

func mustCommit(t *testing.T, tx *Txn) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit %v: %v", tx.ID(), err)
	}
}

func writeKey(t *testing.T, nd *Node, key, val string) {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		tx := nd.Begin(false)
		if _, _, err := tx.Read(key); err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		if err := tx.Write(key, []byte(val)); err != nil {
			t.Fatal(err)
		}
		err := tx.Commit()
		if err == nil {
			return
		}
		if !errors.Is(err, kv.ErrAborted) {
			t.Fatalf("write %s: %v", key, err)
		}
	}
	t.Fatalf("write %s: aborted 50 times", key)
}

func readKey(t *testing.T, nd *Node, key string) string {
	t.Helper()
	tx := nd.Begin(true)
	v, ok, err := tx.Read(key)
	if err != nil {
		t.Fatalf("read %s: %v", key, err)
	}
	if !ok {
		t.Fatalf("read %s: missing", key)
	}
	mustCommit(t, tx)
	return string(v)
}

func TestSingleNodeWriteThenRead(t *testing.T) {
	nodes := newCluster(t, 1, 1, Config{})
	preload(nodes, map[string]string{"x": "v0"})
	writeKey(t, nodes[0], "x", "v1")
	if got := readKey(t, nodes[0], "x"); got != "v1" {
		t.Fatalf("read = %q, want v1", got)
	}
}

func TestRemoteWriteVisibleEverywhere(t *testing.T) {
	nodes := newCluster(t, 4, 2, Config{})
	preload(nodes, map[string]string{"x": "v0", "y": "v0"})
	// Write from a node that may not replicate x.
	writeKey(t, nodes[3], "x", "from3")
	for i, nd := range nodes {
		if got := readKey(t, nd, "x"); got != "from3" {
			t.Fatalf("node %d read %q, want from3", i, got)
		}
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	nodes := newCluster(t, 2, 1, Config{})
	preload(nodes, map[string]string{"x": "v0"})
	tx := nodes[0].Begin(false)
	if err := tx.Write("x", []byte("mine")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tx.Read("x")
	if err != nil || !ok || string(v) != "mine" {
		t.Fatalf("read own write = %q %v %v", v, ok, err)
	}
	mustCommit(t, tx)
}

func TestReadOnlyCannotWrite(t *testing.T) {
	nodes := newCluster(t, 1, 1, Config{})
	tx := nodes[0].Begin(true)
	if err := tx.Write("x", []byte("v")); !errors.Is(err, kv.ErrReadOnlyWrite) {
		t.Fatalf("err = %v, want ErrReadOnlyWrite", err)
	}
}

func TestTxnDoneSemantics(t *testing.T) {
	nodes := newCluster(t, 1, 1, Config{})
	preload(nodes, map[string]string{"x": "v0"})
	tx := nodes[0].Begin(true)
	_, _, _ = tx.Read("x")
	mustCommit(t, tx)
	if err := tx.Commit(); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("second commit = %v, want ErrTxnDone", err)
	}
	if _, _, err := tx.Read("x"); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("read after commit = %v, want ErrTxnDone", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("abort after commit should be a no-op, got %v", err)
	}
}

func TestMissingKeyRead(t *testing.T) {
	nodes := newCluster(t, 2, 2, Config{})
	tx := nodes[0].Begin(true)
	_, ok, err := tx.Read("never-written")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("missing key should report !ok")
	}
	mustCommit(t, tx)
}

func TestValidationAbort(t *testing.T) {
	nodes := newCluster(t, 2, 1, Config{})
	preload(nodes, map[string]string{"x": "v0"})

	// T1 reads x, then T2 overwrites x and commits, then T1 tries to
	// commit a write based on its stale read: T1 must abort.
	t1 := nodes[0].Begin(false)
	if _, _, err := t1.Read("x"); err != nil {
		t.Fatal(err)
	}
	writeKey(t, nodes[1], "x", "v1")
	if err := t1.Write("x", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("stale writer committed: %v", err)
	}
	if got := readKey(t, nodes[0], "x"); got != "v1" {
		t.Fatalf("x = %q, want v1 (aborted write must not apply)", got)
	}
}

func TestFigure1AntiDependencyDelaysExternalCommit(t *testing.T) {
	// The paper's Figure 1: read-only T1 reads y, then update T2
	// overwrites y. T2 internally commits (its version is visible) but its
	// external commit — the return of Commit() — must wait until T1
	// completes and its Remove drains the snapshot-queue.
	nodes := newCluster(t, 2, 1, Config{})
	preload(nodes, map[string]string{"y": "y0"})
	yNode := nodes[0].lookup.Primary("y")

	roNode, upNode := nodes[(int(yNode)+1)%2], nodes[yNode]

	t1 := roNode.Begin(true)
	v, _, err := t1.Read("y")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "y0" {
		t.Fatalf("T1 read %q, want y0", v)
	}

	t2 := upNode.Begin(false)
	if _, _, err := t2.Read("y"); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write("y", []byte("y1")); err != nil {
		t.Fatal(err)
	}

	committed := make(chan time.Time, 1)
	go func() {
		if err := t2.Commit(); err != nil {
			t.Errorf("T2 commit: %v", err)
		}
		committed <- time.Now()
	}()

	// T2 must be parked in y's snapshot-queue behind T1.
	select {
	case <-committed:
		t.Fatal("T2 externally committed while T1 was still running")
	case <-time.After(50 * time.Millisecond):
	}

	release := time.Now()
	mustCommit(t, t1) // sends Remove
	select {
	case at := <-committed:
		if at.Before(release) {
			t.Fatal("T2 completed before T1's Remove")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("T2 never externally committed after T1's Remove")
	}
}

func TestFigure1InternalCommitVisibleWhileParked(t *testing.T) {
	// While T2 is parked (pre-commit), its written version must already be
	// visible to new transactions — that is what keeps throughput high.
	nodes := newCluster(t, 2, 1, Config{})
	preload(nodes, map[string]string{"y": "y0"})
	yNode := nodes[0].lookup.Primary("y")
	roNode, upNode := nodes[(int(yNode)+1)%2], nodes[yNode]

	t1 := roNode.Begin(true)
	if _, _, err := t1.Read("y"); err != nil {
		t.Fatal(err)
	}

	t2 := upNode.Begin(false)
	_, _, _ = t2.Read("y")
	_ = t2.Write("y", []byte("y1"))
	done := make(chan error, 1)
	go func() { done <- t2.Commit() }()

	// Wait for T2 to internally commit (version applied).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v := upNode.store.Latest("y"); v.Exists && string(v.Val) == "y1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("T2 never internally committed")
		}
		time.Sleep(time.Millisecond)
	}

	// A fresh update transaction must see y1 (internal commit exposes it).
	t3 := upNode.Begin(false)
	v, _, err := t3.Read("y")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "y1" {
		t.Fatalf("T3 (update) read %q, want y1: internally committed writes must be visible", v)
	}
	_ = t3.Abort()

	mustCommit(t, t1)
	if err := <-done; err != nil {
		t.Fatalf("T2: %v", err)
	}
}

func TestRemoveCleansSnapshotQueues(t *testing.T) {
	nodes := newCluster(t, 2, 2, Config{})
	preload(nodes, map[string]string{"x": "v0"})
	t1 := nodes[0].Begin(true)
	if _, _, err := t1.Read("x"); err != nil {
		t.Fatal(err)
	}
	// Entries exist on the replicas that served (all were contacted).
	some := false
	for _, nd := range nodes {
		r, _ := nd.store.SQLen("x")
		if r > 0 {
			some = true
		}
	}
	if !some {
		t.Fatal("read should have enqueued snapshot-queue entries")
	}
	mustCommit(t, t1)
	// Remove is asynchronous; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		total := 0
		for _, nd := range nodes {
			r, _ := nd.store.SQLen("x")
			total += r
		}
		if total == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot-queues not cleaned: %d entries remain", total)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAbortedReadOnlyStillRemoves(t *testing.T) {
	nodes := newCluster(t, 2, 1, Config{})
	preload(nodes, map[string]string{"x": "v0"})
	t1 := nodes[0].Begin(true)
	if _, _, err := t1.Read("x"); err != nil {
		t.Fatal(err)
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		total := 0
		for _, nd := range nodes {
			r, _ := nd.store.SQLen("x")
			total += r
		}
		if total == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("aborted read-only transaction left queue entries")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestExternalConsistencyAcrossClients(t *testing.T) {
	// The paper's motivating example (§I): once an update transaction's
	// Commit() returns, a read-only transaction started afterwards from
	// any node must observe it.
	nodes := newCluster(t, 3, 2, Config{})
	preload(nodes, map[string]string{"doc": "v0"})
	for i := 1; i <= 5; i++ {
		val := fmt.Sprintf("v%d", i)
		writeKey(t, nodes[i%3], "doc", val)
		for j, nd := range nodes {
			if got := readKey(t, nd, "doc"); got != val {
				t.Fatalf("round %d: node %d read %q, want %q (external consistency)", i, j, got, val)
			}
		}
	}
}

func TestReadOnlySnapshotIsolationAcrossKeys(t *testing.T) {
	// Bank invariant: transfers keep x+y constant; every read-only
	// transaction must observe a consistent snapshot.
	nodes := newCluster(t, 3, 1, Config{})
	preload(nodes, map[string]string{"acct:a": "50", "acct:b": "50"})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		amount := 1
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx := nodes[i%3].Begin(false)
			av, _, err := tx.Read("acct:a")
			if err != nil {
				continue
			}
			bv, _, err := tx.Read("acct:b")
			if err != nil {
				continue
			}
			a, b := atoi(string(av)), atoi(string(bv))
			_ = tx.Write("acct:a", []byte(itoa(a-amount)))
			_ = tx.Write("acct:b", []byte(itoa(b+amount)))
			_ = tx.Commit() // aborts are fine
		}
	}()

	for i := 0; i < 200; i++ {
		tx := nodes[i%3].Begin(true)
		av, _, err := tx.Read("acct:a")
		if err != nil {
			t.Fatalf("read-only read failed (must be abort-free): %v", err)
		}
		bv, _, err := tx.Read("acct:b")
		if err != nil {
			t.Fatalf("read-only read failed (must be abort-free): %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("read-only commit failed (must be abort-free): %v", err)
		}
		if sum := atoi(string(av)) + atoi(string(bv)); sum != 100 {
			t.Fatalf("iteration %d: inconsistent snapshot a+b=%d, want 100", i, sum)
		}
	}
	close(stop)
	wg.Wait()
}

func TestConcurrentWritersNoLostUpdates(t *testing.T) {
	// Read-modify-write increments from every node: validation must make
	// the final counter equal the number of successful commits.
	nodes := newCluster(t, 3, 2, Config{})
	preload(nodes, map[string]string{"ctr": "0"})

	var commits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nd := nodes[w%3]
			for i := 0; i < 30; i++ {
				tx := nd.Begin(false)
				v, _, err := tx.Read("ctr")
				if err != nil {
					_ = tx.Abort()
					continue
				}
				if err := tx.Write("ctr", []byte(itoa(atoi(string(v))+1))); err != nil {
					_ = tx.Abort()
					continue
				}
				if err := tx.Commit(); err == nil {
					commits.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	got := atoi(readKey(t, nodes[0], "ctr"))
	if int64(got) != commits.Load() {
		t.Fatalf("counter = %d, committed increments = %d (lost update!)", got, commits.Load())
	}
	if commits.Load() == 0 {
		t.Fatal("no increment ever committed")
	}
}

func TestReadOnlyAbortFreeUnderChurn(t *testing.T) {
	nodes := newCluster(t, 4, 2, Config{})
	keys := map[string]string{}
	for i := 0; i < 8; i++ {
		keys[fmt.Sprintf("k%d", i)] = "0"
	}
	preload(nodes, keys)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := nodes[w].Begin(false)
				k1, k2 := fmt.Sprintf("k%d", (w+i)%8), fmt.Sprintf("k%d", (w+i+3)%8)
				if _, _, err := tx.Read(k1); err != nil {
					_ = tx.Abort()
					continue
				}
				if _, _, err := tx.Read(k2); err != nil {
					_ = tx.Abort()
					continue
				}
				_ = tx.Write(k1, []byte(itoa(i)))
				_ = tx.Write(k2, []byte(itoa(i)))
				_ = tx.Commit()
			}
		}(w)
	}

	for i := 0; i < 150; i++ {
		tx := nodes[i%4].Begin(true)
		for j := 0; j < 4; j++ {
			if _, _, err := tx.Read(fmt.Sprintf("k%d", (i+j)%8)); err != nil {
				t.Fatalf("read-only transaction hit error (must be abort-free): %v", err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("read-only commit error: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	for _, nd := range nodes {
		if nd.Stats().DrainTimeouts.Load() != 0 {
			t.Fatalf("node %d hit %d drain timeouts", nd.ID(), nd.Stats().DrainTimeouts.Load())
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	nodes := newCluster(t, 2, 1, Config{})
	preload(nodes, map[string]string{"x": "v0"})
	writeKey(t, nodes[0], "x", "v1")
	_ = readKey(t, nodes[0], "x")
	s := nodes[0].Stats()
	if s.Commits.Load() == 0 {
		t.Fatal("update commit not counted")
	}
	if s.ReadOnlyRuns.Load() == 0 {
		t.Fatal("read-only run not counted")
	}
	if s.CommitLatency.Count() == 0 || s.InternalLatency.Count() == 0 {
		t.Fatal("latency histograms empty")
	}
}

func atoi(s string) int {
	n := 0
	neg := false
	for i := 0; i < len(s); i++ {
		if s[i] == '-' {
			neg = true
			continue
		}
		n = n*10 + int(s[i]-'0')
	}
	if neg {
		return -n
	}
	return n
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// TestRemoteCommitsSpawnNoGoroutines: a coordinator's fan-outs run on the
// committing goroutine itself, so a run of remote update commits leaves the
// process with no more goroutines than it had before the first one.
func TestRemoteCommitsSpawnNoGoroutines(t *testing.T) {
	nodes := newCluster(t, 3, 2, Config{})
	lookup := cluster.NewLookup(3, 2)
	var key string
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("far%d", i); !lookup.IsReplica(k, 0) {
			key = k
		}
	}
	preload(nodes, map[string]string{key: "0"})
	// Open every link first (one-way, so no call is involved): the network
	// starts a pipe goroutine per sender→receiver pair on first use.
	for _, from := range nodes {
		for _, to := range nodes {
			_ = from.rpc.Notify(to.id, &wire.Remove{Txn: wire.TxnID{Node: from.id, Seq: 1 << 40}})
		}
	}
	time.Sleep(20 * time.Millisecond)
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		writeKey(t, nodes[0], key, itoa(i))
	}
	// Handlers of the last commit's purge may still be running on spill
	// goroutines; give them a moment to return.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before 200 remote commits, %d after", before, after)
	}
}
