package walter

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/mvstore"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

func newCluster(t *testing.T, n, degree int) []*Node {
	t.Helper()
	net := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
	lookup := cluster.NewLookup(n, degree)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nd, err := New(net, wire.NodeID(i), n, lookup)
		if err != nil {
			t.Fatal(err)
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

// eventually polls until cond is true or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFastCommitLocalPrimary(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	preload(nodes, map[string]string{"k": "v0"})
	lookup := cluster.NewLookup(3, 2)
	primary := nodes[lookup.Primary("k")]

	tx := primary.Begin(false)
	if _, _, err := tx.Read("k"); err != nil {
		t.Fatal(err)
	}
	_ = tx.Write("k", []byte("v1"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("fast commit: %v", err)
	}
	// Local snapshot sees the write immediately.
	tx2 := primary.Begin(true)
	v, _, err := tx2.Read("k")
	if err != nil || string(v) != "v1" {
		t.Fatalf("local read after fast commit = %q, %v", v, err)
	}
	_ = tx2.Commit()
	// Secondary replica converges via async propagation.
	secondary := nodes[(int(lookup.Primary("k"))+1)%3]
	eventually(t, "propagation", func() bool {
		tx := secondary.Begin(true)
		v, _, err := tx.Read("k")
		_ = tx.Commit()
		return err == nil && string(v) == "v1"
	})
}

func TestSlowCommitRemotePrimary(t *testing.T) {
	nodes := newCluster(t, 3, 1)
	preload(nodes, map[string]string{"k": "v0"})
	lookup := cluster.NewLookup(3, 1)
	other := nodes[(int(lookup.Primary("k"))+1)%3]

	tx := other.Begin(false)
	_ = tx.Write("k", []byte("v1"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("slow commit: %v", err)
	}
	eventually(t, "slow-commit visibility", func() bool {
		tx := nodes[lookup.Primary("k")].Begin(true)
		v, _, err := tx.Read("k")
		_ = tx.Commit()
		return err == nil && string(v) == "v1"
	})
}

func TestWriteWriteConflictAborts(t *testing.T) {
	nodes := newCluster(t, 2, 1)
	preload(nodes, map[string]string{"k": "v0"})
	lookup := cluster.NewLookup(2, 1)
	p := nodes[lookup.Primary("k")]

	// Both transactions snapshot before either commits: the second
	// committer must abort (first-committer-wins on w-w conflicts).
	t1 := p.Begin(false)
	t2 := p.Begin(false)
	_ = t1.Write("k", []byte("a"))
	_ = t2.Write("k", []byte("b"))
	if err := t1.Commit(); err != nil {
		t.Fatalf("t1: %v", err)
	}
	if err := t2.Commit(); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("t2 = %v, want ErrAborted (write-write conflict)", err)
	}
}

func TestWriteSkewAllowed(t *testing.T) {
	// PSI admits write skew: two transactions reading both keys and
	// writing disjoint keys both commit. This distinguishes Walter's
	// isolation from SSS's external consistency.
	nodes := newCluster(t, 2, 2)
	preload(nodes, map[string]string{"a": "1", "b": "1"})
	p := nodes[0]

	t1 := p.Begin(false)
	t2 := p.Begin(false)
	_, _, _ = t1.Read("a")
	_, _, _ = t1.Read("b")
	_, _, _ = t2.Read("a")
	_, _, _ = t2.Read("b")
	_ = t1.Write("a", []byte("0"))
	_ = t2.Write("b", []byte("0"))
	if err := t1.Commit(); err != nil {
		t.Fatalf("t1: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("t2 should commit under PSI (write skew allowed): %v", err)
	}
}

func TestReadOnlyNeverAborts(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	keys := map[string]string{}
	for i := 0; i < 8; i++ {
		keys[fmt.Sprintf("k%d", i)] = "0"
	}
	preload(nodes, keys)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
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
				_ = tx.Write(fmt.Sprintf("k%d", (w+i)%8), []byte(fmt.Sprintf("%d", i)))
				_ = tx.Commit()
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		tx := nodes[i%3].Begin(true)
		for j := 0; j < 3; j++ {
			if _, _, err := tx.Read(fmt.Sprintf("k%d", (i+j)%8)); err != nil {
				t.Fatalf("walter read-only must not fail: %v", err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("walter read-only must not abort: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	for _, nd := range nodes {
		if nd.Stats().ReadOnlyRuns.Load() == 0 && nd.ID() == 0 {
			t.Fatal("read-only runs not counted")
		}
	}
}

func TestSnapshotStableWithinTxn(t *testing.T) {
	nodes := newCluster(t, 2, 2)
	preload(nodes, map[string]string{"k": "v0"})
	ro := nodes[0].Begin(true)
	v1, _, err := ro.Read("k")
	if err != nil {
		t.Fatal(err)
	}
	// Commit a new version meanwhile.
	up := nodes[0].Begin(false)
	_ = up.Write("k", []byte("v9"))
	if err := up.Commit(); err != nil {
		t.Fatalf("update: %v", err)
	}
	// The read-only snapshot must still serve the old value (cached or
	// re-read under the same snapshot vector).
	v2, _, err := ro.Read("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v1) != string(v2) {
		t.Fatalf("snapshot moved within txn: %q -> %q", v1, v2)
	}
	_ = ro.Commit()
}

func TestVersionChainKeepsDefaultDepth(t *testing.T) {
	// Walter prunes at the SSS engine's depth: the two multi-version
	// engines of figures 3 and 7 keep the same number of versions.
	nodes := newCluster(t, 1, 1)
	for i := 1; i <= 100; i++ {
		tx := nodes[0].Begin(false)
		_ = tx.Write("k", []byte(strconv.Itoa(i)))
		if err := tx.Commit(); err != nil {
			t.Fatalf("fast commit %d: %v", i, err)
		}
	}
	sh := nodes[0].shards.Of("k")
	sh.Mu.Lock()
	defer sh.Mu.Unlock()
	depth := 0
	for v := sh.Keys["k"]; v != nil; v = v.prev {
		if want := strconv.Itoa(100 - depth); string(v.val) != want {
			t.Fatalf("version %d = %q, want %q (newest first)", depth, v.val, want)
		}
		depth++
	}
	if depth != mvstore.DefaultMaxDepth {
		t.Fatalf("chain keeps %d versions, want %d", depth, mvstore.DefaultMaxDepth)
	}
}

func TestStateErrors(t *testing.T) {
	nodes := newCluster(t, 1, 1)
	ro := nodes[0].Begin(true)
	if err := ro.Write("x", nil); !errors.Is(err, kv.ErrReadOnlyWrite) {
		t.Fatalf("ro write = %v", err)
	}
	tx := nodes[0].Begin(false)
	_ = tx.Abort()
	if err := tx.Commit(); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("commit after abort = %v", err)
	}
}
