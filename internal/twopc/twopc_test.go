package twopc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/sss-paper/sss/internal/cluster"
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

func retryWrite(t *testing.T, nd *Node, key, val string) {
	t.Helper()
	for i := 0; i < 50; i++ {
		tx := nd.Begin(false)
		if _, _, err := tx.Read(key); err != nil {
			t.Fatal(err)
		}
		_ = tx.Write(key, []byte(val))
		if err := tx.Commit(); err == nil {
			return
		} else if !errors.Is(err, kv.ErrAborted) {
			t.Fatal(err)
		}
	}
	t.Fatalf("write %s never committed", key)
}

func TestBasicReadWrite(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	preload(nodes, map[string]string{"x": "v0"})
	retryWrite(t, nodes[0], "x", "v1")
	for i, nd := range nodes {
		tx := nd.Begin(true)
		v, ok, err := tx.Read("x")
		if err != nil || !ok {
			t.Fatalf("node %d read: %v %v", i, ok, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("node %d ro commit: %v", i, err)
		}
		if string(v) != "v1" {
			t.Fatalf("node %d read %q, want v1", i, v)
		}
	}
}

func TestReadOnlyCanAbort(t *testing.T) {
	// The defining property of the baseline (vs SSS): a read-only
	// transaction whose read keys were overwritten before commit aborts.
	nodes := newCluster(t, 2, 1)
	preload(nodes, map[string]string{"x": "v0"})

	ro := nodes[0].Begin(true)
	if _, _, err := ro.Read("x"); err != nil {
		t.Fatal(err)
	}
	retryWrite(t, nodes[1], "x", "v1")
	if err := ro.Commit(); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("stale read-only commit = %v, want ErrAborted", err)
	}
	if nodes[0].Stats().Aborts.Load() == 0 {
		t.Fatal("abort not counted")
	}
}

func TestUpdateValidationAbort(t *testing.T) {
	nodes := newCluster(t, 2, 1)
	preload(nodes, map[string]string{"x": "v0"})
	t1 := nodes[0].Begin(false)
	if _, _, err := t1.Read("x"); err != nil {
		t.Fatal(err)
	}
	retryWrite(t, nodes[1], "x", "v1")
	_ = t1.Write("x", []byte("stale"))
	if err := t1.Commit(); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("commit = %v, want ErrAborted", err)
	}
}

func TestNoLostUpdates(t *testing.T) {
	nodes := newCluster(t, 3, 2)
	preload(nodes, map[string]string{"ctr": "0"})
	var commits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tx := nodes[w%3].Begin(false)
				v, _, err := tx.Read("ctr")
				if err != nil {
					continue
				}
				n := 0
				fmt.Sscanf(string(v), "%d", &n)
				_ = tx.Write("ctr", []byte(fmt.Sprintf("%d", n+1)))
				if tx.Commit() == nil {
					commits.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	// Read with retry (read-only can abort in this engine).
	var final string
	for i := 0; i < 50; i++ {
		tx := nodes[0].Begin(true)
		v, _, err := tx.Read("ctr")
		if err != nil {
			continue
		}
		if tx.Commit() == nil {
			final = string(v)
			break
		}
	}
	n := 0
	fmt.Sscanf(final, "%d", &n)
	if int64(n) != commits.Load() {
		t.Fatalf("ctr = %d, commits = %d", n, commits.Load())
	}
	if commits.Load() == 0 {
		t.Fatal("nothing committed")
	}
}

func TestEmptyTransaction(t *testing.T) {
	nodes := newCluster(t, 1, 1)
	tx := nodes[0].Begin(false)
	if err := tx.Commit(); err != nil {
		t.Fatalf("empty commit: %v", err)
	}
}

func TestTxnStateErrors(t *testing.T) {
	nodes := newCluster(t, 1, 1)
	preload(nodes, map[string]string{"x": "v0"})
	ro := nodes[0].Begin(true)
	if err := ro.Write("x", nil); !errors.Is(err, kv.ErrReadOnlyWrite) {
		t.Fatalf("write on ro = %v", err)
	}
	tx := nodes[0].Begin(false)
	_ = tx.Abort()
	if _, _, err := tx.Read("x"); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("read after abort = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("commit after abort = %v", err)
	}
}

func TestMissingKey(t *testing.T) {
	nodes := newCluster(t, 2, 2)
	tx := nodes[0].Begin(true)
	_, ok, err := tx.Read("ghost")
	if err != nil || ok {
		t.Fatalf("ghost read = %v %v", ok, err)
	}
}

func TestReplicasConverge(t *testing.T) {
	nodes := newCluster(t, 4, 2)
	preload(nodes, map[string]string{"k": "v0"})
	for i := 1; i <= 10; i++ {
		retryWrite(t, nodes[i%4], "k", fmt.Sprintf("v%d", i))
	}
	// All replicas of k must hold the same final value and version.
	var vals []string
	var vers []uint64
	lookup := cluster.NewLookup(4, 2)
	for _, r := range lookup.Replicas("k") {
		nd := nodes[r]
		sh := nd.shards.Of("k")
		sh.Mu.Lock()
		e := sh.Keys["k"]
		sh.Mu.Unlock()
		if e == nil {
			t.Fatalf("replica %d missing k", r)
		}
		vals = append(vals, string(e.val))
		vers = append(vers, e.ver)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[0] || vers[i] != vers[0] {
			t.Fatalf("replicas diverged: vals=%v vers=%v", vals, vers)
		}
	}
	if vals[0] != "v10" {
		t.Fatalf("final value %q, want v10", vals[0])
	}
}
