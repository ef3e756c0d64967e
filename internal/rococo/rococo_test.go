package rococo

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

func newCluster(t *testing.T, n int) []*Node {
	t.Helper()
	net := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
	lookup := cluster.NewLookup(n, 1) // the paper runs ROCOCO unreplicated
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

func TestBasicWriteThenRead(t *testing.T) {
	nodes := newCluster(t, 3)
	preload(nodes, map[string]string{"x": "v0"})
	tx := nodes[0].Begin(false)
	_ = tx.Write("x", []byte("v1"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("update commit: %v", err)
	}
	ro := nodes[1].Begin(true)
	v, ok, err := ro.Read("x")
	if err != nil || !ok {
		t.Fatalf("read: %v %v", ok, err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatalf("ro commit: %v", err)
	}
	if string(v) != "v1" {
		t.Fatalf("read %q, want v1", v)
	}
}

func TestUpdateTransactionsNeverAbort(t *testing.T) {
	// All pieces are deferrable: concurrent conflicting writers reorder,
	// none aborts.
	nodes := newCluster(t, 3)
	preload(nodes, map[string]string{"a": "0", "b": "0"})
	var wg sync.WaitGroup
	errs := make(chan error, 60)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tx := nodes[w%3].Begin(false)
				_ = tx.Write("a", []byte(fmt.Sprintf("%d-%d", w, i)))
				_ = tx.Write("b", []byte(fmt.Sprintf("%d-%d", w, i)))
				if err := tx.Commit(); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("update transaction aborted: %v", err)
	}
}

func TestConflictingWritersSerializeIdentically(t *testing.T) {
	// a and b are written together by every transaction; after the dust
	// settles both keys must hold the same value (all servers executed the
	// conflicting writes in the same final order).
	nodes := newCluster(t, 4)
	preload(nodes, map[string]string{"pair:a": "init", "pair:b": "init"})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tx := nodes[w%4].Begin(false)
				val := []byte(fmt.Sprintf("w%d-i%d", w, i))
				_ = tx.Write("pair:a", val)
				_ = tx.Write("pair:b", val)
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	read := func(key string) string {
		for i := 0; i < 100; i++ {
			tx := nodes[0].Begin(true)
			v, _, err := tx.Read(key)
			if err != nil {
				t.Fatal(err)
			}
			if tx.Commit() == nil {
				return string(v)
			}
		}
		t.Fatal("read-only never stabilized")
		return ""
	}
	a, b := read("pair:a"), read("pair:b")
	if a != b {
		t.Fatalf("pair diverged: a=%q b=%q (servers ordered conflicting writes differently)", a, b)
	}
}

func TestReadOnlyRetriesUnderInterference(t *testing.T) {
	// A read-only transaction whose keys change between its two rounds
	// must return ErrAborted (ROCOCO read-only transactions are not
	// abort-free).
	nodes := newCluster(t, 2)
	preload(nodes, map[string]string{"x": "v0"})

	ro := nodes[0].Begin(true)
	if _, _, err := ro.Read("x"); err != nil {
		t.Fatal(err)
	}
	// Interfere before the validation round.
	up := nodes[1].Begin(false)
	_ = up.Write("x", []byte("v1"))
	if err := up.Commit(); err != nil {
		t.Fatal(err)
	}
	// Wait for the write to be externally done (commit returned), then
	// validate: versions differ → abort.
	if err := ro.Commit(); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("ro commit = %v, want ErrAborted", err)
	}
	if nodes[0].Stats().Aborts.Load() == 0 {
		t.Fatal("ro retry not counted as abort")
	}
}

func TestReadOnlyStableCommits(t *testing.T) {
	nodes := newCluster(t, 2)
	preload(nodes, map[string]string{"x": "v0", "y": "v0"})
	ro := nodes[0].Begin(true)
	if _, _, err := ro.Read("x"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ro.Read("y"); err != nil {
		t.Fatal(err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatalf("quiescent ro commit: %v", err)
	}
}

func TestROProbeWaitsForPendingWriter(t *testing.T) {
	// A dispatched-but-uncommitted writer blocks probes on its keys; the
	// probe completes once the commit round executes.
	nodes := newCluster(t, 2)
	preload(nodes, map[string]string{"x": "v0"})
	lookup := cluster.NewLookup(2, 1)
	server := nodes[lookup.Primary("x")]

	// Manually dispatch (round 1) without committing.
	txid := wire.TxnID{Node: 99, Seq: 1}
	server.mu.Lock()
	server.clock++
	server.pending[txid] = &ptxn{
		writes:   []wire.KV{{Key: "x", Val: []byte("v1")}},
		proposed: server.clock,
	}
	seq := server.clock
	server.mu.Unlock()

	probed := make(chan string, 1)
	go func() {
		ro := nodes[0].Begin(true)
		v, _, err := ro.Read("x")
		if err != nil {
			probed <- "err:" + err.Error()
			return
		}
		_ = ro.Commit()
		probed <- string(v)
	}()

	select {
	case v := <-probed:
		t.Fatalf("probe returned %q while writer pending", v)
	case <-time.After(50 * time.Millisecond):
	}

	// Finish the writer via the public commit handler path.
	server.handleCommit(0, 0, &wire.RococoCommit{Txn: txid, Seq: seq})
	select {
	case v := <-probed:
		if v != "v1" {
			t.Fatalf("probe = %q, want v1", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("probe never completed after writer executed")
	}
}

func TestStateErrors(t *testing.T) {
	nodes := newCluster(t, 1)
	ro := nodes[0].Begin(true)
	if err := ro.Write("x", nil); !errors.Is(err, kv.ErrReadOnlyWrite) {
		t.Fatalf("ro write = %v", err)
	}
	tx := nodes[0].Begin(false)
	_ = tx.Abort()
	if err := tx.Commit(); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("commit after abort = %v", err)
	}
	if _, _, err := tx.Read("x"); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("read after abort = %v", err)
	}
}

func TestMissingKey(t *testing.T) {
	nodes := newCluster(t, 2)
	ro := nodes[0].Begin(true)
	_, ok, err := ro.Read("ghost")
	if err != nil || ok {
		t.Fatalf("ghost read = %v %v", ok, err)
	}
	_ = ro.Commit()
}
