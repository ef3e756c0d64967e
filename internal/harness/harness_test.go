package harness

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/sss-paper/sss/client"
	"github.com/sss-paper/sss/kv"
)

// serverBin builds (or reuses, via SSS_E2E_BIN) the sss-server binary once
// per test process.
var serverBin = sync.OnceValues(func() (string, error) {
	if bin := os.Getenv("SSS_E2E_BIN"); bin != "" {
		return bin, nil
	}
	dir, err := os.MkdirTemp("", "sss-bin-*")
	if err != nil {
		return "", err
	}
	return BuildServer(dir)
})

// TestClusterSmoke is the end-to-end deployment gate: a real 3-node
// multi-process TCP cluster must serve the binary client protocol, make
// writes visible across nodes, and give read-only transactions coherent
// snapshots under concurrent updates.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e (use -short to skip)")
	}
	bin, err := serverBin()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Start(Config{Nodes: 3, Replication: 2, BinPath: bin})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Stop() }()

	clients := make([]*client.Client, 3)
	for i, addr := range c.ClientAddrs() {
		clients[i], err = client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatalf("dial node %d: %v", i, err)
		}
		defer func(cl *client.Client) { _ = cl.Close() }(clients[i])
	}

	// 1. Writes via one coordinator are visible from every node.
	tx := clients[0].Begin(false)
	for k := 0; k < 8; k++ {
		key := fmt.Sprintf("smoke%d", k)
		if _, _, err := tx.Read(key); err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		if err := tx.Write(key, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatalf("write %s: %v", key, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	for i := 0; i < 3; i++ {
		ro := clients[i].Begin(true)
		for k := 0; k < 8; k++ {
			key := fmt.Sprintf("smoke%d", k)
			v, ok, err := ro.Read(key)
			if err != nil || !ok || string(v) != fmt.Sprintf("v%d", k) {
				t.Fatalf("node %d read %s: %q ok=%v err=%v", i, key, v, ok, err)
			}
		}
		if err := ro.Commit(); err != nil {
			t.Fatalf("node %d ro commit: %v", i, err)
		}
	}

	// 2. RO snapshot coherence under concurrent transfers: updates keep
	// acct0+acct1 == 200; a read-only snapshot from any node must never
	// observe a partial transfer.
	init := clients[0].Begin(false)
	for _, k := range []string{"acct0", "acct1"} {
		if _, _, err := init.Read(k); err != nil {
			t.Fatalf("read %s: %v", k, err)
		}
		if err := init.Write(k, []byte("100")); err != nil {
			t.Fatalf("write %s: %v", k, err)
		}
	}
	if err := init.Commit(); err != nil {
		t.Fatalf("init commit: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // transfer loop on node 0
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx := clients[0].Begin(false)
			a, _, err1 := tx.Read("acct0")
			b, _, err2 := tx.Read("acct1")
			if err1 != nil || err2 != nil {
				_ = tx.Abort()
				continue
			}
			av, _ := strconv.Atoi(string(a))
			bv, _ := strconv.Atoi(string(b))
			amt := 1 + i%5
			if tx.Write("acct0", []byte(strconv.Itoa(av-amt))) != nil ||
				tx.Write("acct1", []byte(strconv.Itoa(bv+amt))) != nil {
				_ = tx.Abort()
				continue
			}
			_ = tx.Commit() // aborts are fine; partial states are not
		}
	}()

	deadline := time.Now().Add(2 * time.Second)
	reads := 0
	for time.Now().Before(deadline) {
		for i := 1; i < 3; i++ {
			ro := clients[i].Begin(true)
			a, okA, err1 := ro.Read("acct0")
			b, okB, err2 := ro.Read("acct1")
			if err1 != nil || err2 != nil || !okA || !okB {
				t.Fatalf("node %d snapshot read: %v %v ok=%v,%v", i, err1, err2, okA, okB)
			}
			if err := ro.Commit(); err != nil {
				t.Fatalf("node %d snapshot commit: %v", i, err)
			}
			av, _ := strconv.Atoi(string(a))
			bv, _ := strconv.Atoi(string(b))
			if av+bv != 200 {
				t.Fatalf("node %d observed torn snapshot: acct0=%d acct1=%d (sum %d != 200)", i, av, bv, av+bv)
			}
			reads++
		}
	}
	close(stop)
	wg.Wait()
	if reads == 0 {
		t.Fatal("no snapshot reads completed")
	}
	t.Logf("coherent snapshots: %d", reads)

	for i := 0; i < 3; i++ {
		if !c.Alive(i) {
			t.Fatalf("node %d died during smoke:\n%s", i, c.LogTail(i, 2048))
		}
	}
}

// TestClusterStartFailure exercises the harness's own failure path: a bad
// binary must surface the node's exit with its log, not hang.
func TestClusterStartFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	_, err := Start(Config{Nodes: 1, BinPath: "/bin/false", StartTimeout: 5 * time.Second})
	if err == nil {
		t.Fatal("cluster with a broken binary started")
	}
}

// TestServerAbortsOnClientDisconnect verifies end-to-end (real processes)
// that a client that vanishes mid-transaction doesn't wedge the cluster: a
// parked RO entry from the dead client must not block later writers.
func TestServerAbortsOnClientDisconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	bin, err := serverBin()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Start(Config{Nodes: 2, Replication: 2, BinPath: bin})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Stop() }()

	w, err := client.Dial(c.ClientAddrs()[0], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	init := w.Begin(false)
	_, _, _ = init.Read("leak")
	if err := init.Write("leak", []byte("0")); err != nil {
		t.Fatal(err)
	}
	if err := init.Commit(); err != nil {
		t.Fatal(err)
	}

	// Reader on node 1 parks an R entry, then vanishes.
	r, err := client.Dial(c.ClientAddrs()[1], client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	ro := r.Begin(true)
	if _, _, err := ro.Read("leak"); err != nil {
		t.Fatal(err)
	}
	_ = r.Close() // abrupt: no commit, no abort

	// A writer must still commit promptly.
	done := make(chan error, 1)
	go func() {
		tx := w.Begin(false)
		if _, _, err := tx.Read("leak"); err != nil {
			done <- err
			return
		}
		if err := tx.Write("leak", []byte("1")); err != nil {
			done <- err
			return
		}
		done <- tx.Commit()
	}()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, kv.ErrAborted) {
			t.Fatalf("write after reader disconnect: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("writer blocked behind a vanished reader")
	}
}

// TestSnapshotReadCoherence is the end-to-end gate for the one-round
// read-only path: against a real 2-node cluster a SnapshotRead must observe
// the same torn-state-free snapshots as the interactive read-only form
// while concurrent transfers run.
func TestSnapshotReadCoherence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	bin, err := serverBin()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Start(Config{Nodes: 2, Replication: 2, BinPath: bin})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Stop() }()

	clients := make([]*client.Client, 2)
	for i, addr := range c.ClientAddrs() {
		clients[i], err = client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatalf("dial node %d: %v", i, err)
		}
		defer func(cl *client.Client) { _ = cl.Close() }(clients[i])
	}

	init := clients[0].Begin(false)
	for _, k := range []string{"bal0", "bal1"} {
		if _, _, err := init.Read(k); err != nil {
			t.Fatal(err)
		}
		if err := init.Write(k, []byte("100")); err != nil {
			t.Fatal(err)
		}
	}
	if err := init.Commit(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // transfer loop keeps bal0+bal1 == 200
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx := clients[0].Begin(false)
			a, _, err1 := tx.Read("bal0")
			b, _, err2 := tx.Read("bal1")
			if err1 != nil || err2 != nil {
				_ = tx.Abort()
				continue
			}
			av, _ := strconv.Atoi(string(a))
			bv, _ := strconv.Atoi(string(b))
			amt := 1 + i%7
			if tx.Write("bal0", []byte(strconv.Itoa(av-amt))) != nil ||
				tx.Write("bal1", []byte(strconv.Itoa(bv+amt))) != nil {
				_ = tx.Abort()
				continue
			}
			_ = tx.Commit()
		}
	}()

	deadline := time.Now().Add(2 * time.Second)
	reads := 0
	for time.Now().Before(deadline) {
		res, err := clients[1].SnapshotRead([]string{"bal0", "bal1"})
		if err != nil {
			t.Fatalf("snapshot read: %v", err)
		}
		if len(res) != 2 || !res[0].Exists || !res[1].Exists {
			t.Fatalf("snapshot read results: %+v", res)
		}
		av, _ := strconv.Atoi(string(res[0].Val))
		bv, _ := strconv.Atoi(string(res[1].Val))
		if av+bv != 200 {
			t.Fatalf("one-round snapshot torn: bal0=%d bal1=%d (sum %d != 200)", av, bv, av+bv)
		}
		reads++
	}
	close(stop)
	wg.Wait()
	if reads == 0 {
		t.Fatal("no snapshot reads completed")
	}
	if got := clients[1].Metrics().SnapshotReads.Load(); got != uint64(reads) {
		t.Fatalf("snapshot-read counter %d for %d reads", got, reads)
	}
	t.Logf("coherent one-round snapshots through %v RTT: %d", time.Millisecond, reads)
}
