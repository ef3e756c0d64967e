package client

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/clientproto"
	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/engine"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/kv"
)

type storeFunc func(readOnly bool) kv.Txn

func (f storeFunc) Begin(readOnly bool) kv.Txn { return f(readOnly) }

// startServer boots a single-node engine behind a clientproto.Server and
// returns its address plus the server (for metrics assertions).
func startServer(t testing.TB) (string, *clientproto.Server) {
	t.Helper()
	net_ := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
	nd, err := engine.New(net_, 0, 1, cluster.NewLookup(1, 1), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = nd.Close()
		_ = net_.Close()
	})
	for i := 0; i < 32; i++ {
		nd.Preload(fmt.Sprintf("k%02d", i), []byte("init"))
	}
	srv := clientproto.NewServer(storeFunc(func(ro bool) kv.Txn { return nd.Begin(ro) }), clientproto.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String(), srv
}

func TestClientReadWriteCommit(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	tx := c.Begin(false)
	v, ok, err := tx.Read("k00")
	if err != nil || !ok || string(v) != "init" {
		t.Fatalf("read: %q %v %v", v, ok, err)
	}
	if err := tx.Write("k00", []byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	ro := c.Begin(true)
	v, ok, err = ro.Read("k00")
	if err != nil || !ok || string(v) != "hello" {
		t.Fatalf("ro read: %q %v %v", v, ok, err)
	}
	if _, ok, err := ro.Read("nope"); err != nil || ok {
		t.Fatalf("missing key: %v %v", ok, err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatalf("ro commit: %v", err)
	}
}

func TestClientErrorMapping(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	ro := c.Begin(true)
	if err := ro.Write("k01", []byte("x")); !errors.Is(err, kv.ErrReadOnlyWrite) {
		t.Fatalf("ro write: %v", err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatalf("ro commit: %v", err)
	}
	// Use-after-finish maps to ErrTxnDone locally.
	if _, _, err := ro.Read("k01"); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("read after commit: %v", err)
	}
	// Abort after commit is a no-op.
	if err := ro.Abort(); err != nil {
		t.Fatalf("abort after commit: %v", err)
	}
}

func TestClientConcurrentTxns(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr, Options{Conns: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%02d", i%8)
			ro := i%3 == 0
			tx := c.Begin(ro)
			for j := 0; j < 4; j++ {
				if _, _, err := tx.Read(key); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !ro {
					if err := tx.Write(key, []byte{byte(i), byte(j)}); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
			}
			if err := tx.Commit(); err != nil && !errors.Is(err, kv.ErrAborted) {
				t.Errorf("commit: %v", err)
			}
		}(i)
	}
	wg.Wait()
}

// TestClientReconnect kills the server-side sessions and verifies the pool
// redials: in-flight transactions fail with ErrUnavailable, new Begins
// succeed.
func TestClientReconnect(t *testing.T) {
	addr, srv := startServer(t)
	c, err := Dial(addr, Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	tx := c.Begin(false)
	if _, _, err := tx.Read("k00"); err != nil {
		t.Fatalf("read: %v", err)
	}

	// Tear down every server session (simulates a server-side drop). The
	// listener stays up, so redial succeeds.
	_ = srv.Close()
	// Wait for the client's demux to notice.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, err := tx.Read("k00"); err != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, _, err := tx.Read("k00"); !errors.Is(err, kv.ErrUnavailable) {
		t.Fatalf("read on dead conn: %v", err)
	}

	// A fresh server on the same address: Begin must redial transparently.
	net_ := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
	nd, err := engine.New(net_, 0, 1, cluster.NewLookup(1, 1), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = nd.Close()
		_ = net_.Close()
	})
	nd.Preload("k00", []byte("fresh"))
	srv2 := clientproto.NewServer(storeFunc(func(ro bool) kv.Txn { return nd.Begin(ro) }), clientproto.ServerOptions{})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv2.Serve(ln) }()
	t.Cleanup(func() { _ = srv2.Close() })

	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		tx2 := c.Begin(true)
		var v []byte
		v, _, lastErr = tx2.Read("k00")
		if lastErr == nil {
			if string(v) != "fresh" {
				t.Fatalf("read after reconnect: %q", v)
			}
			if err := tx2.Commit(); err != nil {
				t.Fatalf("commit after reconnect: %v", err)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("client never reconnected: %v", lastErr)
}

func TestDialCluster(t *testing.T) {
	addr1, _ := startServer(t)
	addr2, _ := startServer(t)
	cl, err := DialCluster([]string{addr1, addr2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	if cl.NumNodes() != 2 {
		t.Fatalf("nodes: %d", cl.NumNodes())
	}
	// Round-robin Begins land on both nodes (separate single-node engines,
	// so each sees its own keyspace).
	for i := 0; i < 4; i++ {
		tx := cl.Begin(true)
		if _, _, err := tx.Read("k00"); err != nil {
			t.Fatalf("read: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", Options{DialTimeout: 200 * time.Millisecond}); !errors.Is(err, kv.ErrUnavailable) {
		t.Fatalf("dial to closed port: %v", err)
	}
}

func TestClientSnapshotRead(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// Empty key set short-circuits without a round trip.
	if res, err := c.SnapshotRead(nil); res != nil || err != nil {
		t.Fatalf("empty snapshot read: %v %v", res, err)
	}
	// Over-limit key sets are rejected client-side.
	if _, err := c.SnapshotRead(make([]string, clientproto.MaxSnapshotKeys+1)); err == nil {
		t.Fatal("over-limit snapshot read accepted")
	}

	res, err := c.SnapshotRead([]string{"k00", "nope", "k01"})
	if err != nil {
		t.Fatalf("snapshot read: %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("snapshot read returned %d results", len(res))
	}
	if !res[0].Exists || string(res[0].Val) != "init" {
		t.Fatalf("k00: %+v", res[0])
	}
	if res[1].Exists {
		t.Fatalf("missing key reported present: %+v", res[1])
	}
	if !res[2].Exists || string(res[2].Val) != "init" {
		t.Fatalf("k01: %+v", res[2])
	}

	// A committed write is visible to a later snapshot read.
	tx := c.Begin(false)
	if _, _, err := tx.Read("k02"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("k02", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err = c.SnapshotRead([]string{"k02"})
	if err != nil || !res[0].Exists || string(res[0].Val) != "fresh" {
		t.Fatalf("snapshot read after commit: %+v %v", res, err)
	}

	if got := c.Metrics().SnapshotReads.Load(); got != 2 {
		t.Fatalf("snapshot-read counter: %d", got)
	}
}

func TestClientMultiRead(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	tx := c.Begin(true)
	mr := tx.(kv.MultiReader)
	if res, err := mr.MultiRead(nil); res != nil || err != nil {
		t.Fatalf("empty multi-read: %v %v", res, err)
	}
	res, err := mr.MultiRead([]string{"k03", "nope", "k04"})
	if err != nil {
		t.Fatalf("multi-read: %v", err)
	}
	if len(res) != 3 || !res[0].Exists || string(res[0].Val) != "init" || res[1].Exists || !res[2].Exists {
		t.Fatalf("multi-read results: %+v", res)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Use-after-finish fails like Read does.
	if _, err := mr.MultiRead([]string{"k03"}); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("multi-read after commit: %v", err)
	}
}

// TestClientBatchCoalescing drives concurrent traffic through a single
// connection with a flush window and checks the send queue actually
// coalesces: every request is accounted to a flush, and flushes carry more
// than one request on average.
func TestClientBatchCoalescing(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr, Options{Conns: 1, batchMaxRequests: 8, batchFlushWindow: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Ping(); err != nil {
				t.Errorf("ping: %v", err)
			}
		}()
	}
	wg.Wait()

	m := c.Metrics()
	if got := m.Requests.Load(); got != n {
		t.Fatalf("requests: %d", got)
	}
	// The sender counts a batch after flushing it, so the last replies can
	// beat the last count.
	for deadline := time.Now().Add(5 * time.Second); m.BatchRequests.Load() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("batched requests: %d of %d", m.BatchRequests.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if rpf := m.RequestsPerFlush(); rpf <= 1.5 {
		t.Fatalf("no coalescing: %.2f requests/flush over %d flushes", rpf, m.BatchFlushes.Load())
	}
}

// TestClientBatchCapOne is the batching boundary: with batchMaxRequests=1
// every request is its own flush, and everything still completes.
func TestClientBatchCapOne(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr, Options{Conns: 1, batchMaxRequests: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Ping(); err != nil {
				t.Errorf("ping: %v", err)
			}
		}()
	}
	wg.Wait()

	m := c.Metrics()
	if m.BatchFlushes.Load() != m.BatchRequests.Load() {
		t.Fatalf("cap-1 batches coalesced: %d flushes for %d requests",
			m.BatchFlushes.Load(), m.BatchRequests.Load())
	}
}

// TestClientOrderingUnderBatching runs concurrent transactions through an
// aggressively batched single connection and verifies no reply is lost or
// misrouted: every transaction reads back exactly what it wrote.
func TestClientOrderingUnderBatching(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr, Options{Conns: 1, batchMaxRequests: 4, batchFlushWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%02d", i%32)
			want := []byte(fmt.Sprintf("w%d", i))
			for attempt := 0; attempt < 20; attempt++ {
				tx := c.Begin(false)
				if _, _, err := tx.Read(key); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if err := tx.Write(key, want); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				v, ok, err := tx.Read(key)
				if err != nil || !ok || string(v) != string(want) {
					t.Errorf("read-own-write: %q ok=%v err=%v", v, ok, err)
					return
				}
				err = tx.Commit()
				if err == nil {
					return
				}
				if !errors.Is(err, kv.ErrAborted) {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestClientDrainOnClose closes the client while requests are in flight and
// queued: every caller must fail fast with kv.ErrUnavailable instead of
// hanging on a never-flushed queue entry.
func TestClientDrainOnClose(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr, Options{Conns: 1, batchMaxRequests: 2, batchFlushWindow: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := c.Ping(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let traffic build up mid-window
	_ = c.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pending requests did not drain on Close")
	}
	close(errs)
	for err := range errs {
		if !errors.Is(err, kv.ErrUnavailable) {
			t.Fatalf("drain error: %v", err)
		}
	}
}

// TestClientRedialUnderLoad bounces the server while concurrent workers
// hammer transactions: in-flight work fails with the kv error vocabulary
// (never hangs, never misroutes), and after the bounce the pool redials and
// makes progress again.
func TestClientRedialUnderLoad(t *testing.T) {
	addr, srv := startServer(t)
	c, err := Dial(addr, Options{Conns: 2, batchFlushWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	stop := make(chan struct{})
	var after atomic.Uint64 // successful txns after the bounce
	bounced := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%02d", i%8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := c.Begin(i%2 == 0)
				_, _, err := tx.Read(key)
				if err == nil {
					err = tx.Commit()
				}
				switch {
				case err == nil:
					select {
					case <-bounced:
						after.Add(1)
					default:
					}
				case errors.Is(err, kv.ErrUnavailable),
					errors.Is(err, kv.ErrAborted),
					errors.Is(err, kv.ErrTxnDone):
					// Expected during and right after the bounce.
				default:
					t.Errorf("unexpected error under redial: %v", err)
					return
				}
			}
		}(i)
	}

	time.Sleep(20 * time.Millisecond)
	_ = srv.Close() // kills the listener and every session

	// Fresh server on the same address; the pool must redial into it.
	net_ := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
	nd, err := engine.New(net_, 0, 1, cluster.NewLookup(1, 1), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = nd.Close()
		_ = net_.Close()
	})
	for i := 0; i < 8; i++ {
		nd.Preload(fmt.Sprintf("k%02d", i), []byte("back"))
	}
	srv2 := clientproto.NewServer(storeFunc(func(ro bool) kv.Txn { return nd.Begin(ro) }), clientproto.ServerOptions{})
	var ln net.Listener
	for attempt := 0; attempt < 100; attempt++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	go func() { _ = srv2.Serve(ln) }()
	t.Cleanup(func() { _ = srv2.Close() })
	close(bounced)

	deadline := time.Now().Add(10 * time.Second)
	for after.Load() < 8 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := after.Load(); got < 8 {
		t.Fatalf("only %d transactions succeeded after the bounce", got)
	}
}

// gatedStore serves transactions whose Write parks on gate (when non-nil) or
// fails with writeErr, and counts how each transaction ended.
type gatedStore struct {
	inner            kv.Store
	gate             chan struct{}
	writeErr         error
	commits, aborts  atomic.Int64
	writesInProgress atomic.Int64
}

type gatedTxn struct {
	kv.Txn
	s *gatedStore
}

func (s *gatedStore) Begin(ro bool) kv.Txn { return &gatedTxn{Txn: s.inner.Begin(ro), s: s} }

func (t *gatedTxn) Write(key string, val []byte) error {
	t.s.writesInProgress.Add(1)
	if t.s.gate != nil {
		<-t.s.gate
	}
	if t.s.writeErr != nil {
		return t.s.writeErr
	}
	return t.Txn.Write(key, val)
}

func (t *gatedTxn) Commit() error { t.s.commits.Add(1); return t.Txn.Commit() }
func (t *gatedTxn) Abort() error  { t.s.aborts.Add(1); return t.Txn.Abort() }

func startGatedServer(t *testing.T, gs *gatedStore) (string, *clientproto.Server) {
	t.Helper()
	net_ := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
	nd, err := engine.New(net_, 0, 1, cluster.NewLookup(1, 1), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nd.Preload("k00", []byte("init"))
	gs.inner = storeFunc(func(ro bool) kv.Txn { return nd.Begin(ro) })
	srv := clientproto.NewServer(gs, clientproto.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		_ = srv.Close()
		_ = nd.Close()
		_ = net_.Close()
	})
	return ln.Addr().String(), srv
}

// TestClientWritePipelined pins that Write costs no round trip: it returns
// while the server is still executing it, and the next operation on the
// handle — executed behind it by the server's per-handle FIFO — both collects
// its reply and observes its effect.
func TestClientWritePipelined(t *testing.T) {
	gs := &gatedStore{gate: make(chan struct{})}
	addr, _ := startGatedServer(t, gs)
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	tx := c.Begin(false)
	if err := tx.Write("k00", []byte("piped")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Write returned; the server is provably still inside it.
	for gs.writesInProgress.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gs.gate)
	if v, ok, err := tx.Read("k00"); err != nil || !ok || string(v) != "piped" {
		t.Fatalf("read-your-write behind a pipelined write: %q %v %v", v, ok, err)
	}
	// More writes than one collection window, then commit.
	for i := 0; i < 3*maxPipelinedWrites; i++ {
		if err := tx.Write(fmt.Sprintf("w%03d", i), []byte("x")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	res, err := c.SnapshotRead([]string{"k00", "w000", fmt.Sprintf("w%03d", 3*maxPipelinedWrites-1)})
	if err != nil || string(res[0].Val) != "piped" || !res[1].Exists || !res[2].Exists {
		t.Fatalf("after commit: %+v %v", res, err)
	}
}

// TestClientWriteErrors pins where a Write's errors surface: what the client
// can know fails in Write itself, without a request; what only the server
// knows fails at the collecting call — and a Commit behind a refused write
// returns that write's error, the server having aborted the transaction
// instead of committing without it, for one request and no extra Abort.
func TestClientWriteErrors(t *testing.T) {
	gs := &gatedStore{writeErr: errors.New("disk on fire")}
	addr, srv := startGatedServer(t, gs)
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	ro := c.Begin(true)
	tx := c.Begin(false)
	reqs := c.Metrics().Requests.Load()
	if err := ro.Write("k00", []byte("x")); !errors.Is(err, kv.ErrReadOnlyWrite) {
		t.Fatalf("read-only write: %v", err)
	}
	if err := tx.Write("k00", make([]byte, clientproto.MaxFrame)); err == nil {
		t.Fatal("oversized write accepted")
	}
	if got := c.Metrics().Requests.Load(); got != reqs {
		t.Fatalf("client-side write failures issued %d requests", got-reqs)
	}
	_ = ro.Abort()

	if err := tx.Write("k00", []byte("refused")); err != nil {
		t.Fatalf("server-side failure surfaced at Write: %v", err)
	}
	served := srv.Metrics().Requests.Load()
	err = tx.Commit()
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("commit after a refused write: %v", err)
	}
	// The Write may still have been in flight when served was sampled.
	if got := srv.Metrics().Requests.Load() - served; got > 2 {
		t.Fatalf("commit after a refused write cost %d requests, want the Commit alone", got)
	}
	if err := tx.Write("k00", []byte("late")); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("write after commit: %v", err)
	}
	if gs.commits.Load() != 0 || gs.aborts.Load() != 2 {
		t.Fatalf("server saw %d commits, %d aborts; want 0 and 2", gs.commits.Load(), gs.aborts.Load())
	}
	if res, err := c.SnapshotRead([]string{"k00"}); err != nil || string(res[0].Val) != "init" {
		t.Fatalf("k00 after the aborted commit: %+v %v", res, err)
	}
}

// TestClientCommitPipelined pins that Commit costs one round trip: it is on
// the wire while the server is still executing the Write before it — the
// server has read both requests and entered neither Commit nor Abort — and it
// succeeds once the Write does.
func TestClientCommitPipelined(t *testing.T) {
	gs := &gatedStore{gate: make(chan struct{})}
	addr, srv := startGatedServer(t, gs)
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	release := sync.OnceFunc(func() { close(gs.gate) })
	defer release() // a failure below must not leave the server's handler parked

	tx := c.Begin(false)
	served := srv.Metrics().Requests.Load()
	if err := tx.Write("k00", []byte("piped")); err != nil {
		t.Fatalf("write: %v", err)
	}
	committed := make(chan error, 1)
	go func() { committed <- tx.Commit() }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Requests.Load() < served+2 || gs.writesInProgress.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server read %d requests with the write parked; Commit is waiting for the Write's reply",
				srv.Metrics().Requests.Load()-served)
		}
		time.Sleep(time.Millisecond)
	}
	if n := gs.commits.Load() + gs.aborts.Load(); n != 0 {
		t.Fatalf("server ended the transaction (%d) ahead of its parked write", n)
	}
	release()
	if err := <-committed; err != nil {
		t.Fatalf("commit: %v", err)
	}
	if res, err := c.SnapshotRead([]string{"k00"}); err != nil || string(res[0].Val) != "piped" {
		t.Fatalf("after commit: %+v %v", res, err)
	}
}
