package clientproto

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/engine"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/kv"
)

// storeFunc adapts an engine node to kv.Store.
type storeFunc func(readOnly bool) kv.Txn

func (f storeFunc) Begin(readOnly bool) kv.Txn { return f(readOnly) }

// newTestServer boots a single-node SSS engine behind a Server on a
// loopback listener and returns its address.
func newTestServer(t *testing.T) (*Server, string) {
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
	for i := 0; i < 64; i++ {
		nd.Preload(fmt.Sprintf("k%02d", i), []byte("init"))
	}
	srv := NewServer(storeFunc(func(ro bool) kv.Txn { return nd.Begin(ro) }), ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, ln.Addr().String()
}

// testConn is a minimal synchronous protocol driver for one connection.
type testConn struct {
	t    *testing.T
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	next uint64
}

func dialTest(t *testing.T, addr string) *testConn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return &testConn{t: t, c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
}

func (tc *testConn) roundTrip(req Request) Reply {
	tc.t.Helper()
	tc.next++
	req.ReqID = tc.next
	if err := WriteRequest(tc.bw, &req); err != nil {
		tc.t.Fatalf("write %v: %v", req.Op, err)
	}
	if err := tc.bw.Flush(); err != nil {
		tc.t.Fatalf("flush: %v", err)
	}
	rep, err := ReadReply(tc.br)
	if err != nil {
		tc.t.Fatalf("read reply for %v: %v", req.Op, err)
	}
	if rep.ReqID != req.ReqID {
		tc.t.Fatalf("reply reqID %d for request %d (synchronous driver)", rep.ReqID, req.ReqID)
	}
	return rep
}

func (tc *testConn) begin(ro bool) uint64 {
	rep := tc.roundTrip(Request{Op: OpBegin, ReadOnly: ro})
	if rep.Kind != ReplyOK {
		tc.t.Fatalf("begin: %+v", rep)
	}
	return rep.Txn
}

func TestServerBasicOps(t *testing.T) {
	_, addr := newTestServer(t)
	tc := dialTest(t, addr)

	// Ping.
	if rep := tc.roundTrip(Request{Op: OpPing}); rep.Kind != ReplyOK {
		t.Fatalf("ping: %+v", rep)
	}
	// Update txn: read, write (acknowledged!), commit.
	txn := tc.begin(false)
	if rep := tc.roundTrip(Request{Op: OpRead, Txn: txn, Key: "k00"}); rep.Kind != ReplyValue || !rep.Exists || string(rep.Val) != "init" {
		t.Fatalf("read: %+v", rep)
	}
	if rep := tc.roundTrip(Request{Op: OpWrite, Txn: txn, Key: "k00", Val: []byte("v1")}); rep.Kind != ReplyOK {
		t.Fatalf("write not acknowledged: %+v", rep)
	}
	if rep := tc.roundTrip(Request{Op: OpCommit, Txn: txn}); rep.Kind != ReplyOK {
		t.Fatalf("commit: %+v", rep)
	}
	// RO txn observes the write.
	ro := tc.begin(true)
	if rep := tc.roundTrip(Request{Op: OpRead, Txn: ro, Key: "k00"}); rep.Kind != ReplyValue || string(rep.Val) != "v1" {
		t.Fatalf("ro read: %+v", rep)
	}
	if rep := tc.roundTrip(Request{Op: OpCommit, Txn: ro}); rep.Kind != ReplyOK {
		t.Fatalf("ro commit: %+v", rep)
	}
}

func TestServerTypedErrors(t *testing.T) {
	_, addr := newTestServer(t)
	tc := dialTest(t, addr)

	// Write in a read-only txn.
	ro := tc.begin(true)
	if rep := tc.roundTrip(Request{Op: OpWrite, Txn: ro, Key: "k01", Val: []byte("x")}); rep.Kind != ReplyErr || rep.Code != CodeReadOnlyWrite {
		t.Fatalf("ro write: %+v", rep)
	}
	// Unknown handle.
	if rep := tc.roundTrip(Request{Op: OpRead, Txn: 999, Key: "k01"}); rep.Kind != ReplyErr || rep.Code != CodeUnknownTxn {
		t.Fatalf("unknown txn: %+v", rep)
	}
	// Commit after a refused write on the handle repeats that write's error
	// instead of committing without it. (Until client.Txn.Commit was pipelined
	// behind its Writes this expected ReplyOK here: the client collected every
	// Write reply first and never sent the Commit. Now the Commit is already
	// on the wire when the refusal arrives, so the server must hold the line.)
	if rep := tc.roundTrip(Request{Op: OpCommit, Txn: ro}); rep.Kind != ReplyErr || rep.Code != CodeReadOnlyWrite {
		t.Fatalf("commit after a refused write: %+v", rep)
	}
	// Commit is terminal either way: a second one finds the handle gone.
	if rep := tc.roundTrip(Request{Op: OpCommit, Txn: ro}); rep.Kind != ReplyErr || rep.Code != CodeUnknownTxn {
		t.Fatalf("double commit: %+v", rep)
	}
	// A handle nothing was refused on still commits, and Abort after a
	// refused write is just an abort.
	clean := tc.begin(true)
	if rep := tc.roundTrip(Request{Op: OpCommit, Txn: clean}); rep.Kind != ReplyOK {
		t.Fatalf("ro commit: %+v", rep)
	}
	refused := tc.begin(true)
	if rep := tc.roundTrip(Request{Op: OpWrite, Txn: refused, Key: "k01", Val: []byte("x")}); rep.Kind != ReplyErr {
		t.Fatalf("ro write: %+v", rep)
	}
	if rep := tc.roundTrip(Request{Op: OpAbort, Txn: refused}); rep.Kind != ReplyOK {
		t.Fatalf("abort after a refused write: %+v", rep)
	}
}

// TestServerGarbageFrame sends a malformed frame and expects a typed
// bad-request reply before the server hangs up.
func TestServerGarbageFrame(t *testing.T) {
	srv, addr := newTestServer(t)
	tc := dialTest(t, addr)
	// A framed body with an unknown op.
	if err := writeFrame(tc.bw, []byte{0xFF, 0x01}); err != nil {
		t.Fatal(err)
	}
	_ = tc.bw.Flush()
	rep, err := ReadReply(tc.br)
	if err != nil {
		t.Fatalf("expected bad-request reply, got read error %v", err)
	}
	if rep.Kind != ReplyErr || rep.Code != CodeBadRequest {
		t.Fatalf("garbage frame: %+v", rep)
	}
	// The connection is then closed.
	if _, err := ReadReply(tc.br); err == nil {
		t.Fatal("connection survived garbage frame")
	}
	waitCond(t, func() bool { return srv.Metrics().ProtocolErrors.Load() >= 1 })
}

// TestServerDisconnectAbortsSessions drops a connection with an open
// read-only transaction parked in a snapshot queue and verifies the server
// aborts it: a subsequent writer to the same key must not be blocked by the
// vanished reader's queue entry.
func TestServerDisconnectAbortsSessions(t *testing.T) {
	srv, addr := newTestServer(t)

	ro := dialTest(t, addr)
	roTxn := ro.begin(true)
	if rep := ro.roundTrip(Request{Op: OpRead, Txn: roTxn, Key: "k02"}); rep.Kind != ReplyValue {
		t.Fatalf("ro read: %+v", rep)
	}
	// Vanish without commit: the R entry for k02 must be cleaned up.
	_ = ro.c.Close()
	waitCond(t, func() bool { return srv.Metrics().DisconnectAborts.Load() >= 1 })

	w := dialTest(t, addr)
	txn := w.begin(false)
	if rep := w.roundTrip(Request{Op: OpRead, Txn: txn, Key: "k02"}); rep.Kind != ReplyValue {
		t.Fatalf("read: %+v", rep)
	}
	if rep := w.roundTrip(Request{Op: OpWrite, Txn: txn, Key: "k02", Val: []byte("after")}); rep.Kind != ReplyOK {
		t.Fatalf("write: %+v", rep)
	}
	done := make(chan Reply, 1)
	go func() {
		done <- w.roundTrip(Request{Op: OpCommit, Txn: txn})
	}()
	select {
	case rep := <-done:
		if rep.Kind != ReplyOK {
			t.Fatalf("commit after reader disconnect: %+v", rep)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commit blocked behind a disconnected reader's queue entry")
	}
}

// pipeDriver issues pipelined requests over one connection, matching
// replies to callers by reqID (registered before the frame is written, so a
// fast reply can never race its own registration).
type pipeDriver struct {
	bw *bufio.Writer

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan Reply
	err     error
}

func newPipeDriver(c net.Conn) *pipeDriver {
	d := &pipeDriver{bw: bufio.NewWriter(c), pending: make(map[uint64]chan Reply)}
	br := bufio.NewReader(c)
	go func() {
		for {
			rep, err := ReadReply(br)
			if err != nil {
				d.mu.Lock()
				d.err = err
				for id, ch := range d.pending {
					close(ch)
					delete(d.pending, id)
				}
				d.mu.Unlock()
				return
			}
			d.mu.Lock()
			ch := d.pending[rep.ReqID]
			delete(d.pending, rep.ReqID)
			d.mu.Unlock()
			if ch != nil {
				ch <- rep
			}
		}
	}()
	return d
}

func (d *pipeDriver) call(t *testing.T, req Request) (Reply, bool) {
	t.Helper()
	ch := make(chan Reply, 1)
	d.mu.Lock()
	if d.err != nil {
		d.mu.Unlock()
		return Reply{}, false
	}
	d.nextID++
	req.ReqID = d.nextID
	d.pending[req.ReqID] = ch
	err := WriteRequest(d.bw, &req)
	if err == nil {
		err = d.bw.Flush()
	}
	if err != nil {
		delete(d.pending, req.ReqID)
		d.err = err
		d.mu.Unlock()
		return Reply{}, false
	}
	d.mu.Unlock()
	select {
	case rep, ok := <-ch:
		return rep, ok
	case <-time.After(30 * time.Second):
		t.Errorf("timeout waiting for %v reply", req.Op)
		return Reply{}, false
	}
}

// TestServerPipelinedInterleavedTxns drives many interleaved transactions
// over one multiplexed connection with out-of-order reply matching. Under
// -race this exercises the session manager's shared state: the txn table,
// the reply writer, and the handler pool.
func TestServerPipelinedInterleavedTxns(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	d := newPipeDriver(c)

	const txns = 32
	var wg sync.WaitGroup
	for i := 0; i < txns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%02d", i%16)
			ro := i%3 == 0
			rep, ok := d.call(t, Request{Op: OpBegin, ReadOnly: ro})
			if !ok || rep.Kind != ReplyOK {
				t.Errorf("begin: %+v ok=%v", rep, ok)
				return
			}
			txn := rep.Txn
			for j := 0; j < 4; j++ {
				if rep, ok = d.call(t, Request{Op: OpRead, Txn: txn, Key: key}); !ok || rep.Kind != ReplyValue {
					t.Errorf("read: %+v ok=%v", rep, ok)
					return
				}
				if !ro {
					if rep, ok = d.call(t, Request{Op: OpWrite, Txn: txn, Key: key, Val: []byte{byte(i), byte(j)}}); !ok || rep.Kind != ReplyOK {
						t.Errorf("write: %+v ok=%v", rep, ok)
						return
					}
				}
			}
			rep, ok = d.call(t, Request{Op: OpCommit, Txn: txn})
			if !ok || (rep.Kind != ReplyOK && !(rep.Kind == ReplyErr && rep.Code == CodeAborted)) {
				t.Errorf("commit: %+v ok=%v", rep, ok)
			}
		}(i)
	}
	wg.Wait()
}

// TestServerSameHandlePipelineOrder pipelines WRITE, WRITE, COMMIT on one
// handle without awaiting replies: the protocol contract is arrival-order
// execution per handle, so all three must succeed and the second write must
// be the committed value (a reordered COMMIT would orphan the writes as
// unknown-txn).
func TestServerSameHandlePipelineOrder(t *testing.T) {
	_, addr := newTestServer(t)
	for round := 0; round < 20; round++ {
		tc := dialTest(t, addr)
		txn := tc.begin(false)
		reqs := []Request{
			{Op: OpWrite, ReqID: 101, Txn: txn, Key: "k03", Val: []byte("first")},
			{Op: OpWrite, ReqID: 102, Txn: txn, Key: "k03", Val: []byte("second")},
			{Op: OpCommit, ReqID: 103, Txn: txn},
		}
		for i := range reqs {
			if err := WriteRequest(tc.bw, &reqs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tc.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		got := make(map[uint64]Reply, 3)
		for i := 0; i < 3; i++ {
			rep, err := ReadReply(tc.br)
			if err != nil {
				t.Fatalf("round %d reply %d: %v", round, i, err)
			}
			got[rep.ReqID] = rep
		}
		for _, id := range []uint64{101, 102, 103} {
			if rep := got[id]; rep.Kind != ReplyOK {
				t.Fatalf("round %d: request %d not OK: %+v", round, id, rep)
			}
		}
		ro := tc.begin(true)
		rep := tc.roundTrip(Request{Op: OpRead, Txn: ro, Key: "k03"})
		if rep.Kind != ReplyValue || string(rep.Val) != "second" {
			t.Fatalf("round %d: committed value %q (%+v)", round, rep.Val, rep)
		}
		if rep := tc.roundTrip(Request{Op: OpCommit, Txn: ro}); rep.Kind != ReplyOK {
			t.Fatalf("ro commit: %+v", rep)
		}
		_ = tc.c.Close()
	}
}

// TestServerConcurrentSessions hammers the server from many connections at
// once while some vanish mid-transaction — the -race workout for session
// registration, teardown, and disconnect aborts.
func TestServerConcurrentSessions(t *testing.T) {
	srv, addr := newTestServer(t)
	const conns = 24
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer func() { _ = c.Close() }()
			d := newPipeDriver(c)
			for round := 0; round < 6; round++ {
				ro := (i+round)%2 == 0
				rep, ok := d.call(t, Request{Op: OpBegin, ReadOnly: ro})
				if !ok || rep.Kind != ReplyOK {
					t.Errorf("begin: %+v ok=%v", rep, ok)
					return
				}
				txn := rep.Txn
				key := fmt.Sprintf("k%02d", (i*7+round)%16)
				if rep, ok = d.call(t, Request{Op: OpRead, Txn: txn, Key: key}); !ok || rep.Kind != ReplyValue {
					t.Errorf("read: %+v ok=%v", rep, ok)
					return
				}
				if i%5 == 0 && round == 3 {
					// Vanish mid-transaction: the server must abort it.
					_ = c.Close()
					return
				}
				if !ro {
					if rep, ok = d.call(t, Request{Op: OpWrite, Txn: txn, Key: key, Val: []byte{byte(i)}}); !ok || rep.Kind != ReplyOK {
						t.Errorf("write: %+v ok=%v", rep, ok)
						return
					}
				}
				rep, ok = d.call(t, Request{Op: OpCommit, Txn: txn})
				if !ok || (rep.Kind != ReplyOK && !(rep.Kind == ReplyErr && rep.Code == CodeAborted)) {
					t.Errorf("commit: %+v ok=%v", rep, ok)
				}
			}
		}(i)
	}
	wg.Wait()
	waitCond(t, func() bool { return srv.Metrics().DisconnectAborts.Load() >= 1 })
}

func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}
