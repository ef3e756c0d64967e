package clientproto

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/engine"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/wire"
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

// read1 reads one key in txn and returns its value, failing the test on
// anything but a one-value reply.
func (tc *testConn) read1(txn uint64, key string, writes ...wire.KV) kv.ReadResult {
	tc.t.Helper()
	rep := tc.roundTrip(Request{Op: OpRead, Txn: txn, Keys: []string{key}, Writes: writes})
	if rep.Kind != ReplyValues || len(rep.Vals) != 1 {
		tc.t.Fatalf("read %s: %+v", key, rep)
	}
	return rep.Vals[0]
}

func TestServerBasicOps(t *testing.T) {
	_, addr := newTestServer(t)
	tc := dialTest(t, addr)

	// Ping.
	if rep := tc.roundTrip(Request{Op: OpPing}); rep.Kind != ReplyOK {
		t.Fatalf("ping: %+v", rep)
	}
	// Update txn: a read of two keys, then a commit carrying the write.
	txn := tc.begin(false)
	rep := tc.roundTrip(Request{Op: OpRead, Txn: txn, Keys: []string{"k00", "k01"}})
	if rep.Kind != ReplyValues || len(rep.Vals) != 2 || !rep.Vals[0].Exists || string(rep.Vals[0].Val) != "init" {
		t.Fatalf("read: %+v", rep)
	}
	if rep := tc.roundTrip(Request{Op: OpCommit, Txn: txn, Writes: []wire.KV{{Key: "k00", Val: []byte("v1")}}}); rep.Kind != ReplyOK {
		t.Fatalf("commit: %+v", rep)
	}
	// RO txn observes the write.
	ro := tc.begin(true)
	if v := tc.read1(ro, "k00"); string(v.Val) != "v1" {
		t.Fatalf("ro read: %+v", v)
	}
	if rep := tc.roundTrip(Request{Op: OpCommit, Txn: ro}); rep.Kind != ReplyOK {
		t.Fatalf("ro commit: %+v", rep)
	}
	// A read carrying writes applies them first: the transaction reads its
	// own write, and a read of no keys only applies.
	txn = tc.begin(false)
	if v := tc.read1(txn, "k01", wire.KV{Key: "k01", Val: []byte("mine")}); string(v.Val) != "mine" {
		t.Fatalf("read-your-write: %+v", v)
	}
	if rep := tc.roundTrip(Request{Op: OpRead, Txn: txn, Writes: []wire.KV{{Key: "k02", Val: []byte("w2")}}}); rep.Kind != ReplyValues || len(rep.Vals) != 0 {
		t.Fatalf("keyless read: %+v", rep)
	}
	if rep := tc.roundTrip(Request{Op: OpCommit, Txn: txn}); rep.Kind != ReplyOK {
		t.Fatalf("commit: %+v", rep)
	}
	ro = tc.begin(true)
	rep = tc.roundTrip(Request{Op: OpRead, Txn: ro, Keys: []string{"k01", "k02"}})
	if rep.Kind != ReplyValues || string(rep.Vals[0].Val) != "mine" || string(rep.Vals[1].Val) != "w2" {
		t.Fatalf("ro read of the carried writes: %+v", rep)
	}
}

func TestServerTypedErrors(t *testing.T) {
	_, addr := newTestServer(t)
	tc := dialTest(t, addr)

	// A write carried by a read of a read-only txn is refused, and the read
	// fails with the write's error.
	ro := tc.begin(true)
	x := []wire.KV{{Key: "k01", Val: []byte("x")}}
	if rep := tc.roundTrip(Request{Op: OpRead, Txn: ro, Keys: []string{"k01"}, Writes: x}); rep.Kind != ReplyErr || rep.Code != CodeReadOnlyWrite {
		t.Fatalf("ro write: %+v", rep)
	}
	// The refusal aborted the transaction: it can never commit without the
	// write.
	if rep := tc.roundTrip(Request{Op: OpCommit, Txn: ro}); rep.Kind != ReplyErr || rep.Code != CodeTxnDone {
		t.Fatalf("commit after a refused write: %+v", rep)
	}
	// Commit is terminal either way: a second one finds the handle gone.
	if rep := tc.roundTrip(Request{Op: OpCommit, Txn: ro}); rep.Kind != ReplyErr || rep.Code != CodeUnknownTxn {
		t.Fatalf("double commit: %+v", rep)
	}
	// Unknown handle, with and without writes.
	if rep := tc.roundTrip(Request{Op: OpRead, Txn: 999, Keys: []string{"k01"}}); rep.Kind != ReplyErr || rep.Code != CodeUnknownTxn {
		t.Fatalf("unknown txn: %+v", rep)
	}
	for _, op := range []Op{OpRead, OpCommit} {
		if rep := tc.roundTrip(Request{Op: op, Txn: 999, Writes: x}); rep.Kind != ReplyErr || rep.Code != CodeUnknownTxn {
			t.Fatalf("%v carrying writes on an unknown txn: %+v", op, rep)
		}
	}
	// A commit that carries a refused write aborts and answers the write's
	// error; a handle nothing was refused on still commits, and Abort after
	// a refused write is just an abort.
	refusedCommit := tc.begin(true)
	if rep := tc.roundTrip(Request{Op: OpCommit, Txn: refusedCommit, Writes: x}); rep.Kind != ReplyErr || rep.Code != CodeReadOnlyWrite {
		t.Fatalf("commit carrying a refused write: %+v", rep)
	}
	clean := tc.begin(true)
	if rep := tc.roundTrip(Request{Op: OpCommit, Txn: clean}); rep.Kind != ReplyOK {
		t.Fatalf("ro commit: %+v", rep)
	}
	refused := tc.begin(true)
	if rep := tc.roundTrip(Request{Op: OpRead, Txn: refused, Writes: x}); rep.Kind != ReplyErr {
		t.Fatalf("ro write: %+v", rep)
	}
	if rep := tc.roundTrip(Request{Op: OpAbort, Txn: refused}); rep.Kind != ReplyOK {
		t.Fatalf("abort after a refused write: %+v", rep)
	}
}

// TestServerRetiredWriteTag sends a frame with the retired single-write tag,
// as a client of an older build would: it is answered CodeBadRequest, never
// decoded as another op.
func TestServerRetiredWriteTag(t *testing.T) {
	_, addr := newTestServer(t)
	tc := dialTest(t, addr)
	txn := tc.begin(false)
	body := []byte{byte(OpWrite), 2}
	body = binary.AppendUvarint(body, txn)
	body = wire.AppendString(body, "k00")
	body = wire.AppendBytes(body, []byte("old"))
	if err := writeFrame(tc.bw, body); err != nil {
		t.Fatal(err)
	}
	_ = tc.bw.Flush()
	rep, err := ReadReply(tc.br)
	if err != nil {
		t.Fatalf("expected bad-request reply, got read error %v", err)
	}
	if rep.Kind != ReplyErr || rep.Code != CodeBadRequest {
		t.Fatalf("retired write tag: %+v", rep)
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
	ro.read1(roTxn, "k02")
	// Vanish without commit: the R entry for k02 must be cleaned up.
	_ = ro.c.Close()
	waitCond(t, func() bool { return srv.Metrics().DisconnectAborts.Load() >= 1 })

	w := dialTest(t, addr)
	txn := w.begin(false)
	w.read1(txn, "k02")
	done := make(chan Reply, 1)
	go func() {
		done <- w.roundTrip(Request{Op: OpCommit, Txn: txn, Writes: []wire.KV{{Key: "k02", Val: []byte("after")}}})
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
			var writes []wire.KV
			for j := 0; j < 4; j++ {
				if rep, ok = d.call(t, Request{Op: OpRead, Txn: txn, Keys: []string{key}, Writes: writes}); !ok || rep.Kind != ReplyValues {
					t.Errorf("read: %+v ok=%v", rep, ok)
					return
				}
				if !ro {
					writes = []wire.KV{{Key: key, Val: []byte{byte(i), byte(j)}}}
				}
			}
			rep, ok = d.call(t, Request{Op: OpCommit, Txn: txn, Writes: writes})
			if !ok || (rep.Kind != ReplyOK && !(rep.Kind == ReplyErr && rep.Code == CodeAborted)) {
				t.Errorf("commit: %+v ok=%v", rep, ok)
			}
		}(i)
	}
	wg.Wait()
}

// TestServerSameHandlePipelineOrder pipelines READ, READ, COMMIT on one
// handle without awaiting replies, each carrying a write of the same key:
// the protocol contract is arrival-order execution per handle, so all three
// must succeed, the second read must see the first write, and the commit's
// write must be the committed value (a reordered COMMIT would orphan the
// reads as unknown-txn).
func TestServerSameHandlePipelineOrder(t *testing.T) {
	_, addr := newTestServer(t)
	for round := 0; round < 20; round++ {
		tc := dialTest(t, addr)
		txn := tc.begin(false)
		reqs := []Request{
			{Op: OpRead, ReqID: 101, Txn: txn, Writes: []wire.KV{{Key: "k03", Val: []byte("first")}}},
			{Op: OpRead, ReqID: 102, Txn: txn, Keys: []string{"k03"}, Writes: []wire.KV{{Key: "k04", Val: []byte("x")}}},
			{Op: OpCommit, ReqID: 103, Txn: txn, Writes: []wire.KV{{Key: "k03", Val: []byte("second")}}},
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
		if rep := got[101]; rep.Kind != ReplyValues {
			t.Fatalf("round %d: first read: %+v", round, rep)
		}
		if rep := got[102]; rep.Kind != ReplyValues || len(rep.Vals) != 1 || string(rep.Vals[0].Val) != "first" {
			t.Fatalf("round %d: second read did not see the first write: %+v", round, rep)
		}
		if rep := got[103]; rep.Kind != ReplyOK {
			t.Fatalf("round %d: commit: %+v", round, rep)
		}
		ro := tc.begin(true)
		if v := tc.read1(ro, "k03"); string(v.Val) != "second" {
			t.Fatalf("round %d: committed value %q", round, v.Val)
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
				if rep, ok = d.call(t, Request{Op: OpRead, Txn: txn, Keys: []string{key}}); !ok || rep.Kind != ReplyValues {
					t.Errorf("read: %+v ok=%v", rep, ok)
					return
				}
				if i%5 == 0 && round == 3 {
					// Vanish mid-transaction: the server must abort it.
					_ = c.Close()
					return
				}
				var writes []wire.KV
				if !ro {
					writes = []wire.KV{{Key: key, Val: []byte{byte(i)}}}
				}
				rep, ok = d.call(t, Request{Op: OpCommit, Txn: txn, Writes: writes})
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

// parkedTxn is a kv.Txn whose Commit parks until release is closed, as an
// engine commit parks until its external commit.
type parkedTxn struct{ release <-chan struct{} }

func (p parkedTxn) Read(string) ([]byte, bool, error) { return nil, false, nil }
func (p parkedTxn) Write(string, []byte) error        { return nil }
func (p parkedTxn) Commit() error                     { <-p.release; return nil }
func (p parkedTxn) Abort() error                      { return nil }

// TestServerCountsSpills parks more Commits than saturationSlots behind an
// engine that does not answer: every request that starts with
// saturationSlots or more handlers running is a spill. Once the handlers
// drain, sequential requests spill no more.
func TestServerCountsSpills(t *testing.T) {
	release := make(chan struct{})
	srv := NewServer(storeFunc(func(bool) kv.Txn { return parkedTxn{release} }), ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unpark) // before Close, which waits for the handlers
	tc := dialTest(t, ln.Addr().String())

	slots := saturationSlots()
	n := slots + 8
	txns := make([]uint64, n)
	for i := range txns {
		txns[i] = tc.begin(false)
	}
	if s := srv.Metrics().Spills.Load(); s != 0 {
		t.Fatalf("%d sequential begins spilled %d times", n, s)
	}
	for i, txn := range txns {
		if err := WriteRequest(tc.bw, &Request{Op: OpCommit, ReqID: uint64(1000 + i), Txn: txn}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return srv.running.Load() == int64(n) })
	// A begin handler may still be returning when the first commits start.
	if s := srv.Metrics().Spills.Load(); s < uint64(n-slots) || s > uint64(n) {
		t.Fatalf("%d parked commits over %d slots spilled %d times, want %d..%d", n, slots, s, n-slots, n)
	}

	unpark()
	for i := 0; i < n; i++ {
		rep, err := ReadReply(tc.br)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kind != ReplyOK {
			t.Fatalf("commit %d: %+v", rep.ReqID, rep)
		}
	}
	waitCond(t, func() bool { return srv.running.Load() == 0 })
	spilled := srv.Metrics().Spills.Load()
	for i := 0; i < 2*slots; i++ {
		if rep := tc.roundTrip(Request{Op: OpPing}); rep.Kind != ReplyOK {
			t.Fatalf("ping: %+v", rep)
		}
	}
	if s := srv.Metrics().Spills.Load(); s != spilled {
		t.Fatalf("%d sequential pings after the drain spilled %d times", 2*slots, s-spilled)
	}
}
