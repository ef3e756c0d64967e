package clientproto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/kv"
)

// ServerOptions wires a Server's observers. The zero value is valid.
type ServerOptions struct {
	// Logf, when non-nil, receives session-level diagnostics (accept and
	// teardown errors). Protocol-level errors are answered in-band, not
	// logged.
	Logf func(format string, args ...any)
	// CommitAck, when non-nil, observes the commit service time of every
	// successful client commit: request dispatched → reply written. The
	// caller typically wires it to the engine's Stage.ClientAck histogram so
	// the client-ack leg rides the same exposition as the protocol stages.
	CommitAck *metrics.Histogram
}

// saturationSlots is the number of concurrently running request handlers
// above which a new request counts as a spill: 8×GOMAXPROCS clamped to
// [32, 256], the size of the transport's inbound dispatcher. It bounds
// nothing — handlers may block indefinitely (a Commit parks until external
// commit), so a hard bound could deadlock the Remove traffic that unblocks
// them.
func saturationSlots() int {
	n := 8 * runtime.GOMAXPROCS(0)
	if n < 32 {
		return 32
	}
	if n > 256 {
		return 256
	}
	return n
}

// Server is the session manager behind sss-server's client port: it accepts
// connections, decodes pipelined binary-protocol requests, serves each on its
// own goroutine (counting those started beyond saturationSlots as spills),
// and multiplexes many interleaved transactions per connection.
//
// Contract kept per session:
//   - Requests on distinct transaction handles run concurrently; requests
//     on the same handle are serialized in arrival order (kv.Txn handles
//     are single-goroutine objects).
//   - Every request is acknowledged — including Write — either with its
//     success reply or with a typed ReplyErr.
//   - A Commit on a handle that had a Write refused aborts the transaction
//     and is answered with that Write's error: a client may pipeline Commit
//     behind its Writes without waiting to learn whether they were accepted.
//   - When the connection drops (EOF, reset, or a failed reply write),
//     every transaction still open on it is aborted, so a vanished client
//     can never leave locks or snapshot-queue entries behind.
type Server struct {
	store kv.Store
	opts  ServerOptions
	stats metrics.ClientNet

	sem chan struct{} // saturationSlots tokens; a full sem makes dispatch count a spill

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	closed   bool

	wg sync.WaitGroup // accept loop + session read loops + handlers
}

// NewServer builds a session manager serving transactions from store.
func NewServer(store kv.Store, opts ServerOptions) *Server {
	return &Server{
		store:    store,
		opts:     opts,
		sem:      make(chan struct{}, saturationSlots()),
		sessions: make(map[*session]struct{}),
	}
}

// Metrics exposes the server's counters.
func (s *Server) Metrics() *metrics.ClientNet { return &s.stats }

// Serve accepts connections on ln until Close. It returns after the accept
// loop stops; sessions drain in the background until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return errors.New("clientproto: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		s.startSession(conn)
	}
}

func (s *Server) startSession(conn net.Conn) {
	sess := &session{
		srv:  s,
		conn: conn,
		bw:   newReplyWriter(conn, &s.stats),
		txns: make(map[uint64]*sessTxn),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.sessions[sess] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.stats.Sessions.Add(1)
	s.stats.ActiveSessions.Add(1)
	go sess.readLoop()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close stops accepting, tears down every live session (aborting its open
// transactions), and waits for all handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, sess := range sessions {
		_ = sess.conn.Close()
	}
	s.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// session is one client connection: a read loop decoding frames, a locked
// reply writer, and the open transaction table.
type session struct {
	srv  *Server
	conn net.Conn
	bw   *replyWriter

	mu     sync.Mutex
	nextID uint64
	txns   map[uint64]*sessTxn
	dead   bool // reply path failed or conn closed: stop writing
}

// sessTxn serializes requests targeting one transaction handle via a FIFO
// ticket chain: the read loop (which sees requests in arrival order) links
// each handle-targeted request behind the previous one's completion
// channel, so pipelined requests on the same handle execute in arrival
// order even though each runs on its own pooled goroutine, while other
// handles proceed concurrently. tail is guarded by session.mu; writeErr, like
// tx, by the handle's FIFO turn.
type sessTxn struct {
	tx       kv.Txn
	tail     chan struct{} // completion of the last enqueued op; nil when idle
	writeErr error         // the first Write the engine refused, for Commit to answer with
}

func (ss *session) readLoop() {
	defer ss.srv.wg.Done()
	defer ss.teardown()
	// Handlers outlive individual requests but not the server: each one
	// registers on srv.wg via dispatch.
	br := newRequestReader(ss.conn)
	for {
		req, err := ReadRequest(br)
		if err != nil {
			// Distinguish a clean disconnect from garbage: decode errors
			// (not I/O errors) are answered before closing, so a confused
			// client sees *why* the server hung up.
			var ne net.Error
			if !errors.Is(err, net.ErrClosed) && !isEOF(err) && !errors.As(err, &ne) {
				ss.srv.stats.ProtocolErrors.Add(1)
				ss.reply(&Reply{Kind: ReplyErr, Code: CodeBadRequest, Msg: err.Error()})
			}
			return
		}
		ss.srv.stats.Requests.Add(1)
		ss.route(req)
	}
}

// route assigns req its execution slot. It runs on the read loop, so the
// per-handle ordering decisions — the txn-table lookup, the removal of
// terminal (Commit/Abort) handles, and the FIFO ticket linking the request
// behind the handle's previous one — are all made in arrival order; only
// the engine call itself runs on the pool.
func (ss *session) route(req Request) {
	switch req.Op {
	case OpRead, OpWrite, OpCommit, OpAbort:
		ss.mu.Lock()
		st, ok := ss.txns[req.Txn]
		var wait, done chan struct{}
		if ok {
			if req.Op == OpCommit || req.Op == OpAbort {
				// The handle is dropped before the engine call: a request
				// arriving after the commit sees unknown-txn, never a
				// half-finished handle.
				delete(ss.txns, req.Txn)
			}
			wait, done = st.tail, make(chan struct{})
			st.tail = done
		}
		ss.mu.Unlock()
		if !ok {
			ss.dispatch(func() {
				ss.replyErr(req.ReqID, CodeUnknownTxn, fmt.Sprintf("no open transaction %d", req.Txn))
			})
			return
		}
		ss.dispatch(func() {
			if wait != nil {
				<-wait
			}
			defer close(done)
			ss.handleTxnOp(req, st)
		})
	default:
		ss.dispatch(func() { ss.handle(req) })
	}
}

// dispatch runs fn on its own goroutine, holding a sem token when one is
// free and counting a spill when none is (see saturationSlots).
func (ss *session) dispatch(fn func()) {
	ss.srv.wg.Add(1)
	held := true
	select {
	case ss.srv.sem <- struct{}{}:
	default:
		held = false
		ss.srv.stats.Spills.Add(1)
	}
	go func() {
		defer ss.srv.wg.Done()
		if held {
			defer func() { <-ss.srv.sem }()
		}
		fn()
	}()
}

// handleTxnOp executes one handle-targeted op. The caller holds the
// handle's FIFO turn, so st.tx is never entered concurrently.
func (ss *session) handleTxnOp(req Request, st *sessTxn) {
	tx := st.tx
	switch req.Op {
	case OpRead:
		val, exists, err := tx.Read(req.Key)
		if err != nil {
			ss.replyKvErr(req.ReqID, err)
			return
		}
		ss.reply(&Reply{Kind: ReplyValue, ReqID: req.ReqID, Exists: exists, Val: val})
	case OpWrite:
		if err := tx.Write(req.Key, req.Val); err != nil {
			if st.writeErr == nil {
				st.writeErr = err
			}
			ss.replyKvErr(req.ReqID, err)
			return
		}
		ss.reply(&Reply{Kind: ReplyOK, ReqID: req.ReqID})
	case OpCommit, OpAbort:
		var err error
		var commitStart time.Time
		switch {
		case req.Op == OpAbort:
			err = tx.Abort()
		case st.writeErr != nil:
			// A write the server refused must not commit without it.
			_ = tx.Abort()
			err = st.writeErr
		default:
			if ss.srv.opts.CommitAck != nil {
				commitStart = time.Now()
			}
			err = tx.Commit()
		}
		if err != nil {
			ss.replyKvErr(req.ReqID, err)
			return
		}
		ss.reply(&Reply{Kind: ReplyOK, ReqID: req.ReqID})
		if !commitStart.IsZero() {
			ss.srv.opts.CommitAck.Observe(time.Since(commitStart))
		}
	}
}

func (ss *session) handle(req Request) {
	switch req.Op {
	case OpPing:
		ss.reply(&Reply{Kind: ReplyOK, ReqID: req.ReqID})
	case OpSnapshotRead:
		ss.handleSnapshotRead(req)
	case OpBegin:
		tx := ss.srv.store.Begin(req.ReadOnly)
		ss.mu.Lock()
		if ss.dead {
			ss.mu.Unlock()
			_ = tx.Abort()
			return
		}
		ss.nextID++
		handle := ss.nextID
		ss.txns[handle] = &sessTxn{tx: tx}
		ss.mu.Unlock()
		ss.reply(&Reply{Kind: ReplyOK, ReqID: req.ReqID, Txn: handle})
	default:
		ss.srv.stats.ProtocolErrors.Add(1)
		ss.replyErr(req.ReqID, CodeBadRequest, fmt.Sprintf("unknown op %d", uint8(req.Op)))
	}
}

// handleSnapshotRead runs one whole read-only transaction — begin, every
// read, finish — inside a single handler, answering with one ReplyValues
// frame. The transaction never touches the session's txn table: it has no
// handle, cannot be targeted by other requests, and needs no disconnect
// bookkeeping (it completes or aborts right here). The engine's read-only
// fan-out and merge semantics are untouched — this removes client↔server
// round trips, not replica round trips.
func (ss *session) handleSnapshotRead(req Request) {
	ss.srv.stats.SnapshotReads.Add(1)
	tx := ss.srv.store.Begin(true)
	vals := make([]kv.ReadResult, len(req.Keys))
	for i, k := range req.Keys {
		v, exists, err := tx.Read(k)
		if err != nil {
			_ = tx.Abort()
			ss.replyKvErr(req.ReqID, err)
			return
		}
		vals[i] = kv.ReadResult{Val: v, Exists: exists}
	}
	if err := tx.Commit(); err != nil {
		ss.replyKvErr(req.ReqID, err)
		return
	}
	ss.reply(&Reply{Kind: ReplyValues, ReqID: req.ReqID, Vals: vals})
}

func (ss *session) replyErr(reqID uint64, code ErrCode, msg string) {
	ss.reply(&Reply{Kind: ReplyErr, ReqID: reqID, Code: code, Msg: msg})
}

// replyKvErr maps an engine error onto the typed wire vocabulary.
func (ss *session) replyKvErr(reqID uint64, err error) {
	code := CodeInternal
	switch {
	case errors.Is(err, kv.ErrAborted):
		code = CodeAborted
	case errors.Is(err, kv.ErrReadOnlyWrite):
		code = CodeReadOnlyWrite
	case errors.Is(err, kv.ErrTxnDone):
		code = CodeTxnDone
	case errors.Is(err, kv.ErrUnavailable):
		code = CodeUnavailable
	}
	ss.replyErr(reqID, code, err.Error())
}

// reply writes rep; a write failure (client gone, full buffers) marks the
// session dead and closes the connection, which unblocks the read loop and
// triggers teardown — reply errors are never silently swallowed.
func (ss *session) reply(rep *Reply) {
	ss.mu.Lock()
	if ss.dead {
		ss.mu.Unlock()
		return
	}
	ss.mu.Unlock()
	if err := ss.bw.write(rep); err != nil {
		ss.srv.stats.WriteErrors.Add(1)
		ss.mu.Lock()
		ss.dead = true
		ss.mu.Unlock()
		_ = ss.conn.Close()
	}
}

// teardown runs when the read loop exits: it closes the connection,
// unregisters the session, and aborts every transaction still open —
// in-flight handlers finish their engine call first (per-txn mutex), then
// the abort observes kv.ErrTxnDone or succeeds.
func (ss *session) teardown() {
	_ = ss.conn.Close()
	ss.srv.mu.Lock()
	delete(ss.srv.sessions, ss)
	ss.srv.mu.Unlock()
	ss.srv.stats.ActiveSessions.Add(-1)

	ss.mu.Lock()
	ss.dead = true
	type openTxn struct {
		tx   kv.Txn
		wait chan struct{}
	}
	open := make([]openTxn, 0, len(ss.txns))
	for _, st := range ss.txns {
		open = append(open, openTxn{tx: st.tx, wait: st.tail})
	}
	ss.txns = make(map[uint64]*sessTxn)
	ss.mu.Unlock()
	for _, ot := range open {
		ot := ot
		// Each abort chains behind the handle's last in-flight op (its FIFO
		// ticket); run under the server waitgroup so Close still observes
		// completion.
		ss.srv.wg.Add(1)
		go func() {
			defer ss.srv.wg.Done()
			if ot.wait != nil {
				<-ot.wait
			}
			_ = ot.tx.Abort()
			ss.srv.stats.DisconnectAborts.Add(1)
		}()
	}
	if ss.srv.opts.Logf != nil {
		ss.srv.opts.Logf("clientproto: session %s closed (%d open txns aborted)",
			ss.conn.RemoteAddr(), len(open))
	}
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// replyWriter serializes reply frames from concurrent handlers onto one
// buffered connection writer, coalescing flushes: a writer that can see
// another handler already waiting for the lock skips its own flush — the
// later writer's flush carries both frames. An uncontended reply still
// flushes immediately, so coalescing adds no latency on an idle session
// (the same natural-batching contract as the transport outq).
type replyWriter struct {
	mu      sync.Mutex
	waiters atomic.Int32
	bw      *bufio.Writer
	stats   *metrics.ClientNet
}

func newReplyWriter(conn net.Conn, stats *metrics.ClientNet) *replyWriter {
	return &replyWriter{bw: bufio.NewWriterSize(conn, 64<<10), stats: stats}
}

func (w *replyWriter) write(rep *Reply) error {
	w.waiters.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := WriteReply(w.bw, rep); err != nil {
		w.waiters.Add(-1)
		return err
	}
	w.stats.BatchRequests.Add(1)
	if w.waiters.Add(-1) > 0 {
		// Another handler is queued on the lock: it will write its frame
		// and flush, carrying ours. The last writer always sees zero
		// waiters and flushes, so no frame is ever stranded in the buffer.
		return nil
	}
	w.stats.BatchFlushes.Add(1)
	return w.bw.Flush()
}

func newRequestReader(conn net.Conn) *bufio.Reader {
	return bufio.NewReaderSize(conn, 64<<10)
}
