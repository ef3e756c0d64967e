// Package client is the Go client library for sss-server's binary client
// protocol. It implements the same kv.Store / kv.Txn vocabulary as the
// embedded engines, over TCP:
//
//	c, err := client.Dial("127.0.0.1:8000", client.Options{})
//	defer c.Close()
//
//	tx := c.Begin(false)
//	v, _, _ := tx.Read("greeting")
//	_ = tx.Write("greeting", append(v, '!'))
//	err = tx.Commit() // returns at external commit, like the embedded API
//
// One Client speaks to one server (one SSS node — clients are co-located
// with a coordinator, as in the paper's system model §II); DialCluster
// spreads transactions round-robin over several nodes. Each Client keeps a
// small pool of connections, pipelines concurrent requests over them
// (replies are matched by request ID), and redials dropped connections on
// next use. A transaction is pinned to the connection it began on — its
// server-side state lives in that session — so a mid-transaction disconnect
// surfaces kv.ErrUnavailable and the server aborts the transaction.
//
// Two mechanisms keep the wire cost of a transaction near its round-trip
// floor. Every connection runs a coalescing send queue (the batchq.Queue
// the node-to-node transport's peer links use): concurrent transactions'
// frames accumulated while the sender was busy go out as one buffered
// write with a single flush (at most 64 frames), observable via Metrics.
// And a whole read-only transaction can be collapsed into one round trip
// with SnapshotRead (kv.SnapshotReader), which begins, reads and finishes
// server-side; within an interactive transaction, Txn.MultiRead
// (kv.MultiReader) pipelines independent read legs the same way.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sss-paper/sss/internal/batchq"
	"github.com/sss-paper/sss/internal/clientproto"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/kv"
)

// Options tunes a Client. The zero value selects defaults.
type Options struct {
	// Conns is the connection-pool size per server (default 2).
	// Transactions are assigned round-robin at Begin.
	Conns int
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds one request/reply round trip (default 60s —
	// generous because Commit legitimately parks until external commit).
	// An expired request marks its transaction broken and its connection
	// suspect; both surface kv.ErrUnavailable.
	RequestTimeout time.Duration
	// batchMaxRequests caps the request frames the per-connection send
	// queue coalesces into one wire flush (64, the transport's MaxBatch;
	// overridable by same-package tests). Concurrent transactions
	// multiplexed on a connection batch naturally: an idle connection
	// flushes a lone request immediately; a busy one amortizes the syscall
	// over whatever accumulated while the sender was writing.
	batchMaxRequests int
	// batchFlushWindow, when positive, makes the sender wait this long for
	// more requests before flushing a batch. Zero — what every caller
	// outside this package's tests gets — flushes immediately.
	batchFlushWindow time.Duration
}

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 2
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.batchMaxRequests <= 0 {
		o.batchMaxRequests = 64
	}
	return o
}

// Client is a connection-pooled handle to one sss-server. It implements
// kv.Store; handles from Begin implement kv.Txn. Safe for concurrent use —
// distinct transactions may run on distinct goroutines (each individual
// kv.Txn stays single-goroutine, per the interface contract).
type Client struct {
	addr  string
	opts  Options
	stats metrics.ClientNet

	mu     sync.Mutex
	slots  []*conn // lazily dialed; nil or dead entries redial on next use
	next   uint64  // round-robin cursor (atomic)
	closed bool
}

var (
	_ kv.Store          = (*Client)(nil)
	_ kv.SnapshotReader = (*Client)(nil)
)

// Dial connects to one server. The first connection is established eagerly
// so misconfiguration fails fast; the rest of the pool dials on demand.
func Dial(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	c.slots = make([]*conn, c.opts.Conns)
	if _, err := c.slot(0); err != nil {
		return nil, err
	}
	return c, nil
}

// Close tears down every pooled connection. Open transactions on them are
// aborted server-side.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	slots := c.slots
	c.slots = nil
	c.mu.Unlock()
	for _, cn := range slots {
		if cn != nil {
			cn.close(kv.ErrUnavailable)
		}
	}
	return nil
}

// Metrics exposes the client's wire counters: connections dialed
// (Sessions), requests issued, send-queue batching (flushes, requests per
// flush, enqueue→flush latency) and snapshot reads. Counters accumulate
// across redials.
func (c *Client) Metrics() *metrics.ClientNet { return &c.stats }

// SnapshotRead runs one complete read-only transaction — begin, read every
// key, finish — as a single request/reply round trip: the transaction
// executes entirely server-side, inheriting SSS's abort-free read-only
// guarantee, and the client pays 1 RTT where the interactive form pays
// 2+len(keys). Results align positionally with keys.
func (c *Client) SnapshotRead(keys []string) ([]kv.ReadResult, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if len(keys) > clientproto.MaxSnapshotKeys {
		return nil, fmt.Errorf("client: snapshot read of %d keys exceeds the %d-key limit", len(keys), clientproto.MaxSnapshotKeys)
	}
	cn, err := c.pick()
	if err != nil {
		return nil, err
	}
	c.stats.SnapshotReads.Add(1)
	rep, err := cn.call(&clientproto.Request{Op: clientproto.OpSnapshotRead, Keys: keys}, c.opts.RequestTimeout)
	if err != nil {
		return nil, err
	}
	if rep.Kind != clientproto.ReplyValues {
		return nil, replyError(rep)
	}
	if len(rep.Vals) != len(keys) {
		return nil, fmt.Errorf("client: snapshot read answered %d values for %d keys", len(rep.Vals), len(keys))
	}
	return rep.Vals, nil
}

// Ping performs one round trip on a pooled connection — the health /
// readiness probe.
func (c *Client) Ping() error {
	cn, err := c.pick()
	if err != nil {
		return err
	}
	rep, err := cn.call(&clientproto.Request{Op: clientproto.OpPing}, c.opts.RequestTimeout)
	if err != nil {
		return err
	}
	if rep.Kind != clientproto.ReplyOK {
		return replyError(rep)
	}
	return nil
}

// Begin implements kv.Store: it opens a transaction on a pooled connection.
// The kv.Store interface cannot surface connection errors from Begin, so a
// failed begin returns a handle whose every method reports the error.
func (c *Client) Begin(readOnly bool) kv.Txn {
	cn, err := c.pick()
	if err != nil {
		return &Txn{err: err}
	}
	rep, err := cn.call(&clientproto.Request{Op: clientproto.OpBegin, ReadOnly: readOnly}, c.opts.RequestTimeout)
	if err != nil {
		return &Txn{err: err}
	}
	if rep.Kind != clientproto.ReplyOK {
		return &Txn{err: replyError(rep)}
	}
	return &Txn{c: c, cn: cn, handle: rep.Txn, readOnly: readOnly}
}

// pick returns a live pooled connection, redialing dead slots.
func (c *Client) pick() (*conn, error) {
	i := int(atomic.AddUint64(&c.next, 1)) % c.opts.Conns
	return c.slot(i)
}

func (c *Client) slot(i int) (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("client: closed: %w", kv.ErrUnavailable)
	}
	if cn := c.slots[i]; cn != nil && !cn.isDead() {
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()

	// Dial outside the lock; only one winner installs per slot.
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %v: %w", c.addr, err, kv.ErrUnavailable)
	}
	cn := newConn(nc, c.opts, &c.stats)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		cn.close(kv.ErrUnavailable)
		return nil, fmt.Errorf("client: closed: %w", kv.ErrUnavailable)
	}
	if cur := c.slots[i]; cur != nil && !cur.isDead() {
		// Lost the redial race; use the winner and drop ours.
		cn.close(kv.ErrUnavailable)
		return cur, nil
	}
	c.slots[i] = cn
	return cn, nil
}

// Txn is a client-side transaction handle. Like every kv.Txn it must be
// driven by a single goroutine.
type Txn struct {
	c        *Client
	cn       *conn
	handle   uint64
	readOnly bool
	err      error // sticky: set by a failed begin or a broken connection
	done     bool
	// writes holds the reply channels of Writes started but not yet
	// collected (see Write).
	writes []chan clientproto.Reply
}

// maxPipelinedWrites bounds the Writes one transaction keeps in flight
// before collecting: each occupies a server handler slot until its turn in
// the handle's FIFO.
const maxPipelinedWrites = 64

var (
	_ kv.Txn         = (*Txn)(nil)
	_ kv.MultiReader = (*Txn)(nil)
)

// Read implements kv.Txn.
func (t *Txn) Read(key string) ([]byte, bool, error) {
	if err := t.usable(); err != nil {
		return nil, false, err
	}
	if err := t.collectWrites(); err != nil {
		return nil, false, err
	}
	rep, err := t.call(&clientproto.Request{Op: clientproto.OpRead, Txn: t.handle, Key: key})
	if err != nil {
		return nil, false, err
	}
	if rep.Kind != clientproto.ReplyValue {
		return nil, false, replyError(rep)
	}
	return rep.Val, rep.Exists, nil
}

// MultiRead implements kv.MultiReader: it issues every read leg before
// awaiting any reply, so independent reads of one transaction pipeline on
// the connection — and, via the send queue, typically share a single wire
// frame — costing ~1 round trip instead of one per key. The server
// serializes same-handle requests in arrival order, so the results are
// exactly those of sequential Reads on the same snapshot.
func (t *Txn) MultiRead(keys []string) ([]kv.ReadResult, error) {
	if err := t.usable(); err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, nil
	}
	if err := t.collectWrites(); err != nil {
		return nil, err
	}
	reqs := make([]clientproto.Request, len(keys))
	chs := make([]chan clientproto.Reply, len(keys))
	for i, k := range keys {
		reqs[i] = clientproto.Request{Op: clientproto.OpRead, Txn: t.handle, Key: k}
		ch, err := t.cn.start(&reqs[i])
		if err != nil {
			t.err = err
			return nil, err
		}
		chs[i] = ch
	}
	out := make([]kv.ReadResult, len(keys))
	for i, ch := range chs {
		rep, err := t.cn.await(ch, t.c.opts.RequestTimeout)
		if err != nil {
			t.err = err
			return nil, err
		}
		if rep.Kind != clientproto.ReplyValue {
			// Later legs' replies, if any, land in their buffered channels
			// and are dropped with them — no goroutine is left waiting.
			return nil, replyError(rep)
		}
		out[i] = kv.ReadResult{Val: rep.Val, Exists: rep.Exists}
	}
	return out, nil
}

// Write implements kv.Txn without a round trip: the request starts on the
// pipelined connection and its reply is collected by the transaction's next
// Read, MultiRead, Commit or Abort — the server executes same-handle
// requests in arrival order, so later operations still observe the write,
// and it refuses to commit a handle on which it refused a Write.
// Everything the client can know is checked here (finished handle, read-only
// handle, frame limit); any other failure of a Write surfaces at the
// collecting call. Oversized payloads must fail alone without being sent: an
// over-limit frame would make the server hang up on the whole multiplexed
// connection, aborting every other transaction pipelined on it.
func (t *Txn) Write(key string, val []byte) error {
	if err := t.usable(); err != nil {
		return err
	}
	if t.readOnly {
		return kv.ErrReadOnlyWrite
	}
	if len(key)+len(val)+64 > clientproto.MaxFrame {
		return fmt.Errorf("client: write of %d bytes exceeds the %d-byte frame limit", len(val), clientproto.MaxFrame)
	}
	if len(t.writes) >= maxPipelinedWrites {
		if err := t.collectWrites(); err != nil {
			return err
		}
	}
	ch, err := t.cn.start(&clientproto.Request{Op: clientproto.OpWrite, Txn: t.handle, Key: key, Val: val})
	if err != nil {
		t.err = err
		return err
	}
	t.writes = append(t.writes, ch)
	return nil
}

// collectWrites awaits the replies of every Write still in flight and
// returns the first failure. Replies behind a failed one land in their
// buffered channels and are dropped with them.
func (t *Txn) collectWrites() error {
	writes := t.writes
	t.writes = nil
	for _, ch := range writes {
		rep, err := t.cn.await(ch, t.c.opts.RequestTimeout)
		if err != nil {
			t.err = err
			return err
		}
		if rep.Kind != clientproto.ReplyOK {
			return replyError(rep)
		}
	}
	return nil
}

// Commit implements kv.Txn. Like the embedded engine, it returns only at
// external commit. The request rides the pipeline behind the Writes still in
// flight instead of waiting a round trip for their acknowledgements: the
// server runs same-handle requests in arrival order, and answers a Commit that
// follows a Write it refused by aborting the transaction and repeating that
// Write's error — so a refused write still never commits without it.
func (t *Txn) Commit() error {
	if err := t.usable(); err != nil {
		return err
	}
	t.done = true
	t.writes = nil // the commit's reply answers for them; theirs land in buffered channels
	rep, err := t.call(&clientproto.Request{Op: clientproto.OpCommit, Txn: t.handle})
	if err != nil {
		return err
	}
	if rep.Kind != clientproto.ReplyOK {
		return replyError(rep)
	}
	return nil
}

// Abort implements kv.Txn. Safe to call after a failed Commit (the server
// then reports the handle unknown, which Abort swallows, matching the
// embedded engines' idempotent Abort).
func (t *Txn) Abort() error {
	if t.err != nil || t.done {
		return nil
	}
	t.done = true
	_ = t.collectWrites() // aborting either way
	rep, err := t.call(&clientproto.Request{Op: clientproto.OpAbort, Txn: t.handle})
	if err != nil {
		return nil // connection gone: the server aborts it for us
	}
	if rep.Kind != clientproto.ReplyOK && rep.Code != clientproto.CodeUnknownTxn {
		return replyError(rep)
	}
	return nil
}

func (t *Txn) usable() error {
	if t.err != nil {
		return t.err
	}
	if t.done {
		return kv.ErrTxnDone
	}
	return nil
}

func (t *Txn) call(req *clientproto.Request) (clientproto.Reply, error) {
	rep, err := t.cn.call(req, t.c.opts.RequestTimeout)
	if err != nil {
		// The session's fate is unknown (or the session is gone): poison
		// the handle. The server aborts the transaction when it notices
		// the dead connection.
		t.err = err
		return clientproto.Reply{}, err
	}
	return rep, nil
}

// replyError maps a typed protocol error onto the kv error vocabulary.
func replyError(rep clientproto.Reply) error {
	if rep.Kind != clientproto.ReplyErr {
		return fmt.Errorf("client: unexpected reply kind %d", rep.Kind)
	}
	switch rep.Code {
	case clientproto.CodeAborted:
		return kv.ErrAborted
	case clientproto.CodeReadOnlyWrite:
		return kv.ErrReadOnlyWrite
	case clientproto.CodeTxnDone, clientproto.CodeUnknownTxn:
		return kv.ErrTxnDone
	case clientproto.CodeUnavailable:
		return kv.ErrUnavailable
	default:
		return fmt.Errorf("client: server error %v: %s", rep.Code, rep.Msg)
	}
}

// conn is one pooled connection: a coalescing send queue drained by a
// sender goroutine, plus a demux goroutine matching pipelined replies to
// waiting callers by request ID.
//
// The send queue is the batchq.Queue the node-to-node transport uses:
// callers push and the sender writes whatever accumulated while it was busy
// as one buffered write with a single flush. An idle connection flushes a
// lone request immediately — coalescing costs nothing without concurrency —
// while concurrent transactions multiplexed on the connection share wire
// frames and syscalls.
type conn struct {
	nc    net.Conn
	bw    *bufio.Writer // owned by the sender goroutine
	opts  Options
	stats *metrics.ClientNet
	q     *batchq.Queue[queuedReq] // pushed and closed under mu

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan clientproto.Reply
	dead    bool
	err     error
}

type queuedReq struct {
	req *clientproto.Request
	at  time.Time
}

func newConn(nc net.Conn, opts Options, stats *metrics.ClientNet) *conn {
	cn := &conn{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		opts:    opts,
		stats:   stats,
		q:       batchq.New[queuedReq](),
		pending: make(map[uint64]chan clientproto.Reply),
	}
	stats.Sessions.Add(1)
	stats.ActiveSessions.Add(1)
	go cn.demux()
	go cn.sender()
	return cn
}

func (cn *conn) isDead() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.dead
}

// close marks the connection dead and fails every pending call with cause —
// including requests still sitting in the send queue, whose callers
// registered in pending before enqueueing. The sender and demux goroutines
// observe the closed connection and exit; redial builds a fresh conn, so a
// replaced slot leaves nothing behind.
func (cn *conn) close(cause error) {
	cn.mu.Lock()
	if cn.dead {
		cn.mu.Unlock()
		return
	}
	cn.dead = true
	cn.err = cause
	pending := cn.pending
	cn.pending = make(map[uint64]chan clientproto.Reply)
	cn.q.Close()
	cn.mu.Unlock()
	cn.stats.ActiveSessions.Add(-1)
	_ = cn.nc.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// demux reads replies and delivers them to registered callers.
func (cn *conn) demux() {
	br := bufio.NewReaderSize(cn.nc, 64<<10)
	for {
		rep, err := clientproto.ReadReply(br)
		if err != nil {
			cn.close(fmt.Errorf("client: connection lost: %v: %w", err, kv.ErrUnavailable))
			return
		}
		cn.mu.Lock()
		ch := cn.pending[rep.ReqID]
		delete(cn.pending, rep.ReqID)
		cn.mu.Unlock()
		if ch != nil {
			ch <- rep
		}
	}
}

// sender drains the queue, coalescing accumulated requests into one
// buffered write + flush per batch.
func (cn *conn) sender() {
	var batch []queuedReq
	for {
		if w := cn.opts.batchFlushWindow; w > 0 {
			cn.q.Wait(nil)
			time.Sleep(w) // accumulate a bigger batch
		}
		var open bool
		batch, open = cn.q.Take(batch[:0], cn.opts.batchMaxRequests)
		if !open {
			// close() already failed the queued callers; don't write into a
			// closed socket.
			return
		}
		var err error
		for i := range batch {
			if err = clientproto.WriteRequest(cn.bw, batch[i].req); err != nil {
				break
			}
		}
		if err == nil {
			err = cn.bw.Flush()
		}
		if err != nil {
			cn.close(fmt.Errorf("client: write failed: %v: %w", err, kv.ErrUnavailable))
			return
		}
		cn.stats.BatchFlushes.Add(1)
		cn.stats.BatchRequests.Add(uint64(len(batch)))
		cn.stats.BatchFlushLatency.Observe(time.Since(batch[0].at))
		clear(batch) // don't retain written requests
	}
}

// start registers req and enqueues it for the sender, returning the channel
// its reply will arrive on. The caller must await the channel (the request
// memory is retained until written).
func (cn *conn) start(req *clientproto.Request) (chan clientproto.Reply, error) {
	ch := make(chan clientproto.Reply, 1)
	cn.mu.Lock()
	if cn.dead {
		err := cn.err
		cn.mu.Unlock()
		if err == nil {
			err = kv.ErrUnavailable
		}
		return nil, err
	}
	cn.nextID++
	req.ReqID = cn.nextID
	cn.pending[req.ReqID] = ch
	cn.q.Push(queuedReq{req: req, at: time.Now()}) // open while !dead
	cn.mu.Unlock()
	cn.stats.Requests.Add(1)
	return ch, nil
}

// await blocks for the reply on ch, bounded by timeout.
func (cn *conn) await(ch chan clientproto.Reply, timeout time.Duration) (clientproto.Reply, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case rep, ok := <-ch:
		if !ok {
			cn.mu.Lock()
			err := cn.err
			cn.mu.Unlock()
			if err == nil {
				err = kv.ErrUnavailable
			}
			return clientproto.Reply{}, err
		}
		return rep, nil
	case <-timer.C:
		// The session's state is now unknowable; kill the connection so
		// the server aborts everything on it and the pool redials fresh.
		cn.close(fmt.Errorf("client: request timeout after %v: %w", timeout, kv.ErrUnavailable))
		return clientproto.Reply{}, kv.ErrUnavailable
	}
}

// call performs one pipelined round trip: register, enqueue, await.
func (cn *conn) call(req *clientproto.Request, timeout time.Duration) (clientproto.Reply, error) {
	ch, err := cn.start(req)
	if err != nil {
		return clientproto.Reply{}, err
	}
	return cn.await(ch, timeout)
}

// Cluster is a round-robin facade over one Client per server address: each
// Begin is coordinated by the next node, mimicking the paper's co-located
// client placement spread over the whole cluster.
type Cluster struct {
	clients []*Client
	next    uint64
}

var (
	_ kv.Store          = (*Cluster)(nil)
	_ kv.SnapshotReader = (*Cluster)(nil)
)

// DialCluster connects to every address. On any failure the already-dialed
// clients are closed.
func DialCluster(addrs []string, opts Options) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: no addresses")
	}
	cl := &Cluster{}
	for _, a := range addrs {
		c, err := Dial(a, opts)
		if err != nil {
			_ = cl.Close()
			return nil, err
		}
		cl.clients = append(cl.clients, c)
	}
	return cl, nil
}

// Begin implements kv.Store, rotating coordinators per transaction.
func (cl *Cluster) Begin(readOnly bool) kv.Txn {
	i := int(atomic.AddUint64(&cl.next, 1)) % len(cl.clients)
	return cl.clients[i].Begin(readOnly)
}

// SnapshotRead implements kv.SnapshotReader, rotating coordinators like
// Begin: the one-round read-only transaction runs on the next node.
func (cl *Cluster) SnapshotRead(keys []string) ([]kv.ReadResult, error) {
	i := int(atomic.AddUint64(&cl.next, 1)) % len(cl.clients)
	return cl.clients[i].SnapshotRead(keys)
}

// Node returns the i-th node's client.
func (cl *Cluster) Node(i int) *Client { return cl.clients[i] }

// NumNodes returns the cluster size.
func (cl *Cluster) NumNodes() int { return len(cl.clients) }

// Close closes every client.
func (cl *Cluster) Close() error {
	var firstErr error
	for _, c := range cl.clients {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
