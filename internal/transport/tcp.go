package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"github.com/sss-paper/sss/internal/batchq"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/obs/slogx"
	"github.com/sss-paper/sss/internal/wire"
)

// maxFrame bounds a single wire frame; larger frames indicate corruption.
const maxFrame = 64 << 20

// TCP is a Network over real TCP connections, for multi-process
// deployments (cmd/sss-server). Each endpoint keeps one outbound link per
// peer — one FIFO queue, one sender goroutine, one connection — the TCP
// form of InProc's ordered pipe, shared by every message kind. The sender
// coalesces queued envelopes into batch frames — one length-prefixed write
// per batch instead of one per message — with sync.Pool-recycled encode
// buffers, so the steady-state send path allocates nothing. Inbound frames
// are decoded from pooled buffers and dispatched through a bounded worker
// pool that spills to dedicated goroutines under saturation (handlers may
// block indefinitely).
type TCP struct {
	addrs map[wire.NodeID]string
	tune  tuning

	mu     sync.Mutex
	eps    map[wire.NodeID]*tcpEndpoint
	closed bool

	stats metrics.Transport
}

var _ Network = (*TCP)(nil)

// NewTCP builds a TCP network over the given node address book, with
// default tuning.
func NewTCP(addrs map[wire.NodeID]string) *TCP {
	return newTCPTuned(addrs, tuning{})
}

// newTCPTuned builds a TCP network with explicit batching/pool tuning.
func newTCPTuned(addrs map[wire.NodeID]string, tune tuning) *TCP {
	book := make(map[wire.NodeID]string, len(addrs))
	for id, a := range addrs {
		book[id] = a
	}
	return &TCP{addrs: book, tune: tune.withDefaults(), eps: make(map[wire.NodeID]*tcpEndpoint)}
}

// Join implements Network: it starts listening on the node's address.
func (t *TCP) Join(id wire.NodeID, h Handler) (Endpoint, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for node %d", id)
	}
	addr, ok := t.addrs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if _, dup := t.eps[id]; dup {
		return nil, fmt.Errorf("transport: node %d already joined", id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen node %d: %w", id, err)
	}
	ep := &tcpEndpoint{
		net:     t,
		id:      id,
		ln:      ln,
		peers:   make(map[wire.NodeID]*tcpPeer),
		inbound: make(map[net.Conn]struct{}),
	}
	ep.disp = newDispatcher(t.tune.Workers, h, &ep.inflight, &t.stats)
	t.eps[id] = ep
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Close implements Network.
func (t *TCP) Close() error {
	t.mu.Lock()
	t.closed = true
	eps := make([]*tcpEndpoint, 0, len(t.eps))
	for _, ep := range t.eps {
		eps = append(eps, ep)
	}
	t.mu.Unlock()
	var firstErr error
	for _, ep := range eps {
		if err := ep.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Addr returns the bound listen address of node id, once joined. Useful
// when the address book used port 0.
func (t *TCP) Addr(id wire.NodeID) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ep, ok := t.eps[id]
	if !ok {
		return "", false
	}
	return ep.ln.Addr().String(), true
}

// Metrics returns a snapshot of the network-wide batching counters: the
// merge of every endpoint's per-peer senders plus the shared inbound-pool
// spill count.
func (t *TCP) Metrics() *metrics.Transport {
	out := &metrics.Transport{}
	metrics.Merge(out, &t.stats)
	t.mu.Lock()
	eps := make([]*tcpEndpoint, 0, len(t.eps))
	for _, ep := range t.eps {
		eps = append(eps, ep)
	}
	t.mu.Unlock()
	for _, ep := range eps {
		ep.mu.Lock()
		for _, p := range ep.peers {
			metrics.Merge(out, &p.stats)
		}
		ep.mu.Unlock()
	}
	return out
}

type tcpEndpoint struct {
	net  *TCP
	id   wire.NodeID
	ln   net.Listener
	disp *dispatcher

	mu      sync.Mutex
	peers   map[wire.NodeID]*tcpPeer
	inbound map[net.Conn]struct{}
	closed  bool

	wg       sync.WaitGroup // accept + read loops
	inflight sync.WaitGroup // dispatched handler invocations
}

var _ Endpoint = (*tcpEndpoint)(nil)

func (e *tcpEndpoint) ID() wire.NodeID { return e.id }

func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			_ = c.Close()
			return
		}
		e.inbound[c] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(c)
	}
}

func (e *tcpEndpoint) readLoop(c net.Conn) {
	defer e.wg.Done()
	defer func() {
		_ = c.Close()
		e.mu.Lock()
		delete(e.inbound, c)
		e.mu.Unlock()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	for {
		// Frames are decoded from a pooled buffer; DecodeEnvelope copies
		// every string/byte payload, so the buffer can be recycled as soon
		// as decoding finishes.
		bp := wire.GetBuf()
		if err := wire.ReadFrame(br, bp, maxFrame); err != nil || e.isClosed() {
			wire.PutBuf(bp)
			return
		}
		frame := *bp
		if len(frame) == 0 {
			wire.PutBuf(bp)
			continue // liveness ping: no payload, nothing to dispatch
		}
		var err error
		if wire.IsBatch(frame) {
			_, err = wire.DecodeBatch(frame, func(env wire.Envelope) error {
				e.inflight.Add(1)
				e.disp.dispatch(env)
				return nil
			})
		} else {
			var env wire.Envelope
			env, err = wire.DecodeEnvelope(frame)
			if err == nil {
				e.inflight.Add(1)
				e.disp.dispatch(env)
			}
		}
		wire.PutBuf(bp)
		if err != nil {
			return
		}
	}
}

func (e *tcpEndpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Send enqueues env for delivery to node `to`. It never blocks on the
// network or the receiver: envelopes are coalesced and written by the
// peer's sender goroutine. Connection failures surface as dropped messages
// (RPC callers observe them as timeouts), exactly like a lossy network.
func (e *tcpEndpoint) Send(to wire.NodeID, env wire.Envelope) error {
	env.From = e.id
	if to == e.id {
		// Loopback: skip the socket, keep the dispatch contract.
		if e.isClosed() {
			return ErrClosed
		}
		e.inflight.Add(1)
		e.disp.dispatch(env)
		return nil
	}
	peer, err := e.peer(to)
	if err != nil {
		return err
	}
	if !peer.q.Push(queued{env: env, at: time.Now()}) {
		return ErrClosed
	}
	return nil
}

// peer returns (creating on first use) the outbound state for node `to`.
func (e *tcpEndpoint) peer(to wire.NodeID) (*tcpPeer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if p := e.peers[to]; p != nil {
		return p, nil
	}
	addr, ok := e.net.addrs[to]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	p := &tcpPeer{q: batchq.New[queued](), e: e, to: to, addr: addr}
	p.sender.Add(1)
	go func() {
		defer p.sender.Done()
		runSender(p.q, e.net.tune, &p.stats, p.flush, p.ping)
	}()
	e.peers[to] = p
	return p, nil
}

// retainTail bounds the encoded frames a link keeps *after* writing them:
// on a loopback peer death the write that actually loses data is the one
// that "succeeds" into the dead connection's kernel buffer — only the next
// write errors — so closing the one-lost-batch window requires rewriting
// not just the errored frame but the frames written immediately before it.
const retainTail = 2

// retainPending bounds the frames a peer link holds for resend while the
// peer is unreachable — one bound per peer, since every message kind shares
// the link; beyond it the oldest frames are dropped and counted as
// LostBatches (their envelopes surface as RPC timeouts at the caller).
const retainPending = 8

// maxDialsPerSend bounds redials inside one send attempt so a peer that
// accepts connections but resets every write cannot spin the sender.
const maxDialsPerSend = 2

// pingFrame is the liveness probe: a zero-length frame (uvarint size 0,
// no payload). readLoop skips it; its only job is to force the kernel to
// surface a dead connection as a write error on an otherwise idle link,
// so the stale conn is discarded before a real batch pays for the
// discovery.
var pingFrame = []byte{0}

// tcpFrame is one encoded, retained batch frame. bp is the pooled encode
// buffer; it returns to the pool only when the frame rotates out of the
// tail or is dropped from pending. The bytes on the wire, length prefix
// included, are (*bp)[off:]: see flush.
type tcpFrame struct {
	bp     *[]byte
	off    int
	resend bool // written before, on a connection that later died
}

func (f tcpFrame) wire() []byte { return (*f.bp)[f.off:] }

// prefixRoom is the headroom flush leaves in front of an encoded frame for
// its uvarint length prefix.
const prefixRoom = binary.MaxVarintLen64

// tcpPeer is one outbound peer link: the send queue Send pushes to, the
// sender goroutine draining it over a lazily-dialed connection, and the
// retained-frame state of the at-least-once resend path. The connection
// and frame state are owned by the sender goroutine (flush, ping and what
// they call), so no locking is needed. Resends rewrite the retained encoded
// bytes — never re-encode from Msg pointers, which senders may mutate or
// reuse after the original Send returned.
type tcpPeer struct {
	q      *batchq.Queue[queued]
	sender sync.WaitGroup
	stats  metrics.Transport

	e    *tcpEndpoint
	to   wire.NodeID
	addr string

	c       net.Conn
	healing bool // a previous connection was discarded; next dial is a redial

	// pending holds encoded frames not yet written on a live connection
	// (new traffic, plus tail frames re-queued after a write error),
	// oldest first. tail holds the last retainTail frames written on the
	// current connection — the ones a dying kernel buffer may still
	// swallow.
	pending []tcpFrame
	tail    []tcpFrame
}

// flush encodes batch into a retained pooled buffer (single envelopes skip
// the batch framing) and drives the send loop. Link transitions are counted
// on the peer's stats so the post-restart healing transient is observable:
// a dial that replaces a discarded connection is a Redial, the first
// successful write on it is a HealedWrite, and every retained frame
// rewritten after a write error is a BatchResend.
//
// The frame is encoded behind prefixRoom bytes and its length prefix is
// then written in place just in front of it, so each frame goes out as one
// write straight from the pooled buffer: no per-peer write buffer and no
// copy.
//
// A frame past maxFrame would make the receiver hang up, and a retained
// frame is rewritten after every redial, so such a batch is split in halves
// and each half sent as its own frame; an envelope past maxFrame on its own
// is dropped and counted as a LostBatch.
func (p *tcpPeer) flush(batch []wire.Envelope) {
	bp := wire.GetBuf()
	var err error
	var room [prefixRoom]byte
	frame := append(*bp, room[:]...)
	if len(batch) == 1 {
		frame, err = wire.EncodeEnvelope(frame, batch[0])
	} else {
		frame, err = wire.EncodeBatch(frame, batch)
	}
	*bp = frame
	if err != nil {
		wire.PutBuf(bp)
		return
	}
	if len(frame)-prefixRoom > maxFrame {
		wire.PutBuf(bp)
		if len(batch) == 1 {
			p.stats.LostBatches.Add(1)
			return
		}
		p.flush(batch[:len(batch)/2])
		p.flush(batch[len(batch)/2:])
		return
	}
	n := binary.PutUvarint(room[:], uint64(len(frame)-prefixRoom))
	off := prefixRoom - n
	copy(frame[off:], room[:n])
	p.pending = append(p.pending, tcpFrame{bp: bp, off: off})
	p.sendPending()
}

// sendPending writes queued frames in order, redialing and rewriting
// retained frames after write errors. On dial failure the frames stay
// pending (bounded by retainPending) and are retried by the next flush or
// ping — which is what makes a batch queued across a peer's death arrive
// after its restart instead of vanishing.
func (p *tcpPeer) sendPending() {
	dials := 0
	for len(p.pending) > 0 {
		if p.c == nil {
			if dials >= maxDialsPerSend || !p.dial() {
				p.dropOverflow()
				return
			}
			dials++
		}
		f := p.pending[0]
		if _, err := p.c.Write(f.wire()); err != nil {
			debugLog.Debug("tcp: peer write failed, frame retained for resend",
				"node", int(p.e.id), "peer", int(p.to), "err", err)
			p.discardConn()
			continue
		}
		p.pending = p.pending[1:]
		if f.resend {
			f.resend = false
			p.stats.BatchResends.Add(1)
		}
		if p.healing {
			p.healing = false
			p.stats.HealedWrites.Add(1)
		}
		p.pushTail(f)
	}
}

// ping probes an idle connection with a zero-length frame, discarding it on
// write failure so the next batch dials fresh instead of dying in a dead
// kernel buffer. Called by the sender goroutine after PingInterval of idle.
func (p *tcpPeer) ping() {
	if len(p.pending) > 0 {
		// A backlog is a better probe than a ping: try to move it.
		p.sendPending()
		return
	}
	if p.c == nil {
		return // nothing to keep alive; the next batch dials fresh
	}
	p.stats.PingsSent.Add(1)
	if _, err := p.c.Write(pingFrame); err != nil {
		p.stats.PeerUnresponsive.Add(1)
		debugLog.Debug("tcp: ping failed, conn discarded",
			"node", int(p.e.id), "peer", int(p.to), "err", err)
		p.discardConn()
		p.sendPending() // rewrite the re-queued tail on a fresh conn now
	}
}

func (p *tcpPeer) dial() bool {
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		debugLog.Debug("tcp: dial failed",
			"node", int(p.e.id), "peer", int(p.to), "addr", p.addr, "err", err, "pending", len(p.pending))
		return false
	}
	p.c = conn
	p.e.track(conn)
	p.stats.Dials.Add(1)
	if p.healing {
		p.stats.Redials.Add(1)
	}
	debugLog.Debug("tcp: dialed peer",
		"node", int(p.e.id), "peer", int(p.to), "addr", p.addr)
	return true
}

// discardConn drops the connection after a failed write and re-queues the
// tail in front of the failed frame: everything recently written may have
// died unread in the old connection's kernel buffer, so all of it is
// rewritten — duplicates are safe, receivers dedupe per message kind (see
// docs/ARCHITECTURE.md, "Peer-link liveness & at-least-once delivery").
func (p *tcpPeer) discardConn() {
	p.stats.DiscardedConns.Add(1)
	p.healing = true
	_ = p.c.Close()
	p.c = nil
	if len(p.pending) > 0 {
		p.pending[0].resend = true
	}
	if len(p.tail) > 0 {
		for i := range p.tail {
			p.tail[i].resend = true
		}
		requeued := make([]tcpFrame, 0, len(p.tail)+len(p.pending))
		requeued = append(requeued, p.tail...)
		p.pending = append(requeued, p.pending...)
		p.tail = p.tail[:0]
	}
}

// pushTail retains f as recently-written, recycling the frame that rotates
// out.
func (p *tcpPeer) pushTail(f tcpFrame) {
	if len(p.tail) == retainTail {
		wire.PutBuf(p.tail[0].bp)
		copy(p.tail, p.tail[1:])
		p.tail[len(p.tail)-1] = f
		return
	}
	p.tail = append(p.tail, f)
}

// dropOverflow bounds the pending queue while the peer is unreachable,
// dropping oldest-first (their senders have long since timed out and
// retried at the RPC layer).
func (p *tcpPeer) dropOverflow() {
	for len(p.pending) > retainPending {
		wire.PutBuf(p.pending[0].bp)
		p.pending = p.pending[1:]
		p.stats.LostBatches.Add(1)
	}
}

// debugLog emits the link diagnostics as debug records (SSS_LOG_LEVEL=debug)
// on the same stderr stream as the server's logger.
var debugLog = slogx.New(os.Stderr)

// track registers an outbound connection for teardown at Close.
func (e *tcpEndpoint) track(c net.Conn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		_ = c.Close()
		return
	}
	e.inbound[c] = struct{}{}
}

func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	peers := e.peers
	e.peers = make(map[wire.NodeID]*tcpPeer)
	e.mu.Unlock()

	// Stop senders first so pending envelopes still flush over live
	// connections.
	for _, p := range peers {
		p.q.Close()
	}
	for _, p := range peers {
		p.sender.Wait()
	}

	e.mu.Lock()
	conns := make([]net.Conn, 0, len(e.inbound))
	for c := range e.inbound {
		conns = append(conns, c)
	}
	e.mu.Unlock()

	err := e.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	e.wg.Wait()       // accept + read loops done: no new dispatches
	e.inflight.Wait() // handlers done
	e.disp.stop()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
