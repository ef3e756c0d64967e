package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sss-paper/sss/internal/batchq"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/wire"
)

// InProcConfig tunes the simulated network.
type InProcConfig struct {
	// Latency is the one-way delivery delay for remote messages. The
	// default (when zero and DisableLatency is false) is 20µs, the
	// approximate message latency of the paper's testbed.
	Latency time.Duration
	// DisableLatency delivers messages immediately; used by unit tests
	// that don't measure time.
	DisableLatency bool
	// tuning configures the batching runtime (batch size, inbound worker
	// pool); a same-package test seam.
	tuning tuning
	// DuplicateDeliveries, when true, delivers every remote message twice
	// — the resend-amplifier seam: engine suites run under it to prove
	// every peer wire message kind tolerates the at-least-once delivery
	// the TCP transport's resend path introduces (docs/ARCHITECTURE.md,
	// idempotency table).
	DuplicateDeliveries bool
	// Filter, when non-nil, is consulted for every remote message before
	// scheduling: returning false drops it silently, the deterministic
	// lossy-link seam for puppet fault tests (e.g. starving one replica
	// of its freezes). Tests carry their own state in the closure;
	// it is called without transport locks held beyond the send path's
	// read lock.
	Filter func(from, to wire.NodeID, env wire.Envelope) bool
}

// DefaultLatency mirrors the ~20µs message delivery of the paper's
// 40Gb/s InfiniBand CloudLab cluster (§V).
const DefaultLatency = 20 * time.Microsecond

// InProc is an in-process simulated network with the same batched, pooled
// runtime as the TCP transport: every ordered sender→receiver pair has one
// pipe goroutine that coalesces due messages into one delivery batch, and
// every endpoint dispatches inbound messages through a bounded worker pool
// (spilling to fresh goroutines under saturation, so blocking handlers are
// safe). Remote deliveries happen after the configured latency, modelling
// asynchronous reliable channels (§II).
type InProc struct {
	cfg InProcConfig

	mu      sync.RWMutex
	nodes   map[wire.NodeID]*dispatcher
	pipes   map[[2]wire.NodeID]*inprocPipe
	closed  bool
	closing chan struct{}

	wg sync.WaitGroup // in-flight deliveries

	stats metrics.Transport
}

var _ Network = (*InProc)(nil)

// NewInProc builds a simulated network with the given configuration.
func NewInProc(cfg InProcConfig) *InProc {
	if cfg.DisableLatency {
		cfg.Latency = 0
	} else if cfg.Latency == 0 {
		cfg.Latency = DefaultLatency
	}
	cfg.tuning = cfg.tuning.withDefaults()
	return &InProc{
		cfg:     cfg,
		nodes:   make(map[wire.NodeID]*dispatcher),
		pipes:   make(map[[2]wire.NodeID]*inprocPipe),
		closing: make(chan struct{}),
	}
}

// Join implements Network.
func (n *InProc) Join(id wire.NodeID, h Handler) (Endpoint, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for node %d", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.nodes[id]; dup {
		return nil, fmt.Errorf("transport: node %d already joined", id)
	}
	n.nodes[id] = newDispatcher(n.cfg.tuning.Workers, h, &n.wg, &n.stats)
	return &inprocEndpoint{net: n, id: id}, nil
}

// Close implements Network. It waits for all in-flight deliveries.
func (n *InProc) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.closing)
	pipes := make([]*inprocPipe, 0, len(n.pipes))
	for _, p := range n.pipes {
		pipes = append(pipes, p)
	}
	nodes := make([]*dispatcher, 0, len(n.nodes))
	for _, d := range n.nodes {
		nodes = append(nodes, d)
	}
	n.mu.Unlock()

	for _, p := range pipes {
		p.stop()
	}
	n.wg.Wait()
	for _, d := range nodes {
		d.stop()
	}
	return nil
}

// Metrics returns the network-wide batching counters.
func (n *InProc) Metrics() *metrics.Transport { return &n.stats }

// send routes env from→to. Self-sends bypass latency and the pipe, going
// straight to the destination dispatcher.
func (n *InProc) send(from, to wire.NodeID, env wire.Envelope) error {
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		return ErrClosed
	}
	dst, ok := n.nodes[to]
	if !ok {
		n.mu.RUnlock()
		return fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	if from == to {
		n.wg.Add(1)
		n.mu.RUnlock()
		dst.dispatch(env)
		return nil
	}
	if n.cfg.Filter != nil && !n.cfg.Filter(from, to, env) {
		n.mu.RUnlock()
		return nil // dropped by the test seam, as a lossy link would
	}
	copies := 1
	if n.cfg.DuplicateDeliveries {
		copies = 2
	}
	key := [2]wire.NodeID{from, to}
	pipe := n.pipes[key]
	// The wg.Add must happen while the read lock still excludes Close():
	// Close sets closed under the write lock before it calls wg.Wait, so an
	// Add here can never race a Wait that already saw a zero counter.
	n.wg.Add(copies)
	n.mu.RUnlock()
	if pipe == nil {
		pipe = n.makePipe(key, dst)
		if pipe == nil {
			for i := 0; i < copies; i++ {
				n.wg.Done()
			}
			return ErrClosed
		}
	}

	for i := 0; i < copies; i++ {
		send := env
		if copies > 1 {
			// Neither copy may alias the caller's message: a sender may
			// legitimately reuse a message object once the first delivery's
			// reply returns, and whichever copy replies first releases the
			// sender while the other copy's handler may still be reading. A TCP resend delivers a fresh
			// decode of the retained frame, not the original pointer; model
			// that with a codec round trip per copy.
			clone, err := cloneEnvelope(env)
			if err != nil {
				n.wg.Done()
				continue
			}
			send = clone
		}
		// A closed pipe refuses the push: release the delivery slots of
		// this copy and the ones not yet sent.
		if !pipe.q.Push(timedEnv{env: send, at: time.Now()}) {
			for ; i < copies; i++ {
				n.wg.Done()
			}
			return ErrClosed
		}
	}
	return nil
}

// cloneEnvelope round-trips env through the wire codec, yielding a copy
// sharing no memory with the original — the same object identity a resent
// TCP frame produces at the receiver.
func cloneEnvelope(env wire.Envelope) (wire.Envelope, error) {
	buf, err := wire.EncodeEnvelope(nil, env)
	if err != nil {
		return wire.Envelope{}, err
	}
	return wire.DecodeEnvelope(buf)
}

func (n *InProc) makePipe(key [2]wire.NodeID, dst *dispatcher) *inprocPipe {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	if p := n.pipes[key]; p != nil {
		return p
	}
	p := newInprocPipe(n, dst, n.cfg.tuning.MaxBatch)
	n.pipes[key] = p
	return p
}

// inprocPipe is the ordered delivery channel of one sender→receiver pair:
// a queue of (envelope, enqueue time) drained by one goroutine that takes
// whatever accumulated, then delivers each envelope at its own due instant
// (enqueue time plus the network's latency), first in, first out — the
// in-process analogue of the TCP sender's frame coalescing.
type inprocPipe struct {
	net  *InProc
	dst  *dispatcher
	q    *batchq.Queue[timedEnv]
	done sync.WaitGroup

	maxBatch int
}

type timedEnv struct {
	env wire.Envelope
	at  time.Time // enqueue time
}

func newInprocPipe(n *InProc, dst *dispatcher, maxBatch int) *inprocPipe {
	p := &inprocPipe{net: n, dst: dst, q: batchq.New[timedEnv](), maxBatch: maxBatch}
	p.done.Add(1)
	go p.run()
	return p
}

func (p *inprocPipe) run() {
	defer p.done.Done()
	var timer *time.Timer
	var batch []timedEnv
	for {
		batch, _ = p.q.Take(batch[:0], p.maxBatch)
		if len(batch) == 0 {
			return
		}
		for _, te := range batch {
			if wait := time.Until(te.at.Add(p.net.cfg.Latency)); wait > 0 {
				if timer == nil {
					timer = time.NewTimer(wait)
				} else {
					timer.Reset(wait)
				}
				select {
				case <-timer.C:
				case <-p.net.closing:
					// Shutting down: deliveries already enqueued still drain
					// (Close waits for them), just without the remaining delay.
					timer.Stop()
				}
			}
			p.dst.dispatch(te.env)
		}
		s := &p.net.stats
		s.Flushes.Add(1)
		s.Envelopes.Add(uint64(len(batch)))
		s.FlushLatency.Observe(time.Since(batch[0].at))
		clear(batch)
	}
}

func (p *inprocPipe) stop() {
	p.q.Close()
	p.done.Wait()
}

type inprocEndpoint struct {
	net    *InProc
	id     wire.NodeID
	closed atomic.Bool
}

var _ Endpoint = (*inprocEndpoint)(nil)

func (e *inprocEndpoint) ID() wire.NodeID { return e.id }

func (e *inprocEndpoint) Send(to wire.NodeID, env wire.Envelope) error {
	if e.closed.Load() {
		return ErrClosed
	}
	env.From = e.id
	return e.net.send(e.id, to, env)
}

func (e *inprocEndpoint) Close() error {
	e.closed.Store(true)
	return nil
}
