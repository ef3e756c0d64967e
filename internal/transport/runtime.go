// Batched, pooled messaging runtime shared by the transport back ends.
//
// Outbound, every TCP peer link and every in-process pipe is a batchq.Queue
// drained by one goroutine that takes whatever accumulated while it was
// busy — natural batching: an idle sender flushes a single envelope
// immediately, a busy one amortizes framing, allocation, and syscalls over
// the queue depth.
//
// Inbound, a bounded worker pool replaces goroutine-per-message dispatch.
// Handlers are still allowed to block indefinitely (the SSS Decide handler
// blocks for the whole pre-commit drain): a message that finds every worker
// busy is handed to a dedicated spill goroutine instead of queueing behind a
// potentially-blocked worker, so dispatch can never deadlock — the pool only
// bounds goroutine churn for the fast-path traffic.
package transport

import (
	"runtime"
	"sync"
	"time"

	"github.com/sss-paper/sss/internal/batchq"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/wire"
)

// tuning configures the messaging runtime of a Network: a same-package
// test seam (NewTCP and NewInProc use the defaults). The zero value selects
// defaults tuned for the simulated 20µs network.
type tuning struct {
	// MaxBatch caps the envelopes coalesced into one batch frame
	// (default 64).
	MaxBatch int
	// Workers bounds the inbound dispatch pool per endpoint (default
	// 8×GOMAXPROCS, clamped to [32, 256]). Protocol handlers block by
	// design (drain waits, lock waits), so the pool is sized for parked
	// handlers, not for CPU parallelism. Messages beyond it spill to
	// dedicated goroutines, preserving the handler-may-block contract.
	Workers int
	// PingInterval bounds how long an idle sender leaves its connection
	// unprobed: back ends with liveness support (TCP) write a lightweight
	// zero-length frame after this much idle time, so a dead connection
	// is detected and discarded within ~2 intervals instead of costing
	// the next real batch (default 250ms — VoteTimeout scale, so a read
	// leg never burns its budget on a stale link; negative disables).
	PingInterval time.Duration
	// tickFn is the idle-timer source, overridable by same-package tests
	// to drive the pinger with a fake clock. nil selects one reusable
	// timer per sender: a busy sender idles between most batches, so a
	// fresh timer per idle wait would be a large share of a node's
	// allocated bytes.
	tickFn func(time.Duration) <-chan time.Time
}

func (t tuning) withDefaults() tuning {
	if t.MaxBatch <= 0 {
		t.MaxBatch = 64
	}
	if t.Workers <= 0 {
		t.Workers = 8 * runtime.GOMAXPROCS(0)
		if t.Workers < 32 {
			t.Workers = 32
		}
		if t.Workers > 256 {
			t.Workers = 256
		}
	}
	if t.PingInterval == 0 {
		t.PingInterval = 250 * time.Millisecond
	}
	return t
}

// dispatcher fans inbound envelopes out to a bounded worker pool, spilling
// to fresh goroutines when every worker is busy. inflight accounting lives
// in the owner's WaitGroup: callers must Add(1) before dispatch; the
// dispatcher guarantees exactly one Done per dispatched envelope.
type dispatcher struct {
	handler Handler
	tasks   chan wire.Envelope
	quit    chan struct{}
	wg      *sync.WaitGroup // owner's in-flight deliveries
	workers sync.WaitGroup
	stats   *metrics.Transport
}

// newDispatcher starts n pool workers delivering to h. wg accounts
// in-flight deliveries (Done is called after each handler returns).
func newDispatcher(n int, h Handler, wg *sync.WaitGroup, stats *metrics.Transport) *dispatcher {
	d := &dispatcher{
		handler: h,
		tasks:   make(chan wire.Envelope),
		quit:    make(chan struct{}),
		wg:      wg,
		stats:   stats,
	}
	d.workers.Add(n)
	for i := 0; i < n; i++ {
		go d.worker()
	}
	return d
}

func (d *dispatcher) worker() {
	defer d.workers.Done()
	for {
		select {
		case env := <-d.tasks:
			d.handler(env)
			d.wg.Done()
		case <-d.quit:
			return
		}
	}
}

// dispatch hands env to an idle worker, or to a dedicated spill goroutine
// when the pool is saturated. It never blocks on a handler. The caller must
// have done wg.Add(1).
func (d *dispatcher) dispatch(env wire.Envelope) {
	select {
	case d.tasks <- env:
	default:
		d.stats.Spills.Add(1)
		go func() {
			d.handler(env)
			d.wg.Done()
		}()
	}
}

// stop terminates the pool workers. The owner must have waited for its
// in-flight deliveries first (wg), so no dispatch can race the quit.
func (d *dispatcher) stop() {
	close(d.quit)
	d.workers.Wait()
}

// queued is one envelope waiting in a TCP peer link's send queue.
type queued struct {
	env wire.Envelope
	at  time.Time // enqueue instant, for FlushLatency
}

// runSender is a TCP peer link's sender goroutine. It coalesces what
// accumulated in q into batches of at most tune.MaxBatch, handed to flush,
// which owns the batch only for the duration of the call; after
// PingInterval of idle it calls ping, the link's liveness probe. It
// returns once q is closed and every envelope queued before the close has
// been flushed.
func runSender(q *batchq.Queue[queued], tune tuning, stats *metrics.Transport, flush func([]wire.Envelope), ping func()) {
	var taken []queued
	batch := make([]wire.Envelope, 0, tune.MaxBatch)
	tick := tune.tickFn
	if tick == nil {
		// One timer per sender, re-armed on every idle wait (since go 1.23
		// no stale tick survives a Reset).
		idle := time.NewTimer(tune.PingInterval)
		defer idle.Stop()
		tick = func(d time.Duration) <-chan time.Time { idle.Reset(d); return idle.C }
	}
	for {
		if tune.PingInterval > 0 {
			for !q.Wait(tick(tune.PingInterval)) {
				ping()
			}
		}
		taken, _ = q.Take(taken[:0], tune.MaxBatch)
		if len(taken) == 0 {
			return
		}
		batch = batch[:0]
		for _, it := range taken {
			batch = append(batch, it.env)
		}
		flush(batch)
		stats.Flushes.Add(1)
		stats.Envelopes.Add(uint64(len(batch)))
		stats.FlushLatency.Observe(time.Since(taken[0].at))
		clear(taken)
		clear(batch)
	}
}
