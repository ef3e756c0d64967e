package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sss-paper/sss/internal/wire"
)

// ServerFunc handles an inbound request or notification. rid is 0 for
// one-way notifications; otherwise the handler (or code it triggers, however
// much later) must eventually answer via Reply — SSS's DecideAck, for
// example, is sent only after the pre-commit drain. ServerFunc runs on a
// pool worker (or a spill goroutine when the pool is saturated) and may
// block indefinitely without stalling dispatch.
type ServerFunc func(from wire.NodeID, rid uint64, msg wire.Msg)

// RPC correlates request/response pairs over an Endpoint and dispatches
// inbound requests to a ServerFunc.
type RPC struct {
	ep  Endpoint
	srv ServerFunc

	nextRID atomic.Uint64
	closing chan struct{} // closed by Close: fails every outstanding wait

	mu      sync.Mutex
	pending map[uint64]slot
	closed  bool
}

// slot routes one awaited response to the leg of the Multi that sent it.
type slot struct {
	ch  chan reply
	leg int
}

// reply is one matched response; at is the instant handle matched it.
type reply struct {
	leg int
	msg wire.Msg
	at  time.Time
}

// NewRPC joins network net as node id, dispatching inbound requests to srv.
func NewRPC(net Network, id wire.NodeID, srv ServerFunc) (*RPC, error) {
	if srv == nil {
		return nil, fmt.Errorf("transport: nil server func for node %d", id)
	}
	r := &RPC{srv: srv, pending: make(map[uint64]slot), closing: make(chan struct{})}
	ep, err := net.Join(id, r.handle)
	if err != nil {
		return nil, err
	}
	r.ep = ep
	return r, nil
}

// ID returns the local node ID.
func (r *RPC) ID() wire.NodeID { return r.ep.ID() }

func (r *RPC) handle(env wire.Envelope) {
	if env.Resp {
		r.mu.Lock()
		s, ok := r.pending[env.RID]
		delete(r.pending, env.RID)
		r.mu.Unlock()
		if ok {
			// Never blocks: the channel holds one reply per leg, and the
			// delete above makes this the leg's only send (a duplicate or
			// late response finds no slot and is dropped).
			s.ch <- reply{leg: s.leg, msg: env.Msg, at: time.Now()}
		}
		return
	}
	r.srv(env.From, env.RID, env.Msg)
}

// Multi is one fan-out in flight: the same request sent to several nodes
// from the calling goroutine, which then collects the responses itself with
// Next — no goroutine per leg. It is owned by that one goroutine and must be
// released.
type Multi struct {
	r     *RPC
	ch    chan reply
	rids  []uint64 // per leg; 0 once its response was read or its send failed
	open  int      // legs still awaited
	err   error    // why a leg is missing (closed, send failure), else errDone
	first time.Time
	// dirty marks ch unfit for reuse: some leg's response was matched but
	// never read, so handle owns a send on it that may not have landed yet.
	dirty bool
	// timer fires at armed, the deadline Next last waited for; it is made on
	// first use and kept across pool reuse. armed is zero when the timer is
	// stopped or its fire was received.
	timer *time.Timer
	armed time.Time
}

var errDone = errors.New("transport: no response outstanding")

// ErrTimeout is returned by a wait whose deadline passed first.
var ErrTimeout = errors.New("transport: deadline exceeded")

// multis pools Multi values with their reply channels, so the RPC hot path
// allocates nothing per call.
var multis = sync.Pool{New: func() any { return new(Multi) }}

// Multi registers one response slot per target, sends msg to each, and
// returns the fan-out to collect from. A leg whose send fails is not awaited;
// Next reports the failure once the other legs are in.
func (r *RPC) Multi(targets []wire.NodeID, msg wire.Msg) *Multi {
	m := multis.Get().(*Multi)
	m.r, m.err = r, errDone
	if cap(m.ch) < len(targets) {
		m.ch = make(chan reply, len(targets)) // one slot per leg: handle never blocks
	}
	n := uint64(len(targets))
	base := r.nextRID.Add(n) - n
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		m.err = ErrClosed
		return m
	}
	for leg := range targets {
		rid := base + uint64(leg) + 1
		m.rids = append(m.rids, rid)
		r.pending[rid] = slot{ch: m.ch, leg: leg}
	}
	r.mu.Unlock()
	m.open = len(targets)
	for leg, to := range targets {
		if err := r.ep.Send(to, wire.Envelope{RID: m.rids[leg], Msg: msg}); err != nil {
			r.mu.Lock()
			m.withdrawLocked(leg)
			r.mu.Unlock()
			m.err = err
		}
	}
	return m
}

// Next returns the next response in arrival order: the index in targets of
// the leg it answers, and the message. It fails with ErrTimeout once
// deadline passes (a zero deadline never does), ErrClosed once the RPC is
// closed, and — when no leg is awaited anymore — the reason one went
// missing, if any.
func (m *Multi) Next(deadline time.Time) (int, wire.Msg, error) {
	if m.open == 0 {
		return -1, nil, m.err
	}
	var expired <-chan time.Time // nil for a zero deadline: never ready
	if !deadline.IsZero() {
		expired = m.arm(deadline)
	}
	select {
	case rep := <-m.ch:
		m.rids[rep.leg] = 0
		m.open--
		if m.first.IsZero() || rep.at.Before(m.first) {
			m.first = rep.at
		}
		return rep.leg, rep.msg, nil
	case <-expired:
		m.armed = time.Time{}
		return -1, nil, ErrTimeout
	case <-m.r.closing:
		return -1, nil, ErrClosed
	}
}

// arm points the timer at deadline, re-arming it only when the deadline
// changed. Reset discards a fire of the previous setting, so the channel
// never carries a stale expiry.
func (m *Multi) arm(deadline time.Time) <-chan time.Time {
	switch {
	case m.timer == nil:
		m.timer = time.NewTimer(time.Until(deadline))
	case !deadline.Equal(m.armed):
		m.timer.Reset(time.Until(deadline))
	}
	m.armed = deadline
	return m.timer.C
}

// withdrawLocked stops awaiting leg. When its slot was still registered, no
// response was (or will be) matched to it and the channel stays clean; when
// it was already gone, a racing handle owns a send on the channel.
func (m *Multi) withdrawLocked(leg int) {
	rid := m.rids[leg]
	if _, registered := m.r.pending[rid]; registered {
		delete(m.r.pending, rid)
	} else {
		m.dirty = true
	}
	m.rids[leg] = 0
	m.open--
}

// Release ends the fan-out: every leg still awaited is deregistered at once,
// so a response arriving later is dropped. The reply channel is reused only
// if every leg was read or withdrawn while registered — a straggler of this
// fan-out can never surface in the next one.
func (m *Multi) Release() {
	if m.open > 0 {
		m.r.mu.Lock()
		for leg, rid := range m.rids {
			if rid != 0 {
				m.withdrawLocked(leg)
			}
		}
		m.r.mu.Unlock()
	}
	if m.dirty {
		m.ch, m.dirty = nil, false
	}
	if !m.armed.IsZero() {
		m.timer.Stop()
	}
	m.r, m.rids, m.first, m.armed = nil, m.rids[:0], time.Time{}, time.Time{}
	multis.Put(m)
}

// CallWithin sends msg to node to and waits at most d for the correlated
// response. A response arriving after expiry is dropped.
func (r *RPC) CallWithin(d time.Duration, to wire.NodeID, msg wire.Msg) (wire.Msg, error) {
	return r.call(time.Now().Add(d), to, msg)
}

// Call is CallWithin bounded by ctx's deadline, if any; cancelling ctx does
// not end the wait. It keeps the context signature only for the benchmark
// module's transport probe, which compiles against it.
func (r *RPC) Call(ctx context.Context, to wire.NodeID, msg wire.Msg) (wire.Msg, error) {
	deadline, _ := ctx.Deadline()
	return r.call(deadline, to, msg)
}

func (r *RPC) call(deadline time.Time, to wire.NodeID, msg wire.Msg) (wire.Msg, error) {
	m := r.Multi([]wire.NodeID{to}, msg)
	defer m.Release()
	_, resp, err := m.Next(deadline)
	if err != nil {
		return nil, fmt.Errorf("transport: call %v to node %d: %w", msg.Type(), to, err)
	}
	return resp, nil
}

// Gather sends msg to every target and waits at most d for all responses.
// replies[i] answers targets[i], nil where none came; replies reuses buf's
// array. first is the instant the earliest response was matched on arrival —
// not when this goroutine got round to reading it.
func (r *RPC) Gather(d time.Duration, targets []wire.NodeID, msg wire.Msg, buf []wire.Msg) (replies []wire.Msg, first time.Time) {
	replies = buf[:0]
	for range targets {
		replies = append(replies, nil)
	}
	deadline := time.Now().Add(d)
	m := r.Multi(targets, msg)
	defer m.Release()
	for {
		leg, resp, err := m.Next(deadline)
		if err != nil {
			return replies, m.first
		}
		replies[leg] = resp
	}
}

// Notify sends a one-way message to node to.
func (r *RPC) Notify(to wire.NodeID, msg wire.Msg) error {
	return r.ep.Send(to, wire.Envelope{Msg: msg})
}

// Reply answers the request identified by rid at node to.
func (r *RPC) Reply(to wire.NodeID, rid uint64, msg wire.Msg) error {
	return r.ep.Send(to, wire.Envelope{RID: rid, Resp: true, Msg: msg})
}

// Pending returns the number of calls awaiting a reply: the size of the
// pending-call table.
func (r *RPC) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// Close detaches from the network. Outstanding calls fail with ErrClosed.
func (r *RPC) Close() error {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.closing)
	}
	r.mu.Unlock()
	return r.ep.Close()
}
