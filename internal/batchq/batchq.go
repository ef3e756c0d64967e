// Package batchq is the send queue behind every asynchronous outbound path:
// the TCP peer streams, the in-process pipes and the client's connections.
// Producers append without blocking; one consumer goroutine takes whatever
// accumulated while its previous flush was in flight — natural batching: an
// idle consumer flushes a single item immediately, a busy one amortizes its
// flush over the queue depth.
//
// The queue holds no policy: each consumer owns its flush, its statistics
// and what it does with items still queued at Close.
package batchq

import (
	"sync"
	"time"
)

// Queue is a FIFO drained by a single consumer. Its backing array grows to
// the deepest backlog; Take zeroes the slots it vacates, so items already
// handed out are not retained.
type Queue[T any] struct {
	mu     sync.Mutex
	items  []T
	closed bool
	wake   chan struct{} // capacity 1: nudges the consumer
}

// New returns an empty, open queue.
func New[T any]() *Queue[T] {
	return &Queue[T]{wake: make(chan struct{}, 1)}
}

func (q *Queue[T]) nudge() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// Push appends it. It never blocks on the consumer. It returns false, and
// queues nothing, once the queue is closed.
func (q *Queue[T]) Push(it T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, it)
	q.mu.Unlock()
	q.nudge()
	return true
}

// Close refuses further pushes and wakes the consumer. Items already queued
// stay takeable. Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.nudge()
}

// Take blocks until the queue is non-empty or closed, then moves up to max
// (> 0) of the oldest items onto dst and returns it. open reports whether
// the queue was still open at the take; a closed queue keeps handing out
// what it holds, and returns an empty batch once drained.
func (q *Queue[T]) Take(dst []T, max int) (batch []T, open bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.mu.Unlock()
		<-q.wake
		q.mu.Lock()
	}
	n := min(len(q.items), max)
	dst = append(dst, q.items[:n]...)
	rest := copy(q.items, q.items[n:])
	clear(q.items[rest:])
	q.items = q.items[:rest]
	return dst, !q.closed
}

// Wait blocks until the queue is non-empty or closed, and returns true; or
// until idle fires first, and returns false. A nil idle waits without limit.
func (q *Queue[T]) Wait(idle <-chan time.Time) bool {
	for {
		q.mu.Lock()
		ready := len(q.items) > 0 || q.closed
		q.mu.Unlock()
		if ready {
			return true
		}
		select {
		case <-q.wake:
		case <-idle:
			return false
		}
	}
}
