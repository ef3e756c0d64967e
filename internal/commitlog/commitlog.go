// Package commitlog implements the per-node commit machinery of SSS: the
// node vector clock (NodeVC), the ordered commit queue (CommitQ) and the
// applied-commit log (NLog) of §III-A.
//
// The three structures are updated together under one mutex so that a
// reader observing NLog.mostRecentVC is guaranteed that every transaction
// it covers has already applied its versions: Drain applies a transaction's
// writes (via the callback captured at Prepare time) in CommitQ order —
// ascending commit vector clock entry vc[i] on node i — immediately before
// appending its entry to the NLog.
//
// Read-side accesses avoid that mutex, except VisibleMax:
//
//   - The clock reads every transaction begin and read reply performs
//     (NodeVC, MostRecentVC, SnapshotVC, ExternalVC, AppliedSelf) are served
//     from an immutable snapshot republished through an atomic.Pointer on
//     every mutation.
//   - WaitMostRecent (Algorithm 6 line 5) spins on an atomic apply-frontier
//     fast path and, when it must block, registers in a per-bound waiter
//     min-heap so a frontier advance wakes exactly the waiters it satisfies
//     instead of broadcasting to all of them.
//
// VisibleMax (Algorithm 6 lines 6–9) scans the NLog under the mutex. The
// NLog holds only the entries the external clock does not cover (see
// below): a handful per update in flight, never the applied history.
//
// Invariants (see docs/CONSISTENCY.md §2):
//
//   - NodeVC is monotone; its own entry increments exactly once per
//     prepared write (the transaction's write slot at this node).
//   - mostRecent[self] — the apply frontier — advances only in CommitQ
//     order: when WaitMostRecent(b) returns, every local version with
//     vc[self] <= b is applied and visible.
//   - The external clock covers only transactions witnessed to externally
//     commit (RecordExternal): unlike mostRecent it never names a parked
//     stranger, so it is safe to fold into other transactions' clocks and
//     read bounds without fabricating dependencies.
//   - The NLog keeps an applied commit only while the external clock does
//     not cover its commit clock. A first read folds the external clock
//     into its bound after VisibleMax, so a covered entry can never change
//     the answer: max(kept ∪ covered) ∨ external = max(kept) ∨ external.
//     Decide folds each commit clock into NodeVC, so every later commit
//     this node votes on carries a clock at or above it, and an entry is
//     covered once its own freeze, or any later one, lands here.
//   - Clocks loaded from the published snapshot are immutable; callers
//     clone before mutating.
package commitlog

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
)

// Status of a CommitQ entry.
type Status uint8

// CommitQ entry states: a transaction is pending between Prepare and
// Decide, ready after a commit decision until it reaches the queue head and
// applies.
const (
	StatusPending Status = iota + 1
	StatusReady
)

// ApplyFunc installs a transaction's writes with its final commit vector
// clock. It is invoked with the log mutex held; implementations must not
// call back into the Log.
type ApplyFunc func(commitVC vclock.VC)

// Entry is one applied commit in the NLog.
type Entry struct {
	Txn wire.TxnID
	VC  vclock.VC
}

type qEntry struct {
	txn    wire.TxnID
	vc     vclock.VC
	status Status
	apply  ApplyFunc
}

// clockSnap is the immutable clock snapshot published after every mutation.
// Readers must not modify the clocks they load from it.
type clockSnap struct {
	nodeVC     vclock.VC
	mostRecent vclock.VC
	external   vclock.VC
	// snapshot is mostRecent ∨ external, precomputed so SnapshotVC — the
	// per-transaction begin clock — is a single clone.
	snapshot vclock.VC
	applied  uint64
}

// waiter is one blocked WaitMostRecent call: a channel closed when the
// apply frontier reaches bound. index is the heap position (maintained by
// waiterHeap), -1 once removed, so a timed-out caller can deregister
// itself.
type waiter struct {
	bound uint64
	ch    chan struct{}
	index int
}

// waiterHeap is a min-heap of waiters by bound.
type waiterHeap []*waiter

func (h waiterHeap) Len() int           { return len(h) }
func (h waiterHeap) Less(i, j int) bool { return h[i].bound < h[j].bound }
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}

// Log is the per-node commit machinery. Create with New.
type Log struct {
	self int // own index in vector clocks
	n    int

	mu     sync.Mutex
	nodeVC vclock.VC
	q      []*qEntry // ordered by vc[self], ties by TxnID

	// entries holds the applied commits external does not cover, in apply
	// order, at most capacity of them (a full log evicts its oldest). The
	// implicit genesis entry, the zero clock, is always visible.
	entries    []Entry
	capacity   int
	mostRecent vclock.VC // entry-wise max over all applied commits
	// external is the entry-wise max over the commit clocks of transactions
	// this node *coordinated* to external commit. A pure coordinator (not a
	// write replica) records no NLog entry, so without this clock a later
	// transaction on the same node could begin beneath a commit whose client
	// reply it causally follows — an external-consistency violation.
	external vclock.VC
	applied  uint64 // total applied, for stats

	// clocks is the published immutable snapshot; frontier mirrors
	// mostRecent[self] for the WaitMostRecent fast path.
	clocks   atomic.Pointer[clockSnap]
	frontier atomic.Uint64

	// Waiter registry for WaitMostRecent. waiterCount lets the apply path
	// skip the registry lock when nobody waits.
	wmu         sync.Mutex
	waiters     waiterHeap
	waiterCount atomic.Int64

	cstats *metrics.Contention // optional, set via SetContention
}

// DefaultCapacity is the default bound on the uncovered NLog entries: an
// entry stays uncovered only while its transaction's freeze has not landed
// here, so a node holds about as many as it has updates in flight.
const DefaultCapacity = 4096

// New builds the commit machinery for node self of an n-node cluster.
// capacity bounds the uncovered NLog entries; 0 selects DefaultCapacity.
// Nothing is sized for the capacity up front.
func New(self, n, capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	l := &Log{
		self:       self,
		n:          n,
		nodeVC:     vclock.New(n),
		capacity:   capacity,
		mostRecent: vclock.New(n),
		external:   vclock.New(n),
	}
	l.publishLocked()
	return l
}

// SetContention wires the optional contention counters. Call before serving
// traffic.
func (l *Log) SetContention(c *metrics.Contention) { l.cstats = c }

// publishLocked republishes the immutable clock snapshot. Called with mu
// held after every mutation of nodeVC/mostRecent/external. The four clock
// copies share one backing array: the publish is two allocations, not
// five, and the snapshot stays cache-adjacent — it is republished on every
// apply, decide and external-knowledge fold, which makes it one of the
// hottest allocation sites on the commit path.
func (l *Log) publishLocked() {
	n := len(l.nodeVC)
	backing := make([]uint64, 4*n)
	snap := &clockSnap{
		nodeVC:     vclock.VC(backing[0*n : 1*n : 1*n]),
		mostRecent: vclock.VC(backing[1*n : 2*n : 2*n]),
		external:   vclock.VC(backing[2*n : 3*n : 3*n]),
		snapshot:   vclock.VC(backing[3*n : 4*n : 4*n]),
		applied:    l.applied,
	}
	copy(snap.nodeVC, l.nodeVC)
	copy(snap.mostRecent, l.mostRecent)
	copy(snap.external, l.external)
	copy(snap.snapshot, l.mostRecent)
	snap.snapshot.MaxInto(snap.external)
	l.clocks.Store(snap)
	l.frontier.Store(l.mostRecent[l.self])
}

// NodeVC returns a copy of the node's current vector clock.
func (l *Log) NodeVC() vclock.VC {
	return l.clocks.Load().nodeVC.Clone()
}

// MostRecentVC returns a copy of NLog.mostRecentVC.
func (l *Log) MostRecentVC() vclock.VC {
	return l.clocks.Load().mostRecent.Clone()
}

// RecordExternal folds the commit clock of an externally-committed
// transaction this node coordinated or froze. It deliberately does not
// touch mostRecent: mostRecent[self] tracks the in-order apply frontier,
// and the folded clock may reference slots still draining elsewhere.
func (l *Log) RecordExternal(vc vclock.VC) {
	l.mu.Lock()
	l.external.MaxInto(vc)
	l.dropCoveredLocked()
	l.publishLocked()
	l.mu.Unlock()
}

// ExternalVC returns the node's externally-committed knowledge clock: the
// join of the commit clocks recorded via RecordExternal. Unlike mostRecent
// it never covers applied-but-parked transactions, so it is safe to fold
// into other transactions' clocks without fabricating dependencies.
func (l *Log) ExternalVC() vclock.VC {
	return l.clocks.Load().external.Clone()
}

// FoldKnowledge folds a peer's externally-committed knowledge clock into
// both this node's external clock and its NodeVC. Recovery's clock
// catch-up round uses it: raising external keeps post-restart snapshot
// bounds above everything the cluster already served, and raising NodeVC
// preserves the Bootstrap invariant NodeVC >= external so fresh write
// slots are assigned above every externally known stamp of this node.
func (l *Log) FoldKnowledge(ext vclock.VC) {
	l.mu.Lock()
	l.nodeVC.MaxInto(ext)
	l.external.MaxInto(ext)
	l.dropCoveredLocked()
	l.publishLocked()
	l.mu.Unlock()
}

// FoldExternalInto folds the externally-committed knowledge clock into vc
// in place — the allocation- and lock-free form of ExternalVC for hot read
// paths.
func (l *Log) FoldExternalInto(vc vclock.VC) {
	vc.MaxInto(l.clocks.Load().external)
}

// AppliedSelf returns mostRecent[self]: the node's in-order apply frontier,
// without cloning the whole clock.
func (l *Log) AppliedSelf() uint64 {
	return l.frontier.Load()
}

// SnapshotVC returns the clock a fresh transaction on this node must adopt:
// the applied frontier joined with every commit this node coordinated to
// external commit (client replies preceding the transaction's begin,
// including the write replicas' external-commit stamps). Covering the
// applied frontier orders the transaction after every version its node has
// already exposed, which keeps concurrent readers' cuts aligned; covering
// the external clock is what makes real-time order binding for pure
// coordinators.
func (l *Log) SnapshotVC() vclock.VC {
	return l.clocks.Load().snapshot.Clone()
}

// Applied returns the total number of applied commits (excluding genesis).
func (l *Log) Applied() uint64 {
	return l.clocks.Load().applied
}

// Prepare runs the participant side of the 2PC prepare phase (Algorithm 2):
// if the node replicates one of the transaction's written keys, it
// increments its own NodeVC entry, enqueues the transaction as pending with
// the incremented clock, and proposes that clock; otherwise it proposes
// NLog.mostRecentVC. apply is retained and invoked at internal commit.
func (l *Log) Prepare(txn wire.TxnID, writeReplica bool, apply ApplyFunc) vclock.VC {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !writeReplica {
		return l.mostRecent.Clone()
	}
	l.nodeVC[l.self]++
	prep := l.nodeVC.Clone()
	l.insertLocked(&qEntry{txn: txn, vc: prep, status: StatusPending, apply: apply})
	l.publishLocked()
	return prep
}

// Decide runs the participant side of the 2PC decide phase (Algorithm 2).
// On commit it folds commitVC into NodeVC and, if the node is a write
// replica, re-orders the queue entry under its final clock and marks it
// ready; on abort it drops the entry. It then drains every ready entry at
// the queue head: each drained transaction's writes are applied and its
// commit recorded in the NLog ("internal commit"). Decide reports whether
// txn itself was applied during this call (write replicas only, commit
// only).
func (l *Log) Decide(txn wire.TxnID, commitVC vclock.VC, commit, writeReplica bool) bool {
	l.mu.Lock()
	if commit {
		l.nodeVC.MaxInto(commitVC)
		if writeReplica {
			l.updateLocked(txn, commitVC)
		}
	} else if writeReplica {
		l.removeLocked(txn)
	}
	appliedSelf := l.drainLocked(txn)
	l.publishLocked()
	frontier := l.mostRecent[l.self]
	l.mu.Unlock()
	l.wakeWaiters(frontier)
	return appliedSelf
}

// insertLocked places e in queue order: ascending vc[self], ties broken by
// transaction ID for determinism.
func (l *Log) insertLocked(e *qEntry) {
	idx := sort.Search(len(l.q), func(i int) bool {
		return l.qLess(e, l.q[i])
	})
	l.q = append(l.q, nil)
	copy(l.q[idx+1:], l.q[idx:])
	l.q[idx] = e
}

// qLess orders queue entries by vc[self], breaking ties by transaction ID
// so every replica drains identically-clocked entries in the same order.
func (l *Log) qLess(a, b *qEntry) bool {
	if a.vc[l.self] != b.vc[l.self] {
		return a.vc[l.self] < b.vc[l.self]
	}
	if a.txn.Node != b.txn.Node {
		return a.txn.Node < b.txn.Node
	}
	return a.txn.Seq < b.txn.Seq
}

func (l *Log) updateLocked(txn wire.TxnID, commitVC vclock.VC) {
	for i, e := range l.q {
		if e.txn == txn {
			l.q = append(l.q[:i], l.q[i+1:]...)
			e.vc = commitVC.Clone()
			e.status = StatusReady
			l.insertLocked(e)
			return
		}
	}
}

func (l *Log) removeLocked(txn wire.TxnID) {
	for i, e := range l.q {
		if e.txn == txn {
			l.q = append(l.q[:i], l.q[i+1:]...)
			return
		}
	}
}

// drainLocked applies every ready transaction at the queue head, in order.
func (l *Log) drainLocked(self wire.TxnID) bool {
	appliedSelf := false
	for len(l.q) > 0 && l.q[0].status == StatusReady {
		e := l.q[0]
		l.q = l.q[1:]
		if e.apply != nil {
			e.apply(e.vc)
		}
		l.appendLocked(Entry{Txn: e.txn, VC: e.vc})
		if e.txn == self {
			appliedSelf = true
		}
	}
	return appliedSelf
}

func (l *Log) appendLocked(e Entry) {
	l.mostRecent.MaxInto(e.VC)
	l.applied++
	if e.VC.LessEq(l.external) {
		return // covered already: no read bound can need it
	}
	if len(l.entries) == l.capacity {
		l.entries[0] = Entry{}
		l.entries = l.entries[1:]
	}
	l.entries = append(l.entries, e)
}

// dropCoveredLocked removes the entries external now covers, keeping the
// rest in apply order. Called whenever external grows.
func (l *Log) dropCoveredLocked() {
	kept := l.entries[:0]
	for _, e := range l.entries {
		if !e.VC.LessEq(l.external) {
			kept = append(kept, e)
		}
	}
	clear(l.entries[len(kept):])
	l.entries = kept
}

// wakeWaiters releases every registered waiter whose bound the apply
// frontier has reached. Called outside mu.
func (l *Log) wakeWaiters(frontier uint64) {
	if l.waiterCount.Load() == 0 {
		return
	}
	l.wmu.Lock()
	for len(l.waiters) > 0 && l.waiters[0].bound <= frontier {
		w := heap.Pop(&l.waiters).(*waiter)
		close(w.ch)
		l.waiterCount.Add(-1)
		if l.cstats != nil {
			l.cstats.LogWakeups.Add(1)
		}
	}
	l.wmu.Unlock()
}

// WaitMostRecent blocks until NLog.mostRecentVC[self] >= bound (Algorithm 6
// line 5) or the timeout elapses, and reports whether the bound was met.
// The satisfied case — every repeat contact of a read-only transaction — is
// a single atomic load; blocked callers register a per-bound waiter that is
// woken exactly when the frontier reaches their bound.
func (l *Log) WaitMostRecent(bound uint64, timeout time.Duration) bool {
	if l.frontier.Load() >= bound {
		return true
	}
	if l.cstats != nil {
		l.cstats.LogWaits.Add(1)
	}
	w := &waiter{bound: bound, ch: make(chan struct{})}
	l.wmu.Lock()
	heap.Push(&l.waiters, w)
	l.waiterCount.Add(1)
	l.wmu.Unlock()
	// Re-check after registering: an advance between the fast-path check
	// and the registration would otherwise be a lost wakeup.
	if l.frontier.Load() >= bound {
		l.deregister(w)
		return true
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.ch:
		return true
	case <-timer.C:
		// Deregister so a stalled frontier cannot accumulate abandoned
		// waiters.
		l.deregister(w)
		if l.cstats != nil {
			l.cstats.LogWaitTimeouts.Add(1)
		}
		return l.frontier.Load() >= bound
	}
}

// deregister removes w from the waiter heap unless a wake already popped it
// (index -1).
func (l *Log) deregister(w *waiter) {
	l.wmu.Lock()
	if w.index >= 0 {
		heap.Remove(&l.waiters, w.index)
		l.waiterCount.Add(-1)
	}
	l.wmu.Unlock()
}

// VisibleMax computes Algorithm 6 lines 6–9: the entry-wise maximum over
// NLog entries visible under (hasRead, bound), excluding entries written by
// transactions in excluded. The genesis entry (the zero clock) guarantees a
// result for any bound. hasRead may be nil (no constraint). The NLog keeps
// only the entries external does not cover, so the result is exact once
// the caller joins ExternalVC, as the read path does.
func (l *Log) VisibleMax(hasRead []bool, bound vclock.VC, excluded map[wire.TxnID]struct{}) vclock.VC {
	out := vclock.New(l.n)
	l.VisibleMaxInto(out, hasRead, bound, excluded)
	return out
}

// VisibleMaxInto is VisibleMax folding into caller-provided dst (not reset:
// dst's existing entries participate in the max, matching the fold-into-
// bound use on the read path; pass a zeroed clock for a pure query).
func (l *Log) VisibleMaxInto(dst vclock.VC, hasRead []bool, bound vclock.VC, excluded map[wire.TxnID]struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.entries {
		e := &l.entries[i]
		if !visible(e.VC, hasRead, bound) {
			continue
		}
		if _, ex := excluded[e.Txn]; ex && !e.Txn.IsZero() {
			continue
		}
		dst.MaxInto(e.VC)
	}
}

func visible(vc vclock.VC, hasRead []bool, bound vclock.VC) bool {
	if hasRead == nil {
		return true
	}
	for w, read := range hasRead {
		if read && vc[w] > bound[w] {
			return false
		}
	}
	return true
}

// Bootstrap seeds a fresh Log with recovered clock state before WAL replay
// (recovery only; the Log must not yet be serving traffic). mostRecent is
// the checkpoint's apply-frontier clock and external its externally-
// committed knowledge clock. A synthetic "checkpoint barrier" NLog entry
// carrying mostRecent stands in for every pre-checkpoint entry the
// checkpoint compacted away, so VisibleMax over the restored log still
// covers the checkpointed history (unless external already does, when the
// barrier is dropped like any covered entry); its zero TxnID never matches
// an exclusion set. The single joined entry is a valid summary because the
// apply frontier advances only in CommitQ order — every transaction it
// covers had applied before the checkpoint cut.
func (l *Log) Bootstrap(mostRecent, external vclock.VC) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nodeVC.MaxInto(mostRecent)
	l.nodeVC.MaxInto(external)
	l.external.MaxInto(external)
	l.dropCoveredLocked()
	barrier := mostRecent.Clone()
	barrier.MaxInto(l.mostRecent)
	l.appendLocked(Entry{VC: barrier})
	l.publishLocked()
}

// Len returns the number of retained NLog entries: the applied commits
// external does not cover yet (genesis excluded).
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// QueueLen returns the current CommitQ length (for tests and stats).
func (l *Log) QueueLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.q)
}

// String summarizes the log state for debugging.
func (l *Log) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return fmt.Sprintf("commitlog{node=%d q=%d applied=%d mostRecent=%v}",
		l.self, len(l.q), l.applied, l.mostRecent)
}
