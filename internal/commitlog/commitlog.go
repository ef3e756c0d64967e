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
// Read-side accesses avoid that mutex entirely:
//
//   - The clock reads every transaction begin and read reply performs
//     (NodeVC, MostRecentVC, SnapshotVC, ExternalVC, AppliedSelf) are served
//     from an immutable snapshot republished through an atomic.Pointer on
//     every mutation.
//   - VisibleMax (Algorithm 6 lines 6–9) is answered from an incrementally
//     maintained visibility index — a cumulative-max shortcut for
//     unconstrained bounds plus per-bucket clock maxima over the ring — so
//     its cost no longer scales with the NLog capacity.
//   - WaitMostRecent (Algorithm 6 line 5) spins on an atomic apply-frontier
//     fast path and, when it must block, registers in a per-bound waiter
//     min-heap so a frontier advance wakes exactly the waiters it satisfies
//     instead of broadcasting to all of them.
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

// bucketAgg is the visibility index's per-bucket aggregate: the entry-wise
// clock maximum and minimum over the ring entries of one bucket epoch. The
// max admits a bucket wholesale when it passes the visibility filter; the
// min rejects a bucket wholesale when no entry can pass (a constrained
// query near the frontier skips the buckets above its bound this way).
type bucketAgg struct {
	epoch uint64    // 1-based bucket epoch this slot currently aggregates; 0 = empty
	max   vclock.VC // entry-wise max over the epoch's appended entries
	min   vclock.VC // entry-wise min over the epoch's appended entries
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

	genesis Entry // always-retained zero entry
	// entries is the ring of applied commits. It grows by appending until
	// it holds capacity entries (start stays 0 until then), so a node's
	// footprint follows what it has retained, not the retention cap.
	entries    []Entry
	start      int // ring start index
	count      int
	capacity   int
	mostRecent vclock.VC // entry-wise max over all applied commits
	// external is the entry-wise max over the commit clocks of transactions
	// this node *coordinated* to external commit. A pure coordinator (not a
	// write replica) records no NLog entry, so without this clock a later
	// transaction on the same node could begin beneath a commit whose client
	// reply it causally follows — an external-consistency violation.
	external vclock.VC
	applied  uint64 // total applied, for stats; doubles as the newest seq

	// Visibility index (all mutated under mu). Applied commits are numbered
	// 1.. in apply order (seq == applied at append time); the ring position
	// of seq s is (s-1) % capacity, and bucket epoch (s-1)>>bucketShift
	// groups 2^bucketShift consecutive seqs. Slots cycle through the epochs;
	// slot sizing guarantees an epoch is fully evicted before its slot is
	// reused (see New).
	bucketShift uint
	buckets     []bucketAgg
	// txnSeq maps each retained entry's transaction to its seq, locating
	// excluded writers' buckets in O(1).
	txnSeq map[wire.TxnID]uint64

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

// DefaultCapacity is the default NLog retention: large enough that the
// visibility index, not eviction, bounds what readers can cover.
const DefaultCapacity = 65536

// New builds the commit machinery for node self of an n-node cluster.
// capacity bounds NLog retention; 0 selects DefaultCapacity. Neither the
// ring nor the txn→seq index is pre-sized: both grow with the retained
// entries, up to capacity.
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
		// The genesis entry makes the visible set non-empty for any bound.
		genesis: Entry{VC: vclock.New(n)},
		txnSeq:  make(map[wire.TxnID]uint64),
	}
	// Bucket width ~sqrt(capacity), clamped to [1, 256]: a query folds
	// ~capacity/width bucket maxima plus at most one partially-evicted head
	// bucket of `width` entries.
	l.bucketShift = 0
	for (1<<(l.bucketShift+1))*(1<<(l.bucketShift+1)) <= capacity && l.bucketShift < 8 {
		l.bucketShift++
	}
	width := 1 << l.bucketShift
	// One epoch spans `width` seqs; an epoch's slot may only be reused once
	// the epoch is fully evicted, which holds for slots >= capacity/width+2
	// regardless of capacity/width divisibility.
	slots := capacity/width + 2
	l.buckets = make([]bucketAgg, slots)
	clocks := make([]uint64, 2*slots*n) // one backing array for every aggregate
	for i := range l.buckets {
		l.buckets[i].max = vclock.VC(clocks[2*i*n : (2*i+1)*n : (2*i+1)*n])
		l.buckets[i].min = vclock.VC(clocks[(2*i+1)*n : (2*i+2)*n : (2*i+2)*n])
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
	if l.count == l.capacity {
		// Evict the oldest entry; the separately-held genesis entry keeps
		// the visible set non-empty regardless.
		delete(l.txnSeq, l.entries[l.start].Txn)
		l.entries[l.start] = e
		l.start = (l.start + 1) % l.capacity
	} else {
		// Not yet full: start is 0 and the ring is the slice itself.
		l.growLocked()
		l.entries = append(l.entries, e)
		l.count++
	}
	l.mostRecent.MaxInto(e.VC)
	l.applied++
	l.indexAppendLocked(e, l.applied)
}

// growLocked makes room for one more entry while the ring is below
// capacity, doubling its backing array but never past capacity, so a full
// ring costs exactly capacity entries.
func (l *Log) growLocked() {
	if len(l.entries) < cap(l.entries) {
		return
	}
	grown := make([]Entry, len(l.entries), min(max(2*cap(l.entries), 16), l.capacity))
	copy(grown, l.entries)
	l.entries = grown
}

// indexAppendLocked folds the appended entry (seq = its 1-based apply
// number) into the visibility index.
func (l *Log) indexAppendLocked(e Entry, seq uint64) {
	l.txnSeq[e.Txn] = seq
	epoch := (seq - 1) >> l.bucketShift
	b := &l.buckets[epoch%uint64(len(l.buckets))]
	if b.epoch != epoch+1 {
		// First entry of a new epoch: the slot's previous occupant is fully
		// evicted by construction, so overwrite its aggregate.
		b.epoch = epoch + 1
		b.max.CopyFrom(e.VC)
		b.min.CopyFrom(e.VC)
		return
	}
	b.max.MaxInto(e.VC)
	b.min.MinInto(e.VC)
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
// transactions in excluded. The genesis entry guarantees a result for any
// bound. hasRead may be nil (no constraint).
func (l *Log) VisibleMax(hasRead []bool, bound vclock.VC, excluded map[wire.TxnID]struct{}) vclock.VC {
	out := vclock.New(l.n)
	l.VisibleMaxInto(out, hasRead, bound, excluded)
	return out
}

// VisibleMaxInto is VisibleMax folding into caller-provided dst (not reset:
// dst's existing entries participate in the max, matching the fold-into-
// bound use on the read path; pass a zeroed clock for a pure query).
//
// The visibility index answers it without scanning the ring:
//
//   - Unconstrained bounds with no exclusions are the cumulative max over
//     the retained entries — mostRecent itself while nothing has been
//     evicted, a fold of ~capacity/bucketWidth bucket maxima otherwise.
//   - Constrained bounds fold each bucket's clock maximum wholesale when it
//     passes the per-node visibility filter (every entry beneath it then
//     passes too); only buckets straddling the bound are scanned entry-wise.
//   - Excluded writers are located via the txn→seq side index and their
//     buckets scanned entry-wise; exclusion sets are small (the parked
//     writers of one key), so this touches O(1) buckets.
func (l *Log) VisibleMaxInto(dst vclock.VC, hasRead []bool, bound vclock.VC, excluded map[wire.TxnID]struct{}) {
	constrained := false
	for _, r := range hasRead {
		if r {
			constrained = true
			break
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 {
		return // genesis only: the zero clock
	}
	if !constrained && len(excluded) == 0 && l.applied <= uint64(l.capacity) {
		// Nothing evicted: the ring is the full history, whose cumulative
		// max is mostRecent.
		dst.MaxInto(l.mostRecent)
		return
	}

	liveLo := l.applied - uint64(l.count) + 1
	// Buckets holding excluded writers must be scanned entry-wise. The set
	// is tiny, so a small slice beats a map.
	var exEpochs []uint64
	for id := range excluded {
		if seq, ok := l.txnSeq[id]; ok {
			exEpochs = append(exEpochs, (seq-1)>>l.bucketShift)
		}
	}
	width := uint64(1) << l.bucketShift
	epochLo := (liveLo - 1) >> l.bucketShift
	epochHi := (l.applied - 1) >> l.bucketShift
	for epoch := epochLo; epoch <= epochHi; epoch++ {
		bStart := epoch*width + 1
		bEnd := bStart + width - 1
		if bEnd > l.applied {
			bEnd = l.applied
		}
		lo := bStart
		if liveLo > lo {
			lo = liveLo
		}
		b := &l.buckets[epoch%uint64(len(l.buckets))]
		if constrained && noneVisible(b.min, hasRead, bound) {
			// Every entry in the epoch exceeds the bound on a constrained
			// component; the min covers evicted entries too, so this also
			// holds for a partially-evicted head bucket.
			continue
		}
		wholesale := lo == bStart && !containsEpoch(exEpochs, epoch) &&
			(!constrained || visible(b.max, hasRead, bound))
		if wholesale {
			dst.MaxInto(b.max)
			continue
		}
		for seq := lo; seq <= bEnd; seq++ {
			e := &l.entries[(seq-1)%uint64(l.capacity)]
			if constrained && !visible(e.VC, hasRead, bound) {
				continue
			}
			if _, ex := excluded[e.Txn]; ex && !e.Txn.IsZero() {
				continue
			}
			dst.MaxInto(e.VC)
		}
	}
}

func containsEpoch(epochs []uint64, epoch uint64) bool {
	for _, e := range epochs {
		if e == epoch {
			return true
		}
	}
	return false
}

// visibleMaxNaive is the seed's O(count) reference scan, retained as the
// oracle for the index equivalence property test and the speedup benchmark.
func (l *Log) visibleMaxNaive(hasRead []bool, bound vclock.VC, excluded map[wire.TxnID]struct{}) vclock.VC {
	l.mu.Lock()
	defer l.mu.Unlock()
	maxVC := vclock.New(l.n)
	// Genesis is always visible (all-zero clock) and never excluded.
	for j := 0; j < l.count; j++ {
		e := &l.entries[(l.start+j)%l.capacity]
		if !visible(e.VC, hasRead, bound) {
			continue
		}
		if _, ex := excluded[e.Txn]; ex && !e.Txn.IsZero() {
			continue
		}
		maxVC.MaxInto(e.VC)
	}
	return maxVC
}

// noneVisible reports whether a bucket whose entry-wise minimum is min can
// contain no visible entry: some constrained component already exceeds the
// bound at the minimum.
func noneVisible(min vclock.VC, hasRead []bool, bound vclock.VC) bool {
	for w, read := range hasRead {
		if read && min[w] > bound[w] {
			return true
		}
	}
	return false
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
// covers the checkpointed history; its zero TxnID never matches an
// exclusion set. The single joined entry is a valid summary because the
// apply frontier advances only in CommitQ order — every transaction it
// covers had applied before the checkpoint cut.
func (l *Log) Bootstrap(mostRecent, external vclock.VC) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nodeVC.MaxInto(mostRecent)
	l.nodeVC.MaxInto(external)
	l.external.MaxInto(external)
	barrier := mostRecent.Clone()
	barrier.MaxInto(l.mostRecent)
	l.appendLocked(Entry{VC: barrier})
	l.publishLocked()
}

// CommitClock returns the commit clock of a retained applied transaction.
// ok is false when txn is unknown or its NLog entry has been evicted.
// Recovery uses it as a secondary source when answering peers' in-doubt
// TxnStatus queries.
func (l *Log) CommitClock(txn wire.TxnID) (vclock.VC, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, ok := l.txnSeq[txn]
	if !ok {
		return nil, false
	}
	e := &l.entries[(seq-1)%uint64(l.capacity)]
	return e.VC.Clone(), true
}

// Len returns the number of retained NLog entries (excluding genesis).
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
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
