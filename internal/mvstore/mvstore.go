// Package mvstore implements SSS's per-node multi-versioned key repository
// together with the snapshot-queues of §III-A — the paper's novel
// mechanism.
//
// Every key holds a version chain (value + commit vector clock + writer) and
// a snapshot-queue of <txn, insertion-snapshot, kind> entries. Following the
// implementation note in §V, each snapshot-queue is physically split into a
// read-only list and an update list so read-dominated workloads scan few
// entries; semantically it is one queue ordered by insertion-snapshot.
//
// The store is sharded; every shard has one mutex and one condition variable
// broadcast on snapshot-queue removals, which is what parked update
// transactions (Algorithm 4) wait on.
//
// Invariants (see docs/CONSISTENCY.md §3–4):
//
//   - Version clocks and dependency sets are immutable once published; read
//     results and wire messages share them by reference, and no holder may
//     mutate them.
//   - A key's version chain and its snapshot-queue are read and updated
//     under one shard lock, so ReadRO's exclusion verdicts are atomic with
//     the version walk: a concurrently-committing writer is either excluded
//     or legitimately observed, never observed while missing its exclusion.
//   - The external-commit stamp on a W entry (and on the version, where it
//     outlives the purge) is the coordinator-assigned freeze vector's entry
//     for this node — the same value at every replica of the key — recorded
//     at freeze arrival. Read-only verdicts are functions of (stamp, reader
//     cut) only; the committed flag tracks re-drain progress and gates
//     other writers' drains, never reader visibility.
package mvstore

import (
	"sync"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
)

// Version is one committed version of a key. Versions form a singly-linked
// chain from newest to oldest.
//
// VC and Deps are immutable once the version is installed; read results and
// wire messages share them by reference (no defensive clones on the read
// hot path), so holders must never mutate them.
type Version struct {
	Val    []byte
	VC     vclock.VC
	Writer wire.TxnID
	// Deps is the producing transaction's dependency set (wire.Prepare.Deps):
	// the writers still parked when it read their versions, and their stored
	// sets in turn. Readers judge this version by it (sticky-exclusion
	// closure); it is handed on only while Writer is itself parked here.
	Deps []wire.TxnID
	// ExtSID is the external-commit stamp for this node's column: the
	// coordinator-assigned freeze vector's entry for this node
	// (commit clock joined with the drain-stage frontiers, see
	// docs/CONSISTENCY.md), recorded the moment the freeze message
	// arrives — before the freeze re-drain completes. Every replica of the
	// key records the same vector, so the stamp is replica-independent.
	// Zero means the writer's external commit has not been announced here
	// (or a preloaded genesis version). Read-only transactions whose bound
	// at this node is beneath the stamp exclude the version: external
	// commits at a node are totally ordered by their stamps, so reader
	// cuts respect the external-commit order even when it diverges from
	// the slot order (a writer can park for a long time and externally
	// commit *after* writers holding higher slots).
	ExtSID uint64
	Prev   *Version
}

// sqItem is a snapshot-queue entry plus its enqueue time (for the
// starvation-control backoff of §III-E).
type sqItem struct {
	wire.SQEntry
	at time.Time
	// stamp is the writer's external-commit stamp for this node's column
	// (the coordinator-assigned freeze vector entry), recorded at freeze
	// *arrival* — strictly before the freeze re-drain and the committed
	// flag. Zero means the writer's external commit is not yet announced
	// here. Reader verdicts key off (stamp, reader cut) alone, never off
	// committed, so every replica of a key reaches the same
	// include/exclude verdict for a freezing writer regardless of how
	// long its re-drain is gated locally.
	stamp uint64
	// committed marks a W entry whose freeze re-drain has completed
	// (flag phase): it no longer blocks later writers' drains. The entry
	// is purged asynchronously after the writer's client reply.
	committed bool
}

type keyState struct {
	last  *Version
	depth int // versions retained
	sqR   []sqItem
	sqW   []sqItem
}

const numShards = 128

type shard struct {
	mu   sync.Mutex
	cond *sync.Cond
	keys map[string]*keyState
	// roIndex maps a read-only transaction to the keys of this shard whose
	// snapshot-queues contain its entries, making Remove O(entries). The
	// value is a small slice (SQInsert never records duplicates), cheaper
	// than a per-transaction set on the read hot path.
	roIndex map[wire.TxnID][]string
}

// Store is a sharded multi-version repository. Create with New.
type Store struct {
	shards     []shard
	maxDepth   int
	nowFn      func() time.Time
	genesisVCn int
	cstats     *metrics.Contention // optional, set via SetContention

	// Trace, when non-nil, receives one event per read-only version-selection
	// decision (debug/test instrumentation; set before serving traffic).
	Trace func(ev TraceEvent)
}

// TraceEvent records one version-selection decision for debugging.
type TraceEvent struct {
	Reader     wire.TxnID
	Key        string
	Writer     wire.TxnID
	VC         vclock.VC
	Reason     string
	ExtSID     uint64
	StampBound uint64
	QueueState string // "", "parked", "flagged" — W entry state at decision
}

// SetContention wires the optional contention counters. Call before serving
// traffic.
func (s *Store) SetContention(c *metrics.Contention) { s.cstats = c }

// DefaultMaxDepth bounds the per-key version chain; older versions are
// pruned. Checker workloads raise MaxVersions so full chains survive for
// verification (docs/CONSISTENCY.md §6).
const DefaultMaxDepth = 64

// New builds an empty store for vector clocks of width n. maxDepth bounds
// version chains; 0 selects DefaultMaxDepth.
func New(n, maxDepth int) *Store {
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	s := &Store{
		shards:     make([]shard, numShards),
		maxDepth:   maxDepth,
		nowFn:      time.Now,
		genesisVCn: n,
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.keys = make(map[string]*keyState)
		sh.roIndex = make(map[wire.TxnID][]string)
		sh.cond = sync.NewCond(&sh.mu)
	}
	return s
}

func (s *Store) shard(key string) *shard {
	return &s.shards[cluster.KeyHash(key)%numShards]
}

func (sh *shard) state(key string) *keyState {
	ks := sh.keys[key]
	if ks == nil {
		ks = &keyState{}
		sh.keys[key] = ks
	}
	return ks
}

// Preload installs an initial version of key with the all-zero commit clock
// (a "genesis" version visible to every transaction). Used to load the
// dataset before the benchmark starts, like the paper's YCSB load phase.
func (s *Store) Preload(key string, val []byte) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.state(key)
	ks.last = &Version{Val: val, VC: vclock.New(s.genesisVCn)}
	ks.depth = 1
}

// Apply installs a new committed version of key (Algorithm 2 line 31). The
// chain is pruned to the configured depth. deps is the producing
// transaction's read-from set.
func (s *Store) Apply(key string, val []byte, commitVC vclock.VC, writer wire.TxnID, deps []wire.TxnID) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.state(key)
	ks.last = &Version{Val: val, VC: commitVC.Clone(), Writer: writer, Deps: deps, Prev: ks.last}
	ks.depth++
	if ks.depth > s.maxDepth {
		// Walk to the cut point and drop the tail.
		v := ks.last
		for i := 1; i < s.maxDepth; i++ {
			v = v.Prev
		}
		v.Prev = nil
		ks.depth = s.maxDepth
	}
}

// ReadResult is the outcome of a version selection. VC and Deps are shared
// with the stored version (see Version); callers must treat them as
// read-only.
type ReadResult struct {
	Val    []byte
	Exists bool
	VC     vclock.VC
	Writer wire.TxnID
	Deps   []wire.TxnID
}

// Latest returns the most recent version of key (the update-transaction
// read path, Algorithm 6 lines 24–27).
func (s *Store) Latest(key string) ReadResult {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.keys[key]
	if ks == nil || ks.last == nil {
		return ReadResult{}
	}
	v := ks.last
	return ReadResult{Val: v.Val, Exists: true, VC: v.VC, Writer: v.Writer, Deps: v.Deps}
}

func queueStateLocked(ks *keyState, txn wire.TxnID) string {
	for _, e := range ks.sqW {
		if e.Txn == txn {
			if e.committed {
				return "flagged"
			}
			return "parked"
		}
	}
	return ""
}

// readVisibleLocked walks the version chain under the shard lock and selects
// the version a read-only transaction observes (Algorithm 6 lines 11–14 /
// 18–21). Precedence of the filters:
//
//  1. Sticky exclusion (beforeIDs) wins over everything, including
//     observation: once a reader serialized before a writer, that writer
//     stays invisible for the rest of the transaction (its entries may
//     flag at other replicas while the reader runs). Versions that read
//     from an excluded writer's parked version are skipped via their Deps
//     closure; versions downstream of its *flagged* versions cannot exist
//     before the reader completes when the flag waited for the reader's
//     R entries (freeze gating), and otherwise — the writer was excluded by
//     a stamp verdict after it flagged — carry a clock at or above that
//     stamp, which rule 4 rejects (the engine holds maxVC beneath it).
//  2. Blanket exclusion (excluded: parked, unflagged writers) applies
//     unless the writer is in seen — the reader genuinely observed one of
//     its versions, or a version that read from it, elsewhere (which
//     implies the writer has externally committed, since a version only
//     becomes visible after its writer's freeze). Provisional versions are
//     otherwise never served to read-only transactions: two in-flight
//     readers could order two concurrent provisional writers oppositely,
//     and no local information can detect it (§III-C, Figure 2).
//  3. The external-commit stamp: a flagged version whose stamp exceeds the
//     reader's bound at this node is excluded, stickily. External commits
//     at a node are totally ordered by their stamps, so this keeps reader
//     cuts consistent with the external-commit order even when it diverges
//     from the slot order (a long-parked writer can externally commit
//     after writers holding higher slots).
//  4. The per-node visibility bound (tooNew) is waived for versions at or
//     beneath obsVC: they are causally inside the snapshot already, and the
//     bound was frozen before the observation.
//
// It reports the selected version, the writers skipped due to exclusion, the
// smallest local slot among their versions (0 = none), and the selected
// version's writer when its W entry is still in the queue (its client reply
// may not have been released yet).
func (s *Store) readVisibleLocked(reader wire.TxnID, key string, ks *keyState, self int, stampBound uint64, hasRead []bool, maxVC vclock.VC, seen, excluded, beforeIDs map[wire.TxnID]struct{}, obsVC vclock.VC) (ReadResult, []wire.ExWriter, uint64, wire.TxnID) {
	trace := func(v *Version, reason string) {
		if s.Trace != nil {
			s.Trace(TraceEvent{Reader: reader, Key: key, Writer: v.Writer, VC: v.VC,
				Reason: reason, ExtSID: v.ExtSID, StampBound: stampBound,
				QueueState: queueStateLocked(ks, v.Writer)})
		}
	}
	var skipped []wire.ExWriter
	var lowSID uint64
	var skippedIDs map[wire.TxnID]struct{}
	skip := func(v *Version) {
		ex := wire.ExWriter{Txn: v.Writer}
		if v.ExtSID > stampBound {
			// Externally committing here above the reader's cut: the reader
			// takes the stamp with it (wire.ExWriter).
			ex.VC = vclock.New(len(v.VC))
			ex.VC[self] = v.ExtSID
		}
		skipped = append(skipped, ex)
		lowSID = lowerSID(lowSID, v.VC[self])
		if skippedIDs == nil {
			skippedIDs = make(map[wire.TxnID]struct{})
		}
		skippedIDs[v.Writer] = struct{}{}
	}
	isOut := func(id wire.TxnID) bool {
		if _, ok := seen[id]; ok {
			return false
		}
		if _, ex := excluded[id]; ex {
			return true
		}
		if _, ex := beforeIDs[id]; ex {
			return true
		}
		_, ex := skippedIDs[id]
		return ex
	}
	for v := ks.last; v != nil; v = v.Prev {
		observed := obsVC != nil && v.VC.LessEq(obsVC)
		if !v.Writer.IsZero() {
			if _, ex := beforeIDs[v.Writer]; ex {
				trace(v, "sticky")
				skip(v)
				continue
			}
			if isOut(v.Writer) {
				trace(v, "excluded")
				skip(v)
				continue
			}
			dep := false
			for _, d := range v.Deps {
				if isOut(d) {
					dep = true
					break
				}
			}
			if dep {
				trace(v, "dep")
				skip(v)
				continue
			}
			if v.ExtSID > stampBound && !observed {
				if _, ok := seen[v.Writer]; !ok {
					trace(v, "stamp")
					skip(v)
					continue
				}
			}
		}
		if !observed && tooNew(v.VC, hasRead, maxVC) {
			trace(v, "bound")
			continue
		}
		var pending wire.TxnID
		if !v.Writer.IsZero() && hasWriteEntryLocked(ks, v.Writer) {
			pending = v.Writer
		}
		trace(v, "chosen")
		return ReadResult{Val: v.Val, Exists: true, VC: v.VC, Writer: v.Writer, Deps: v.Deps}, skipped, lowSID, pending
	}
	return ReadResult{}, skipped, lowSID, wire.TxnID{}
}

// lowerSID returns the smaller of two slots, 0 standing for "none".
func lowerSID(low, sid uint64) uint64 {
	if sid > 0 && (low == 0 || sid < low) {
		return sid
	}
	return low
}

func hasWriteEntryLocked(ks *keyState, txn wire.TxnID) bool {
	for _, e := range ks.sqW {
		if e.Txn == txn {
			return true
		}
	}
	return false
}

// RORead is the outcome of an atomic read-only version selection.
type RORead struct {
	Res ReadResult
	// Skipped lists the writers whose applied versions the walk excluded
	// (sticky exclusion, §III-C), in the form the reader carries them.
	Skipped []wire.ExWriter
	// QueueSkips lists parked writers excluded at queue level: their W entry
	// is in the snapshot-queue but their version may not be applied yet.
	QueueSkips []wire.ExWriter
	// LowSID is the smallest local slot or insertion-snapshot among Skipped
	// and QueueSkips (0 = none): the reader's R entry must sit beneath it so
	// that every writer it excluded drains behind it.
	LowSID uint64
	// PendingWriter names the returned version's writer when it is still
	// parked (provisional); zero otherwise.
	PendingWriter wire.TxnID
}

// ReadRO performs the read-only version selection of Algorithm 6 atomically:
// the parked-writer exclusion set is computed from the snapshot-queue under
// the same shard lock as the version-chain walk, so a writer internally
// committing concurrently (W entry enqueued, version applied) can never be
// observed while missing its exclusion.
//
// Exclusion is blanket (§III-C) for writers whose external commit has not
// been announced (stamp == 0): every such parked writer is excluded — the
// reader serializes before it — unless the reader already observed one of
// its versions elsewhere (seen). Writers whose freeze has been announced
// carry the coordinator-assigned, replica-independent stamp, and the
// verdict is deterministic in (stamp, reader cut): include iff the stamp
// is at or beneath the reader's cut at this node (stampBound), exclude —
// stickily — otherwise. The local committed flag (re-drain progress) never
// participates, so all replicas of a key agree on the verdict for any
// given cut. The queue-level exclusions are reported so the reader keeps
// excluding them (and, through LowSID, the engine parks their freezes beneath
// the reader's R entry).
//
// self is this node's clock column; seen lists
// writers the reader already observed (never re-excluded); beforeIDs
// carries the sticky exclusion set (always excluded); obsVC is the
// reader's observed clock. stampBound is the reader's external-commit cut
// at this node (its incoming clock joined with its observed clock and the
// computed bound): flagged versions stamped above it are excluded.
//
// scratchEx, when non-nil, is a caller-provided empty map used for the
// queue-exclusion set — the allocation-free form for pooled read scratch.
// It is consumed under the shard lock and not retained; the caller may
// clear and reuse it after the call.
//
// The verdict never blocks: a decided writer whose stamp has not landed here
// is excluded blind (why no bounded wait: docs/CONSISTENCY.md §5 and §7).
//
// The ignored int (once a clock width) and the ignored tail exist only for
// benchmark/probes.go, which still passes a width and two wait budgets.
func (s *Store) ReadRO(reader wire.TxnID, key string, self, _ int, stampBound uint64, hasRead []bool, maxVC vclock.VC, seen, beforeIDs map[wire.TxnID]struct{}, obsVC vclock.VC, scratchEx map[wire.TxnID]struct{}, _ ...time.Duration) RORead {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.keys[key]
	if ks == nil {
		return RORead{}
	}

	excluded := scratchEx
	if excluded == nil {
		excluded = make(map[wire.TxnID]struct{}, len(ks.sqW))
	}
	var queueSkips []wire.ExWriter
	var queueLow uint64
	for _, e := range ks.sqW {
		if e.stamp != 0 {
			// Announced: the writer's version is applied and carries the
			// same stamp, so the version walk's stamp filter is the
			// authoritative verdict — include iff stamp ≤ stampBound, with
			// the Seen and observed-clock causal bypasses the queue entry
			// cannot evaluate (it has no version clock). Never queue-exclude
			// an announced writer: the verdict must not depend on whether
			// this replica's purge has landed, and it never consults the
			// committed flag, so it cannot depend on how long the freeze
			// re-drain is gated here either.
			continue
		}
		if _, ok := seen[e.Txn]; ok {
			continue
		}
		excluded[e.Txn] = struct{}{}
		queueSkips = append(queueSkips, wire.ExWriter{Txn: e.Txn})
		queueLow = lowerSID(queueLow, e.SID)
	}

	res, skipped, low, pending := s.readVisibleLocked(reader, key, ks, self, stampBound, hasRead, maxVC, seen, excluded, beforeIDs, obsVC)
	return RORead{Res: res, Skipped: skipped, QueueSkips: queueSkips, LowSID: lowerSID(low, queueLow), PendingWriter: pending}
}

func tooNew(vc vclock.VC, hasRead []bool, maxVC vclock.VC) bool {
	for w, read := range hasRead {
		if read && vc[w] > maxVC[w] {
			return true
		}
	}
	return false
}

// --- snapshot-queue operations ---

// SQInsert enqueues entry on key's snapshot-queue. A transaction has at
// most one entry of each kind per key: re-insertion keeps the smaller
// insertion-snapshot (the binding constraint for Algorithm 4's wait).
func (s *Store) SQInsert(key string, entry wire.SQEntry) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.state(key)
	list := &ks.sqR
	if entry.Kind == wire.EntryWrite {
		list = &ks.sqW
	}
	for i := range *list {
		if (*list)[i].Txn == entry.Txn {
			if entry.SID < (*list)[i].SID {
				(*list)[i].SID = entry.SID
			}
			return
		}
	}
	*list = append(*list, sqItem{SQEntry: entry, at: s.nowFn()})
	if entry.Kind == wire.EntryRead {
		// No duplicate guard needed: the loop above returns on re-insertion
		// of an existing entry, so (txn, key) lands here at most once.
		sh.roIndex[entry.Txn] = append(sh.roIndex[entry.Txn], key)
	}
}

// SQRemoveRead deletes every read entry owned by txn across the store (the
// effect of the Remove message, §III-C) and wakes parked writers. It
// returns the number of entries removed.
func (s *Store) SQRemoveRead(txn wire.TxnID) int {
	removed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		keys := sh.roIndex[txn]
		if len(keys) > 0 {
			for _, key := range keys {
				ks := sh.keys[key]
				if ks == nil {
					continue
				}
				for j := range ks.sqR {
					if ks.sqR[j].Txn == txn {
						ks.sqR = append(ks.sqR[:j], ks.sqR[j+1:]...)
						removed++
						break
					}
				}
			}
			delete(sh.roIndex, txn)
			sh.cond.Broadcast()
		}
		sh.mu.Unlock()
	}
	return removed
}

// SQRemoveWrite deletes txn's write entry from key's queue (Algorithm 4
// line 4) and wakes waiters.
func (s *Store) SQRemoveWrite(key string, txn wire.TxnID) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.keys[key]
	if ks == nil {
		return
	}
	for j := range ks.sqW {
		if ks.sqW[j].Txn == txn {
			ks.sqW = append(ks.sqW[:j], ks.sqW[j+1:]...)
			sh.cond.Broadcast()
			return
		}
	}
}

// SQWaitDrain blocks until key's snapshot-queue holds no entry (of either
// kind) with insertion-snapshot strictly below sid, other than txn's own
// entries (Algorithm 4 line 3), or until the timeout elapses. It reports
// whether the drain completed.
func (s *Store) SQWaitDrain(key string, txn wire.TxnID, sid uint64, timeout time.Duration) bool {
	ok, _ := s.SQWaitDrainReport(key, txn, sid, timeout)
	return ok
}

// SQWaitDrainReport is SQWaitDrain, additionally reporting whether the
// wait actually blocked (the queue held a gating entry at least once).
// The engine's pipelined commit path uses the signal to decide whether a
// piggybacked drain stage is trustworthy or a standalone drain round must
// re-tighten the freeze gap (docs/CONSISTENCY.md §5).
func (s *Store) SQWaitDrainReport(key string, txn wire.TxnID, sid uint64, timeout time.Duration) (ok, gated bool) {
	var deadline time.Time
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	blocked := false
	for {
		if !s.blockedLocked(sh, key, txn, sid) {
			return true, blocked
		}
		if !blocked {
			blocked = true
			deadline = time.Now().Add(timeout)
			if s.cstats != nil {
				s.cstats.SQWaits.Add(1)
			}
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			if s.cstats != nil {
				s.cstats.SQWaitTimeouts.Add(1)
			}
			return false, blocked
		}
		timer := time.AfterFunc(remain, sh.cond.Broadcast)
		sh.cond.Wait()
		timer.Stop()
	}
}

func (s *Store) blockedLocked(sh *shard, key string, txn wire.TxnID, sid uint64) bool {
	ks := sh.keys[key]
	if ks == nil {
		return false
	}
	for _, e := range ks.sqR {
		if e.Txn != txn && e.SID < sid {
			return true
		}
	}
	for _, e := range ks.sqW {
		if e.Txn != txn && e.SID < sid && !e.committed {
			return true
		}
	}
	return false
}

// SQStampWrite records txn's external-commit stamp on key: on its W entry
// and on the version it wrote (where the stamp outlives the entry's purge).
// It runs at freeze *arrival*, strictly before the freeze re-drain, so the
// read-only verdict for txn becomes deterministic at every replica as soon
// as the (single) freeze broadcast lands — not when each replica's gated
// re-drain happens to finish. Duplicate deliveries keep the smallest stamp.
func (s *Store) SQStampWrite(key string, txn wire.TxnID, stamp uint64) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.stampLocked(sh, key, txn, stamp)
}

func (s *Store) stampLocked(sh *shard, key string, txn wire.TxnID, stamp uint64) {
	ks := sh.keys[key]
	if ks == nil {
		return
	}
	for v := ks.last; v != nil; v = v.Prev {
		if v.Writer == txn {
			if v.ExtSID == 0 || stamp < v.ExtSID {
				v.ExtSID = stamp
			}
			break
		}
	}
	for i := range ks.sqW {
		if ks.sqW[i].Txn == txn {
			if ks.sqW[i].stamp == 0 || stamp < ks.sqW[i].stamp {
				ks.sqW[i].stamp = stamp
			}
			return
		}
	}
}

// SQFlagWrite marks txn's W entry on key as externally committed (the end
// of the freeze phase: its re-drain completed), stamping it first if a
// direct caller skipped SQStampWrite. Flagged entries stop blocking later
// writers' drains; they are invisible to reader verdicts, which key off
// the stamp alone.
func (s *Store) SQFlagWrite(key string, txn wire.TxnID, stamp uint64) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.keys[key]
	if ks == nil {
		return
	}
	s.stampLocked(sh, key, txn, stamp)
	for i := range ks.sqW {
		if ks.sqW[i].Txn == txn {
			ks.sqW[i].committed = true
			sh.cond.Broadcast()
			return
		}
	}
}

// SQBlocked reports whether a drain for (txn, sid) on key would currently
// block (used by tests and metrics; the breakdown of Figure 5).
func (s *Store) SQBlocked(key string, txn wire.TxnID, sid uint64) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.blockedLocked(sh, key, txn, sid)
}

// SQUnstampedWritersInto adds to dst key's parked writers the read-only
// first-contact probe must exclude from the visibility-bound fold: those
// whose external commit is not yet announced here (stamp == 0) or whose
// stamp exceeds stampFloor (the replica-independent part of the reader's
// cut at this node), minus those in seen. Read-only transactions never
// observe the excluded writers' versions: they serialize before them
// (§III-C, Figure 2). The probe races concurrent freezes; the
// authoritative verdict is recomputed atomically with the walk in ReadRO.
// dst is caller-provided so the hot path performs no allocation.
func (s *Store) SQUnstampedWritersInto(key string, stampFloor uint64, seen map[wire.TxnID]struct{}, dst map[wire.TxnID]struct{}) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.keys[key]
	if ks == nil {
		return
	}
	for _, e := range ks.sqW {
		if e.stamp != 0 && e.stamp <= stampFloor {
			continue
		}
		if _, ok := seen[e.Txn]; ok {
			continue
		}
		dst[e.Txn] = struct{}{}
	}
}

// SQWriteState reports txn's W-entry state on key: its external-commit
// stamp (0 = not announced), whether its re-drain completed (flagged), and
// whether the entry is present at all. For tests and diagnostics.
func (s *Store) SQWriteState(key string, txn wire.TxnID) (stamp uint64, flagged, present bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.keys[key]
	if ks == nil {
		return 0, false, false
	}
	for _, e := range ks.sqW {
		if e.Txn == txn {
			return e.stamp, e.committed, true
		}
	}
	return 0, false, false
}

// SQHasReadEntries reports whether key's snapshot-queue currently holds
// any read-only entry. The pipelined commit path uses it as a contention
// signal: active readers around a written key mean a piggybacked drain
// barrier may be stale by freeze time, so the coordinator re-tightens with
// a standalone drain round (docs/CONSISTENCY.md §5).
func (s *Store) SQHasReadEntries(key string) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.keys[key]
	return ks != nil && len(ks.sqR) > 0
}

// SQHasWriteEntry reports whether txn currently has a W entry in key's
// queue — i.e. whether its version is still provisional (internally but not
// externally committed).
func (s *Store) SQHasWriteEntry(key string, txn wire.TxnID) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.keys[key]
	if ks == nil {
		return false
	}
	for _, e := range ks.sqW {
		if e.Txn == txn {
			return true
		}
	}
	return false
}

// SQReadEntries returns a snapshot of key's read entries — the
// PropagatedSet handed to update-transaction reads (Algorithm 6 line 25).
func (s *Store) SQReadEntries(key string) []wire.SQEntry {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.keys[key]
	if ks == nil || len(ks.sqR) == 0 {
		return nil
	}
	out := make([]wire.SQEntry, len(ks.sqR))
	for i, e := range ks.sqR {
		out[i] = e.SQEntry
	}
	return out
}

// SQOldestWriteAge returns how long the oldest update entry has been parked
// in key's queue, and false if there is none. Drives the admission-control
// backoff of §III-E.
func (s *Store) SQOldestWriteAge(key string) (time.Duration, bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.keys[key]
	if ks == nil || len(ks.sqW) == 0 {
		return 0, false
	}
	oldest := ks.sqW[0].at
	for _, e := range ks.sqW[1:] {
		if e.at.Before(oldest) {
			oldest = e.at
		}
	}
	return s.nowFn().Sub(oldest), true
}

// SQLen returns the number of (read, write) entries in key's queue.
func (s *Store) SQLen(key string) (int, int) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.keys[key]
	if ks == nil {
		return 0, 0
	}
	return len(ks.sqR), len(ks.sqW)
}

// VersionWriters returns the writers of key's retained versions, oldest
// first (the per-key version order used by the consistency checker's ww/rw
// edges).
func (s *Store) VersionWriters(key string) []wire.TxnID {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.keys[key]
	if ks == nil {
		return nil
	}
	var rev []wire.TxnID
	for v := ks.last; v != nil; v = v.Prev {
		rev = append(rev, v.Writer)
	}
	out := make([]wire.TxnID, len(rev))
	for i, w := range rev {
		out[len(rev)-1-i] = w
	}
	return out
}

// VersionRec is one version in checkpoint form: the stored fields of a
// Version without the chain link. VC and Deps are shared with the live
// version during Dump (immutable by convention); Restore installs them as
// given.
type VersionRec struct {
	Val    []byte
	VC     vclock.VC
	Writer wire.TxnID
	Deps   []wire.TxnID
	ExtSID uint64
}

// Dump streams every retained version through fn, oldest first per key (the
// order RestoreVersion rebuilds chains in), for checkpointing. Each shard
// is walked under its lock, so per-key chains are internally consistent;
// the dump as a whole is a fuzzy snapshot — transactions applying while it
// runs may or may not appear, and recovery dedupes replay against it by
// writer identity.
func (s *Store) Dump(fn func(key string, v VersionRec) error) error {
	var rev []*Version
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for key, ks := range sh.keys {
			rev = rev[:0]
			for v := ks.last; v != nil; v = v.Prev {
				rev = append(rev, v)
			}
			for j := len(rev) - 1; j >= 0; j-- {
				v := rev[j]
				if err := fn(key, VersionRec{Val: v.Val, VC: v.VC, Writer: v.Writer,
					Deps: v.Deps, ExtSID: v.ExtSID}); err != nil {
					sh.mu.Unlock()
					return err
				}
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// RestoreVersion installs one checkpointed version as key's newest.
// Feeding a key's Dump output back in order rebuilds its chain. Recovery
// only; not for use on a store serving traffic.
func (s *Store) RestoreVersion(key string, v VersionRec) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.state(key)
	ks.last = &Version{Val: v.Val, VC: v.VC, Writer: v.Writer, Deps: v.Deps,
		ExtSID: v.ExtSID, Prev: ks.last}
	ks.depth++
}

// HasVersion reports whether key retains a version written by txn. Recovery
// uses it to dedupe WAL replay against a fuzzy checkpoint: a transaction
// that applied while the checkpoint dump was running may already be in the
// restored chain.
func (s *Store) HasVersion(key string, txn wire.TxnID) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.keys[key]
	if ks == nil {
		return false
	}
	for v := ks.last; v != nil; v = v.Prev {
		if v.Writer == txn {
			return true
		}
	}
	return false
}

// Depth returns the number of retained versions of key.
func (s *Store) Depth(key string) int {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ks := sh.keys[key]
	if ks == nil {
		return 0
	}
	return ks.depth
}
