package engine

import (
	"time"

	"github.com/sss-paper/sss/internal/mvstore"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wal"
	"github.com/sss-paper/sss/internal/wire"
)

// handleRead implements the server side of a read-only read: the version
// selection logic of Algorithm 6.
func (nd *Node) handleRead(from wire.NodeID, rid uint64, m *wire.ReadRequest) {
	nd.roAdmission(m.Key)

	// Wait until every transaction inside T's current visibility bound has
	// internally committed here (Algorithm 6 line 5). Unlike the paper's
	// pseudocode, the wait applies on *every* contact, not just the first:
	// T.VC[i] keeps growing after the first contact with node i (folded
	// from other replicas' clocks), so a later read here may demand a
	// version this node has not applied yet — without the wait it would
	// silently fall back to an older version and fracture the snapshot.
	// The observed clock is part of the bound: versions at or beneath it
	// belong to the reader's snapshot, so they must be applied before the
	// walk, or the reader would silently miss them.
	waitBound := m.VC[nd.idx]
	if len(m.ObsVC) > nd.idx && m.ObsVC[nd.idx] > waitBound {
		waitBound = m.ObsVC[nd.idx]
	}
	nd.log.WaitMostRecent(waitBound, nd.cfg.DrainTimeout)

	// Exclusion set: versions written by transactions whose W entry is not
	// yet flagged (internally but not externally committed) are invisible
	// to read-only transactions — *unless* the reader has already observed
	// one of the writer's versions elsewhere (Seen: it serialized after
	// the writer and must keep seeing it). Writers the reader previously
	// skipped (Before) stay excluded for the rest of its execution, and so
	// does everything causally dependent on them; this stickiness is what
	// makes all read-only transactions agree on the order of concurrent
	// update transactions (§III-C, Figure 2 — see docs/CONSISTENCY.md §4).
	// The sets live in pooled scratch maps: they are consumed under the
	// store's shard lock during the walk and never retained.
	sc := nd.getScratch()
	defer nd.putScratch(sc)
	seen := sc.seen
	for _, s := range m.Seen {
		seen[s] = struct{}{}
	}
	beforeIDs := sc.before
	for _, b := range m.Before {
		beforeIDs[b.Txn] = struct{}{}
	}

	var maxVC vclock.VC
	if len(m.HasRead) > nd.idx && m.HasRead[nd.idx] {
		// This node answered T before: T.VC[idx] is already a hard
		// visibility bound here (Algorithm 6 lines 16–21).
		maxVC = m.VC
	} else {
		// First contact (lines 4–14): the bound folds every applied commit
		// visible under the reader's incoming clock — except those of
		// excluded writers (parked with no announced external commit, or
		// stamped above the reader's cut), whose slots must stay outside
		// the bound — then joins the reader's observed clock so that
		// versions it causally observed always pass the per-version
		// filters. The probe's stamp floor is the replica-independent part
		// of the reader's eventual cut at this node (its incoming and
		// observed clocks plus the external frontier the fold below will
		// cover anyway), so the probe never excludes a writer the
		// authoritative verdict in ReadRO would include. The probe may race
		// a concurrent internal commit; the authoritative set is recomputed
		// atomically with the walk inside ReadRO below.
		stampFloor := nd.extFrontier.Load()
		if m.VC[nd.idx] > stampFloor {
			stampFloor = m.VC[nd.idx]
		}
		if len(m.ObsVC) > nd.idx && m.ObsVC[nd.idx] > stampFloor {
			stampFloor = m.ObsVC[nd.idx]
		}
		excluded := sc.excluded
		nd.store.SQUnstampedWritersInto(m.Key, stampFloor, seen, excluded)
		for id := range beforeIDs {
			excluded[id] = struct{}{}
		}
		maxVC = nd.log.VisibleMax(m.HasRead, m.VC, excluded)
		if m.ObsVC != nil {
			maxVC.MaxInto(m.ObsVC)
		}
		// The bound never starts beneath the node's externally-committed
		// knowledge: everything externally committed here by now is inside
		// any fresh reader's snapshot (stamps dominate slots, so the
		// frontier covers both the stamp and the slot filters; the
		// knowledge clock extends the same guarantee to the commits this
		// node has merely witnessed).
		nd.log.FoldExternalInto(maxVC)
		// ... except up to a stamp the reader serialized before (ExWriter.VC).
		// A writer excluded by stamp gates nothing: what read from it can
		// commit and be purged while this reader runs, handing on a clock that
		// covers the stamp in place of a dependency set (depsWhileParked), and
		// only this column, kept beneath the stamp, then filters it out
		// (docs/CONSISTENCY.md §4 item 1; TestLateStampExclusionClosure).
		for _, b := range m.Before {
			for w, stamp := range b.VC {
				if stamp > 0 && w < len(m.HasRead) && m.HasRead[w] && w < len(maxVC) && maxVC[w] >= stamp {
					maxVC[w] = stamp - 1
				}
			}
		}
		if ef := nd.extFrontier.Load(); ef > maxVC[nd.idx] {
			maxVC[nd.idx] = ef
		}
	}

	// Two-pass read. The R entry is inserted at the reader's bound first;
	// the walk (ReadRO) then runs with the entry already in place, so no
	// writer the walk skips can slip its freeze through the insert gap,
	// and because ReadRO recomputes the parked set atomically with the
	// version walk, a writer that internally commits between the passes is
	// either excluded or legitimately observed — never observed while
	// missing its exclusion. If the walk skips a version beneath the
	// entry's insertion-snapshot, the entry is re-inserted lower, so the
	// skipped writers' freeze phases (and hence client replies) wait for
	// this reader's completion. The insert is atomic with handleRemove
	// (via the transaction's stripe mutex + tombstone): deliveries are
	// unordered, so T's Remove may overtake a slow read request, and a
	// late insert would otherwise park writers forever.
	sid := maxVC[nd.idx]
	insert := func() {
		st := nd.stripeOf(m.Txn)
		st.mu.Lock()
		if !st.tombstonedLocked(m.Txn) {
			nd.store.SQInsert(m.Key, wire.SQEntry{Txn: m.Txn, SID: sid, Kind: wire.EntryRead})
		}
		st.mu.Unlock()
	}
	insert()

	// The stamp cut: the reader is entitled to every external commit at or
	// beneath its incoming clock (it began after their replies), its
	// observed clock, and the computed fold.
	stampBound := maxVC[nd.idx]
	if m.VC[nd.idx] > stampBound {
		stampBound = m.VC[nd.idx]
	}
	// The first-contact probe is done with sc.excluded; hand it to ReadRO
	// (cleared) as the scratch for the authoritative queue-exclusion set.
	clear(sc.excluded)
	ro := nd.store.ReadRO(m.Txn, m.Key, nd.idx, nd.n, stampBound, m.HasRead, maxVC, seen, beforeIDs, m.ObsVC, sc.excluded)
	res := ro.Res
	if ro.LowSID > 0 && sid >= ro.LowSID {
		sid = ro.LowSID - 1
		insert() // SQInsert keeps the smaller insertion-snapshot
	}
	skipped := append(ro.Skipped, ro.QueueSkips...)

	// The reply bound must cover the version actually exposed: on first
	// contact the walk is unconstrained on this node's entry, so it can
	// return a version newer than the probe bound (e.g. one applied after
	// the bound was computed). Freezing the reader's clock beneath an
	// observed version would make later reads here reject the same
	// writer's other versions and fracture the snapshot.
	replyVC := maxVC
	if res.Exists && res.VC != nil && !res.VC.LessEq(replyVC) {
		replyVC = replyVC.Clone()
		replyVC.MaxInto(res.VC)
	}

	if debugTooNew != nil && res.Exists {
		for w, r := range m.HasRead {
			if r && res.VC[w] > m.VC[w] {
				debugTooNew(m.Key, res.VC, m.VC, m.HasRead)
				break
			}
		}
	}
	_ = nd.rpc.Reply(from, rid, &wire.ReadReturn{
		Val:           res.Val,
		Exists:        res.Exists,
		Writer:        res.Writer,
		VC:            replyVC,
		VerVC:         res.VC,
		VerDeps:       depsWhileParked(ro.PendingWriter, res.Deps),
		PendingWriter: ro.PendingWriter,
		Excluded:      skipped,
	})
}

// depsWhileParked is the dependency-lifetime rule (docs/CONSISTENCY.md §4
// item 1): a version's stored set travels to its reader only while the
// version's writer still holds its W entry here. Past the purge the reply
// clock covers the writer's freeze and everything it waited out instead.
func depsWhileParked(pending wire.TxnID, deps []wire.TxnID) []wire.TxnID {
	if pending.IsZero() {
		return nil
	}
	return deps
}

// pendingWriterOf reports the returned version's writer when it is still
// parked in the key's snapshot-queue: the reader observed a provisional
// (internally- but not externally-committed) version and must delay its own
// completion behind the writer's.
func (nd *Node) pendingWriterOf(key string, res mvstore.ReadResult) wire.TxnID {
	if !res.Exists || res.Writer.IsZero() {
		return wire.TxnID{}
	}
	if nd.store.SQHasWriteEntry(key, res.Writer) {
		return res.Writer
	}
	return wire.TxnID{}
}

// updateReadReplyBytes bounds the values one UpdateReadReply carries before
// the replica stops serving its keys: a reply then holds at most this much
// plus one value (a client write is below 16 MiB), about the size of one
// read-only ReadReturn's worst case and well under the TCP transport's
// 64 MiB frame bound.
const updateReadReplyBytes = 1 << 20

// handleUpdateRead serves an update transaction's reads at this replica:
// one updateRead per key, in order, answered in one reply. Once the values
// served reach updateReadReplyBytes it stops, and the reply answers a
// prefix of the keys; the coordinator sends the rest again.
func (nd *Node) handleUpdateRead(from wire.NodeID, rid uint64, m *wire.UpdateRead) {
	results := make([]wire.UpdateResult, 0, len(m.Keys))
	size := 0
	for _, key := range m.Keys {
		if size >= updateReadReplyBytes {
			break
		}
		res := nd.updateRead(from, key)
		size += len(res.Val)
		results = append(results, res)
	}
	_ = nd.rpc.Reply(from, rid, &wire.UpdateReadReply{Results: results})
}

// updateRead implements Algorithm 6 lines 24–27 for one key, read on behalf
// of an update transaction coordinated at node from: it returns the latest
// committed version and collects the key's queued read-only transactions
// (PropagatedSet) — their anti-dependencies must travel with the writer.
// It runs in handleUpdateRead, or inline on the coordinator when this node
// replicates the key.
func (nd *Node) updateRead(from wire.NodeID, key string) wire.UpdateResult {
	// A writer prepared on the key is about to replace its latest version,
	// and a read of that version could only fail validation. Wait, within
	// the lock timeout, for the writer's apply or abort to release the key:
	// the read then returns the writer's version (a parked writer, handled
	// below) or a version that is still current. The reader holds no lock,
	// so the wait cannot deadlock; prepare validation still judges
	// staleness.
	if waited, _ := nd.locks.WaitUnlocked(key, nd.cfg.LockTimeout); waited {
		nd.stats.UpdateReadWaits.Add(1)
	}

	// The fwd-record for each propagated reader must be atomic with respect
	// to that reader's handleRemove: taking the reader's stripe lock for
	// the tombstone check plus the record guarantees a concurrent Remove
	// either sees the forward record or left the tombstone that suppresses
	// the propagation. Distinct readers need no mutual atomicity, so each
	// is handled under its own stripe.
	prop := nd.store.SQReadEntries(key)
	if len(prop) > 0 {
		filtered := prop[:0]
		for _, e := range prop {
			st := nd.stripeOf(e.Txn)
			st.mu.Lock()
			if st.tombstonedLocked(e.Txn) {
				st.mu.Unlock()
				continue
			}
			set := st.fwd[e.Txn]
			if set == nil {
				set = make(map[wire.NodeID]struct{})
				st.fwd[e.Txn] = set
			}
			set[from] = struct{}{}
			st.mu.Unlock()
			filtered = append(filtered, e)
		}
		prop = filtered
	}

	res := nd.store.Latest(key)
	// The bound folded into the updater's clock is the returned version's
	// own commit clock — its true read-from dependency — joined with this
	// node's externally-committed knowledge. NOT the whole applied
	// frontier: folding it (the paper's literal maxVC) would stamp the
	// updater's commit clock with slots of parked strangers that merely
	// applied here concurrently, and readers would later reject the
	// updater's versions through those phantom columns, potentially
	// inverting the external order.
	//
	// The parked verdict is taken before the clock, never after:
	// depsWhileParked relies on "not parked here" meaning that this reply's
	// clock covers the writer's freeze and its Know (the freeze folds both in
	// before the purge can run). The other way round, a freeze and purge
	// landing in between would pair "not parked" with a pre-stamp clock.
	pending := nd.pendingWriterOf(key, res)
	replyVC := nd.log.ExternalVC()
	if res.VC != nil {
		replyVC.MaxInto(res.VC)
	}
	return wire.UpdateResult{
		Val:           res.Val,
		Exists:        res.Exists,
		Writer:        res.Writer,
		VC:            replyVC,
		Propagated:    prop,
		PendingWriter: pending,
		VerDeps:       depsWhileParked(pending, res.Deps),
	}
}

// roAdmission's schedule: a writer parked longer than starvationAge delays
// a read-only read by backoffBase, doubling while within backoffMax.
const (
	starvationAge = 10 * time.Millisecond
	backoffBase   = 100 * time.Microsecond
	backoffMax    = 2 * time.Millisecond
)

// roAdmission applies §III-E's starvation control: delay a read-only read
// with exponential backoff while the key has an update transaction parked
// in its snapshot-queue for longer than starvationAge.
func (nd *Node) roAdmission(key string) {
	backoff := backoffBase
	for {
		age, ok := nd.store.SQOldestWriteAge(key)
		if !ok || age < starvationAge {
			return
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > backoffMax {
			return
		}
	}
}

// prepareInFlight is a sentinel parked in stripe.pending between a Prepare
// handler's duplicate check and its real registration. A Decide that
// consumes it treats the transaction as never-prepared (vote-timeout
// aborts race the prepare this way), and the prepare handler walks away
// when its claim is gone.
var prepareInFlight = &participantTxn{}

// handlePrepare implements the participant side of 2PC prepare
// (Algorithm 2 lines 1–15): lock, validate, propose a commit vector clock,
// and enqueue the transaction as pending in the CommitQ.
func (nd *Node) handlePrepare(from wire.NodeID, rid uint64, m *wire.Prepare) {
	// At-least-once dedup: the transport may redeliver a Prepare after a
	// link transition. Re-running one would re-lock the write set and
	// register a second CommitQ entry that no Decide will ever resolve —
	// wedging the commit log and every read behind its frontier. Claim the
	// transaction's pending slot atomically; a copy that finds it claimed,
	// or finds the decide-side tombstone, drops silently (the surviving
	// copy's Vote reply carries this rid, and the RPC layer dedups replies).
	st := nd.stripeOf(m.Txn)
	st.mu.Lock()
	if _, dup := st.pending[m.Txn]; dup || st.tombstonedLocked(m.Txn) {
		st.mu.Unlock()
		return
	}
	st.pending[m.Txn] = prepareInFlight
	st.mu.Unlock()

	var localReads []string
	var localFrom []wire.TxnID
	for i, k := range m.ReadKeys {
		if nd.lookup.IsReplica(k, nd.id) {
			localReads = append(localReads, k)
			localFrom = append(localFrom, m.ReadFrom[i])
		}
	}
	var localWrites []string
	for _, kv := range m.Writes {
		if nd.lookup.IsReplica(kv.Key, nd.id) {
			localWrites = append(localWrites, kv.Key)
		}
	}

	ok := nd.locks.AcquireAll(m.Txn, localWrites, localReads, nd.cfg.LockTimeout)
	if !ok {
		nd.stats.NoVoteLocks.Add(1)
	} else if !nd.validate(localReads, localFrom) {
		nd.locks.ReleaseAll(m.Txn, localWrites, localReads)
		nd.stats.NoVoteStale.Add(1)
		ok = false
	}
	if !ok {
		st.mu.Lock()
		if st.pending[m.Txn] == prepareInFlight {
			delete(st.pending, m.Txn)
		}
		st.mu.Unlock()
		_ = nd.rpc.Reply(from, rid, &wire.Vote{Txn: m.Txn, VC: m.VC, OK: false})
		return
	}

	pt := &participantTxn{
		writes:    m.Writes,
		readKeys:  localReads,
		localWKey: localWrites,
		deps:      m.Deps,
		applied:   make(chan struct{}),
	}
	writeReplica := len(localWrites) > 0
	st.mu.Lock()
	if st.pending[m.Txn] != prepareInFlight {
		// A Decide consumed the in-flight claim while this handler held the
		// locks (a vote-timeout abort outran the prepare): the transaction
		// is already decided here, and registering it in the CommitQ now
		// would wedge the log behind an entry no Decide will resolve.
		st.mu.Unlock()
		nd.locks.ReleaseAll(m.Txn, localWrites, localReads)
		return
	}
	st.pending[m.Txn] = pt
	if nd.wal != nil && writeReplica {
		st.walTxns[m.Txn] = &walTxn{writes: m.Writes, deps: m.Deps}
	}
	st.mu.Unlock()

	if nd.wal != nil && writeReplica {
		// The presumed-abort participant obligation: the prepare record —
		// write set and dependencies, everything needed to apply the
		// transaction after a post-crash commit verdict — must be durable
		// before the yes vote leaves this node. The Sync group-commits with
		// whatever else is in flight. On a sync failure the vote flips to
		// no: promising a recoverable yes without the record would be the
		// exact lie the WAL exists to prevent.
		//
		// The coordinator's own leg votes to itself, so nothing leaves the
		// node on this vote: its record rides the decision fsync, which the
		// sequential log orders after it and which precedes every Decide. A
		// crash before that fsync is a presumed abort askCoordinator settles
		// locally.
		nd.wal.Append(&wal.Record{Type: wal.RecPrepare, Txn: m.Txn, Writes: m.Writes, Deps: m.Deps})
		if from != nd.id {
			syncStart := time.Now()
			err := nd.wal.Sync()
			nd.stats.Stage.WalSync.Observe(time.Since(syncStart))
			if err != nil {
				st.mu.Lock()
				delete(st.pending, m.Txn)
				delete(st.walTxns, m.Txn)
				st.mu.Unlock()
				nd.locks.ReleaseAll(m.Txn, localWrites, localReads)
				_ = nd.rpc.Reply(from, rid, &wire.Vote{Txn: m.Txn, VC: m.VC, OK: false})
				return
			}
		}
	}
	prepVC := nd.log.Prepare(m.Txn, writeReplica, func(commitVC vclock.VC) {
		// Internal commit (Algorithm 2 lines 29–36): runs when the
		// transaction reaches the head of the CommitQ as ready.
		for _, kv := range pt.writes {
			if nd.lookup.IsReplica(kv.Key, nd.id) {
				nd.store.Apply(kv.Key, kv.Val, commitVC, m.Txn, pt.deps)
			}
		}
		nd.locks.ReleaseAll(m.Txn, pt.localWKey, pt.readKeys)
		close(pt.applied)
	})
	// The vote echoes the transaction's own clock joined with this node's
	// externally-committed knowledge, raised by the newly assigned write
	// slot. Folding the participant's whole NodeVC (the paper's literal
	// proposal) would stamp the commit clock with slots of concurrent
	// transactions the committer never observed — and readers would then
	// reject its versions through columns that carry no true dependency,
	// which can even invert the external order (a post-reply reader
	// refusing a committed version because of a phantom dependency on a
	// still-parked writer).
	voteVC := nd.log.ExternalVC()
	voteVC.MaxInto(m.VC)
	if writeReplica && prepVC[nd.idx] > voteVC[nd.idx] {
		voteVC[nd.idx] = prepVC[nd.idx]
	}
	_ = nd.rpc.Reply(from, rid, &wire.Vote{Txn: m.Txn, VC: voteVC, OK: true})
}

// validate implements Algorithm 1 lines 27–33, by version identity: a read
// key fails validation when its latest version is no longer the one the
// transaction read. (The paper's vid[i] > T.VC[i] comparison under-aborts
// when clock levelling assigns two conflicting writers the same vid[i];
// writer identity is exact.)
func (nd *Node) validate(readKeys []string, readFrom []wire.TxnID) bool {
	for i, k := range readKeys {
		if nd.store.Latest(k).Writer != readFrom[i] {
			return false
		}
	}
	return true
}

func (nd *Node) localKeys(keys []string) []string {
	var out []string
	for _, k := range keys {
		if nd.lookup.IsReplica(k, nd.id) {
			out = append(out, k)
		}
	}
	return out
}

// handleDecide implements the participant side of the decide phase
// (Algorithm 2 lines 16–28) followed by the pre-commit protocol
// (Algorithms 3 and 4). The DecideAck reply is sent only after the
// snapshot-queue drain — its receipt at the coordinator is the
// external-commit point.
func (nd *Node) handleDecide(from wire.NodeID, rid uint64, m *wire.Decide) {
	st := nd.stripeOf(m.Txn)
	st.mu.Lock()
	if st.tombstonedLocked(m.Txn) {
		// A redelivered Decide: the first copy consumed the pending entry and
		// left the tombstone. Drop with NO reply — the copies share a request
		// id, and a degenerate ack from this path could win the RPC layer's
		// reply dedup against the real copy's drain-carrying ack, making the
		// coordinator freeze against parked state the real copy has not
		// registered yet (the freeze would no-op and strand the W entry
		// drained-but-never-flagged, wedging every later drain behind it).
		st.mu.Unlock()
		return
	}
	pt := st.pending[m.Txn]
	delete(st.pending, m.Txn)
	// Tombstone the transaction in the same critical section that consumes
	// its pending entry: a Prepare or Decide redelivered after this point
	// (the transport's at-least-once resend, or a slow copy of the original)
	// finds the tombstone and drops instead of re-running a decided
	// transaction's protocol.
	st.tombstoneLocked(m.Txn)
	st.mu.Unlock()

	if pt == nil || pt == prepareInFlight {
		// A prepare that failed locally (the coordinator aborts on any failed
		// vote, so only aborts land here), or a vote-timeout abort that
		// outran its still-in-flight prepare.
		_ = nd.rpc.Reply(from, rid, &wire.DecideAck{Txn: m.Txn})
		return
	}

	writeReplica := len(pt.localWKey) > 0
	if !m.Commit {
		if nd.wal != nil && writeReplica {
			// Abort decides ride later syncs (presumed abort: losing the
			// record merely leaves the transaction in-doubt, and the
			// coordinator's answer is abort either way).
			nd.wal.Append(&wal.Record{Type: wal.RecDecide, Txn: m.Txn})
			st.mu.Lock()
			delete(st.walTxns, m.Txn)
			st.mu.Unlock()
		}
		nd.log.Decide(m.Txn, nil, false, writeReplica)
		nd.locks.ReleaseAll(m.Txn, pt.localWKey, pt.readKeys)
		_ = nd.rpc.Reply(from, rid, &wire.DecideAck{Txn: m.Txn})
		return
	}

	if writeReplica {
		if nd.wal != nil {
			// The decide record repeats the write and dependency sets so a
			// committed transaction replays from this record alone even
			// after checkpoint reclamation dropped its prepare. Appended
			// unsynced: it rides the next commit-path sync, and a crash
			// that loses it just leaves the transaction in-doubt — the
			// coordinator's durable decision resolves it to the same
			// outcome.
			nd.wal.Append(&wal.Record{Type: wal.RecDecide, Txn: m.Txn, Commit: true,
				VC: m.VC, Writes: pt.writes, Deps: pt.deps})
			st.mu.Lock()
			if wt := st.walTxns[m.Txn]; wt != nil {
				wt.decided, wt.vc = true, m.VC.Clone()
			}
			st.mu.Unlock()
		}
		// Enqueue the W entry (and the coordinator-collected propagated
		// R-entries) *before* the internal commit makes the versions
		// visible: a reader must never observe a provisional version
		// without finding its writer parked in the snapshot-queue.
		nd.enqueuePreCommit(m, pt)
	}
	nd.log.Decide(m.Txn, m.VC, true, writeReplica)
	if !writeReplica {
		// Algorithm 2 line 22: a read-only participant just releases its
		// shared locks (the apply closure never runs here).
		nd.locks.ReleaseShared(m.Txn, pt.readKeys)
		_ = nd.rpc.Reply(from, rid, &wire.DecideAck{Txn: m.Txn})
		return
	}

	// Wait for this transaction's own internal commit: it may be applied
	// during another transaction's decide (CommitQ ordering). The
	// non-blocking fast path skips the timer when the apply already ran —
	// the common case once this decide reaches the CommitQ head.
	select {
	case <-pt.applied:
	default:
		select {
		case <-pt.applied:
		case <-time.After(nd.cfg.DrainTimeout):
			// A wedged CommitQ would surface here; ack anyway so the
			// coordinator is not stuck, and count the anomaly.
			nd.stats.DrainTimeouts.Add(1)
		}
	}

	gated := nd.preCommit(m, pt)
	// The W entries stay parked until the coordinator's freeze and purge
	// (wire.Freeze, wire.Purge); record which keys they cover.
	st.mu.Lock()
	st.parked[m.Txn] = parkedState{keys: pt.localWKey, sid: m.VC[nd.idx], vc: m.VC.Clone()}
	st.mu.Unlock()
	if !m.Drain {
		_ = nd.rpc.Reply(from, rid, &wire.DecideAck{Txn: m.Txn})
		return
	}
	// Piggybacked drain stage: the pre-commit wait above already cleared
	// this key's backlog, so the drain round's work reduces to shipping the
	// drain-stage frontier back in the same ack. The coordinator forms the
	// freeze vector only after every write replica's ack, preserving the
	// all-backlogs-clear barrier the standalone round provided — one acked
	// round trip cheaper. Gated echoes whether the wait blocked *or*
	// readers are currently parked on the written keys: either way readers
	// are active around these keys, and the coordinator re-tightens with a
	// standalone drain round before freezing (see commitUpdate).
	for _, k := range pt.localWKey {
		if gated {
			break
		}
		gated = nd.store.SQHasReadEntries(k)
	}
	nd.stats.CommitRounds.DrainsPiggybacked.Add(1)
	_ = nd.rpc.Reply(from, rid, &wire.DecideAck{Txn: m.Txn, Ext: nd.log.AppliedSelf(), Gated: gated})
}

// enqueuePreCommit implements Algorithm 3 on this node's written keys:
// enqueue the writer's W entry and its propagated anti-dependencies. It
// runs at decide time, strictly before the versions become visible.
func (nd *Node) enqueuePreCommit(m *wire.Decide, pt *participantTxn) {
	sid := m.VC[nd.idx]
	for _, k := range pt.localWKey {
		nd.store.SQInsert(k, wire.SQEntry{Txn: m.Txn, SID: sid, Kind: wire.EntryWrite})
	}
	// Each propagated reader's tombstone check is atomic with its inserts
	// (the reader's stripe mutex, as in handleRead): a concurrent Remove
	// either runs first and leaves the tombstone that suppresses the
	// insert, or runs after and deletes the inserted entries — never
	// interleaves to resurrect an entry with no Remove left to chase it.
	for _, e := range m.Propagated {
		st := nd.stripeOf(e.Txn)
		st.mu.Lock()
		if !st.tombstonedLocked(e.Txn) {
			for _, k := range pt.localWKey {
				nd.store.SQInsert(k, wire.SQEntry{Txn: e.Txn, SID: e.SID, Kind: wire.EntryRead})
			}
		}
		st.mu.Unlock()
	}
}

// preCommit implements Algorithm 4's wait on this node's written keys: no
// entry with a smaller insertion-snapshot may remain. It reports whether
// any wait actually blocked — contention that makes a piggybacked drain
// barrier untrustworthy by freeze time (the coordinator then re-tightens
// with a standalone drain round).
func (nd *Node) preCommit(m *wire.Decide, pt *participantTxn) bool {
	sid := m.VC[nd.idx]
	gated := false
	// The W entry itself is *not* removed here: it persists until the purge
	// so readers can tell provisional versions from externally-committed
	// ones.
	for _, k := range pt.localWKey {
		ok, g := nd.store.SQWaitDrainReport(k, m.Txn, sid, nd.cfg.DrainTimeout)
		if !ok {
			nd.stats.DrainTimeouts.Add(1)
		}
		if g {
			gated = true
		}
	}
	return gated
}

// handleDrainRound serves the standalone drain round of the staged external
// commit: complete the snapshot-queue waits without announcing anything, so
// the coordinator can issue the freeze against replicas whose backlogs are
// already clear. The ack returns this node's drain-stage frontier; the
// coordinator joins the frontiers with the commit clock into the freeze
// vector. (The stage normally rides the decide round, Decide.Drain; freeze
// and purge arrive as wire.Freeze and wire.Purge — handleFreeze, purgeParked.)
func (nd *Node) handleDrainRound(from wire.NodeID, rid uint64, m *wire.ExtCommit) {
	st := nd.stripeOf(m.Txn)
	st.mu.Lock()
	ps := st.parked[m.Txn]
	st.mu.Unlock()
	nd.waitParkedDrain(m.Txn, ps)
	nd.stats.CommitRounds.DrainRounds.Add(1)
	_ = nd.rpc.Reply(from, rid, &wire.DecideAck{Txn: m.Txn, Ext: nd.log.AppliedSelf()})
}

// handleWaitExternal blocks until the named locally-coordinated transaction
// externally commits, then acks. Unknown transactions have already
// finished (registration precedes any observable parked entry).
func (nd *Node) handleWaitExternal(from wire.NodeID, rid uint64, m *wire.WaitExternal) {
	if ch := nd.externalDone(m.Txn); ch != nil {
		select {
		case <-ch:
		case <-time.After(nd.cfg.DrainTimeout):
			nd.stats.DrainTimeouts.Add(1)
		}
	}
	_ = nd.rpc.Reply(from, rid, &wire.WaitExternalAck{Txn: m.Txn, VC: nd.log.ExternalVC()})
}

// handleRemove implements the Remove message (§III-C): delete the read-only
// transaction's snapshot-queue entries here and forward the removal to any
// update coordinator that propagated them elsewhere.
func (nd *Node) handleRemove(m *wire.Remove) {
	st := nd.stripeOf(m.Txn)
	st.mu.Lock()
	nd.store.SQRemoveRead(m.Txn)
	targets := st.fwd[m.Txn]
	delete(st.fwd, m.Txn)
	st.tombstoneLocked(m.Txn)
	st.mu.Unlock()

	for to := range targets {
		nd.stats.FwdRemoves.Add(1)
		if to == nd.id {
			nd.handleFwdRemove(&wire.FwdRemove{RO: m.Txn})
			continue
		}
		_ = nd.rpc.Notify(to, &wire.FwdRemove{RO: m.Txn})
	}
}

// handleFwdRemove runs at an update coordinator: relay the read-only
// transaction's removal to the write replicas where its entries were
// propagated during pre-commit.
func (nd *Node) handleFwdRemove(m *wire.FwdRemove) {
	st := nd.stripeOf(m.RO)
	st.mu.Lock()
	targets := st.propTargets[m.RO]
	delete(st.propTargets, m.RO)
	st.tombstoneLocked(m.RO)
	st.mu.Unlock()

	for to := range targets {
		if to == nd.id {
			nd.handleRemove(&wire.Remove{Txn: m.RO})
			continue
		}
		_ = nd.rpc.Notify(to, &wire.Remove{Txn: m.RO})
	}
}

// debugTooNew is set by tests to trap visibility-filter violations.
var debugTooNew func(key string, resVC, reqVC []uint64, hasRead []bool)
