package engine

import (
	"fmt"
	"sort"
	"time"

	"github.com/sss-paper/sss/internal/mvstore"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wal"
	"github.com/sss-paper/sss/internal/wire"
)

// Crash recovery (WAL mode). The WAL records exactly the commit-relevant
// state transitions (see internal/wal/record.go); recovery restores the
// latest checkpoint, replays the surviving segments to the commit frontier,
// resolves in-doubt prepared transactions against their coordinators with
// classic presumed-abort 2PC, and re-stamps recovered versions from the
// logged freeze vectors so post-restart readers keep the replica-independent
// verdicts of the live protocol.

// walTxn is the per-transaction ledger entry a durable write replica keeps
// from prepare until purge: everything a checkpoint must re-log into the
// fresh segment so the transaction stays replayable after the segment
// holding its original records is reclaimed.
type walTxn struct {
	writes  []wire.KV
	deps    []wire.TxnID
	decided bool
	vc      vclock.VC // commit clock, once decided
}

// coordRecord is one coordinator-side commit decision retained for peers'
// in-doubt queries.
type coordRecord struct {
	commitVC vclock.VC
	freezeVC vclock.VC // nil until the freeze vector is formed
	know     vclock.VC // the freeze order's Freeze.Know; nil when none
}

// maxCoordStatus bounds the coordinator-status table. Eviction is FIFO: an
// in-doubt peer only queries within its own restart window, so entries far
// behind the decision stream answer nothing a live query can still need —
// presumed abort covers the tail (documented conservatism in
// docs/ARCHITECTURE.md).
const maxCoordStatus = 1 << 16

// recordCoordDecision retains a commit decision this node coordinated.
func (nd *Node) recordCoordDecision(txn wire.TxnID, commitVC vclock.VC) {
	nd.coordMu.Lock()
	if _, dup := nd.coordStatus[txn]; !dup {
		nd.coordFIFO = append(nd.coordFIFO, txn)
	}
	nd.coordStatus[txn] = coordRecord{commitVC: commitVC}
	for len(nd.coordStatus) > maxCoordStatus && len(nd.coordFIFO) > 0 {
		old := nd.coordFIFO[0]
		nd.coordFIFO = nd.coordFIFO[1:]
		delete(nd.coordStatus, old)
	}
	nd.coordMu.Unlock()
}

// recordCoordFreeze attaches the freeze vector and Know to a retained
// decision.
func (nd *Node) recordCoordFreeze(txn wire.TxnID, freezeVC, know vclock.VC) {
	nd.coordMu.Lock()
	if cr, ok := nd.coordStatus[txn]; ok {
		cr.freezeVC, cr.know = freezeVC, know
		nd.coordStatus[txn] = cr
	}
	nd.coordMu.Unlock()
}

// handleTxnStatus answers a recovering peer's in-doubt query: commit with
// the commit vector (and, when formed, the freeze vector and Know) when this
// node coordinated txn to a commit decision; otherwise unknown, which the
// peer treats as presumed abort.
//
// While this node is itself mid-recovery (serve routes TxnStatus here once
// statusReady), the table already holds every durable decision the WAL scan
// found, so a commit answer is definitive. An unknown is still dropped, not
// answered, until recovery completes: presumed abort is final at the asking
// peer, while a dropped query only costs it a retry into the reply of a
// fully recovered node.
func (nd *Node) handleTxnStatus(from wire.NodeID, rid uint64, m *wire.TxnStatus) {
	rep := &wire.TxnStatusReply{Txn: m.Txn}
	nd.coordMu.Lock()
	if cr, ok := nd.coordStatus[m.Txn]; ok {
		rep.Known, rep.Commit = true, true
		rep.VC, rep.FreezeVC, rep.Know = cr.commitVC, cr.freezeVC, cr.know
	}
	nd.coordMu.Unlock()
	if !rep.Known && nd.recovering.Load() {
		return
	}
	_ = nd.rpc.Reply(from, rid, rep)
}

// handleClockSync answers a recovering peer's clock catch-up query with this
// node's externally-committed knowledge clock. Served even mid-recovery
// (once statusReady): a partially rebuilt clock is a sound lower bound —
// the peer folds a join, and joins are monotone.
func (nd *Node) handleClockSync(from wire.NodeID, rid uint64, _ *wire.ClockSync) {
	_ = nd.rpc.Reply(from, rid, &wire.ClockSyncReply{Ext: nd.log.ExternalVC()})
}

// clockSyncFirstTry is the first clock catch-up attempt's timeout; each
// retry doubles it.
const clockSyncFirstTry = 10 * time.Millisecond

// clockCatchup is the final recovery phase: fold every live peer's
// external-knowledge clock into this node's. Clock knowledge acquired
// through reads and votes is volatile — it reaches the WAL only when a
// freeze touches this node — so after a restart the durable state alone can
// under-approximate what this node already exposed to clients, and a
// regressed snapshot bound would serve client-acked writes stale (a
// real-time cycle in the fault-lane client histories). Any stamp this node
// ever learned originated from some peer's durable freeze state, so in a
// single-victim fault regime the join over live peers restores a superset
// of the pre-crash knowledge. Best-effort with a bounded per-peer budget:
// recovery must not wedge on a dead peer, and a missed peer only costs
// freshness that the first post-restart read re-acquires.
//
// A peer still scanning its own WAL drops the query (it answers only once
// statusReady), so each attempt's timeout starts at clockSyncFirstTry and
// doubles: a peer that becomes ready a few milliseconds in is caught up a
// few milliseconds later, not a whole VoteTimeout later. The per-peer
// budget, 3.75 VoteTimeouts, is what three VoteTimeout attempts with
// VoteTimeout/4 and VoteTimeout/2 backoffs between them used to spend.
func (nd *Node) clockCatchup() {
	budget := nd.cfg.VoteTimeout * 15 / 4
	for peer := 0; peer < nd.n; peer++ {
		if wire.NodeID(peer) == nd.id {
			continue
		}
		synced := false
		deadline := time.Now().Add(budget)
		for try := clockSyncFirstTry; !synced; try *= 2 {
			left := time.Until(deadline)
			if left <= 0 {
				break
			}
			slot := min(try, left)
			end := time.Now().Add(slot)
			resp, err := nd.rpc.CallWithin(slot, wire.NodeID(peer), &wire.ClockSync{})
			if rep, ok := resp.(*wire.ClockSyncReply); err == nil && ok && len(rep.Ext) == nd.n {
				nd.log.FoldKnowledge(rep.Ext)
				nd.raiseExtFrontier(rep.Ext[nd.idx])
				synced = true
			} else {
				time.Sleep(time.Until(end)) // a call that fails fast still spends its slot
			}
		}
		if synced {
			nd.dstats.ClockSyncPeers.Add(1)
		} else {
			nd.dstats.ClockSyncMisses.Add(1)
		}
	}
}

// askCoordinator learns txn's commit verdict and, for a commit, its clocks.
// Own transactions read the local coordinator ledger; others query the
// coordinator up to attempts times, sleeping VoteTimeout/4 before the
// second and doubling each sleep up to 4×VoteTimeout, first reached at the
// fifth. No commit evidence means commit=false, which in-doubt resolution
// (12 attempts) takes as presumed abort — sound because the coordinator
// syncs its commit decision before any decide leaves it. The unreachable-coordinator presumption is the one
// documented conservatism: if the coordinator is down past the retry budget
// its decision cannot be learned, and recovery must not wedge.
//
// That budget is sized for the concurrent-restart case, not just a dead
// coordinator: a coordinator that is itself recovering drops the query
// (timeout here) until its WAL scan completes rather than answering a
// premature unknown, so the retries back off exponentially — roughly 30
// timeouts' worth in total — to ride out a peer's checkpoint-load and
// replay before presuming abort. Recovering a lost freeze vector for an
// already-known commit takes 6 attempts: a missing vector has a sound local
// fallback (the phase-4 floor stamp), so recovery must not wedge on a dead
// coordinator.
func (nd *Node) askCoordinator(txn wire.TxnID, attempts int) (cr coordRecord, commit bool) {
	if txn.Node == nd.id {
		nd.coordMu.Lock()
		cr, ok := nd.coordStatus[txn]
		nd.coordMu.Unlock()
		return cr, ok
	}
	backoff := nd.cfg.VoteTimeout / 4
	maxBackoff := 4 * nd.cfg.VoteTimeout
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff < maxBackoff {
				backoff *= 2
			}
		}
		resp, err := nd.rpc.CallWithin(nd.cfg.VoteTimeout, txn.Node, &wire.TxnStatus{Txn: txn})
		if err != nil {
			continue
		}
		rep, ok := resp.(*wire.TxnStatusReply)
		if !ok {
			continue
		}
		if rep.Known && rep.Commit {
			return coordRecord{commitVC: rep.VC, freezeVC: rep.FreezeVC, know: rep.Know}, true
		}
		return coordRecord{}, false
	}
	return coordRecord{}, false
}

// Recover restores the node from its WAL and checkpoint, then opens it for
// traffic. Must be called exactly once after New on a durable node (it is
// what clears the recovering gate), before any client work; a fresh data
// directory replays nothing. No-op when durability is off.
func (nd *Node) Recover() error {
	if nd.wal == nil {
		return nil
	}
	defer nd.recovering.Store(false)

	// Phase 1: checkpoint — versions into the store, clocks into the
	// commitlog (with the synthetic barrier entry standing in for the
	// compacted history).
	var meta *wal.Record
	_, err := nd.wal.ReplayCheckpoint(func(r *wal.Record) error {
		switch r.Type {
		case wal.RecCheckpointMeta:
			meta = r
		case wal.RecVersion:
			nd.store.RestoreVersion(r.Key, mvstore.VersionRec{
				Val: r.Val, VC: r.VC, Writer: r.Txn, Deps: r.Deps, ExtSID: r.Stamp,
			})
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("engine: recover node %d: %w", nd.id, err)
	}
	var frontier, seqFloor uint64
	if meta != nil {
		mr, ext := meta.VC, meta.VC2
		if len(mr) != nd.n || len(ext) != nd.n {
			return fmt.Errorf("engine: recover node %d: checkpoint clock width %d/%d, want %d",
				nd.id, len(mr), len(ext), nd.n)
		}
		nd.log.Bootstrap(mr, ext)
		frontier = mr[nd.idx]
		nd.raiseExtFrontier(meta.Stamp)
		seqFloor = meta.Seq
	}

	// Phase 2: scan the surviving segments. Later records win: a decide
	// supersedes its prepare, the last freeze for a transaction is the one
	// that counts (they are identical anyway — the vector is assigned once).
	type decideInfo struct {
		vc     vclock.VC
		writes []wire.KV
		deps   []wire.TxnID
	}
	type freezeInfo struct {
		stamp uint64
		keys  []string
		vc    vclock.VC
	}
	prepared := make(map[wire.TxnID]*walTxn)
	decided := make(map[wire.TxnID]*decideInfo)
	freezes := make(map[wire.TxnID]*freezeInfo)
	var ownSeqMax uint64
	err = nd.wal.Replay(func(r *wal.Record) error {
		if r.Txn.Node == nd.id && r.Txn.Seq > ownSeqMax {
			ownSeqMax = r.Txn.Seq
		}
		switch r.Type {
		case wal.RecPrepare:
			if _, done := decided[r.Txn]; !done {
				prepared[r.Txn] = &walTxn{writes: r.Writes, deps: r.Deps}
			}
		case wal.RecDecide:
			delete(prepared, r.Txn)
			if r.Commit {
				if len(r.VC) != nd.n {
					return fmt.Errorf("wal: decide %v clock width %d, want %d", r.Txn, len(r.VC), nd.n)
				}
				decided[r.Txn] = &decideInfo{vc: r.VC, writes: r.Writes, deps: r.Deps}
			}
		case wal.RecCoordCommit:
			nd.recordCoordDecision(r.Txn, r.VC)
		case wal.RecFreeze:
			if len(r.Keys) > 0 {
				freezes[r.Txn] = &freezeInfo{stamp: r.Stamp, keys: r.Keys, vc: r.VC}
			} else if len(r.VC) == nd.n {
				// Coordinator freeze: the freeze vector and Know are durable
				// for in-doubt replies and fold into the node's externally-
				// committed knowledge.
				var know vclock.VC
				if len(r.VC2) == nd.n {
					know = r.VC2
					nd.log.RecordExternal(know)
				}
				nd.recordCoordFreeze(r.Txn, r.VC, know)
				nd.log.RecordExternal(r.VC)
			}
		case wal.RecPurge:
			// Advisory: queue entries are not rebuilt across a restart, so
			// there is nothing to purge during replay.
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("engine: recover node %d: %w", nd.id, err)
	}

	// coordStatus now holds every durable commit decision this node ever
	// coordinated (checkpoint re-log + surviving segments), so peers'
	// in-doubt queries can be answered from here on — critically, while the
	// phases below run. Phase 3 may itself block on other restarting
	// coordinators; gating TxnStatus on full recovery would deadlock
	// mutually in-doubt restarts into presumed abort.
	nd.statusReady.Store(true)

	// Phase 3: resolve in-doubt transactions — prepared here, no decide
	// logged, which includes a client-acked commit whose unsynced decide
	// record this crash lost — before applying, because a commit verdict's clock decides
	// its position in the apply order.
	for txn, p := range prepared {
		nd.dstats.InDoubt.Add(1)
		cr, commit := nd.askCoordinator(txn, 12)
		if !commit {
			nd.dstats.InDoubtAborted.Add(1)
			continue
		}
		if len(cr.commitVC) != nd.n {
			return fmt.Errorf("engine: recover node %d: in-doubt %v commit clock width %d, want %d",
				nd.id, txn, len(cr.commitVC), nd.n)
		}
		nd.dstats.InDoubtCommitted.Add(1)
		decided[txn] = &decideInfo{vc: cr.commitVC, writes: p.writes, deps: p.deps}
		if len(cr.freezeVC) == nd.n {
			freezes[txn] = &freezeInfo{stamp: cr.freezeVC[nd.idx], keys: nd.localWrites(p.writes),
				vc: nd.withKnow(cr.commitVC, cr.know)}
		}
	}

	// Phase 3b: recover missing freeze vectors. A transaction can be
	// decided here with no freeze record durable: this replica acked its
	// freeze before the record's fsync (applyFreeze) and crashed within
	// the WAL's lag bound, or this node crashed before the coordinator's
	// freeze reached it and the freeze-ack budget released the client reply
	// rather than wedging the commit (awaitFreezeAcks) — either way the
	// client was acked. Re-stamping such versions at the local floor is not
	// enough: the freeze vector would never fold back into
	// this node's external-knowledge clock, and the restarted node would
	// coordinate read-only snapshots with a regressed clock — serving
	// client-acked writes stale (the disk-fault lanes catch this as a
	// real-time cycle in the client history). Ask the coordinator, exactly
	// as in-doubt resolution does; the floor stamp in phase 4 remains the
	// fallback when it is unreachable.
	for txn, d := range decided {
		if freezes[txn] != nil || d.vc[nd.idx] <= frontier {
			continue
		}
		keys := nd.localWrites(d.writes)
		if len(keys) == 0 {
			continue
		}
		if cr, _ := nd.askCoordinator(txn, 6); len(cr.freezeVC) == nd.n {
			nd.dstats.FreezeResolved.Add(1)
			freezes[txn] = &freezeInfo{stamp: cr.freezeVC[nd.idx], keys: keys, vc: nd.withKnow(d.vc, cr.know)}
		} else {
			nd.dstats.FreezeUnresolved.Add(1)
		}
	}

	// Phase 4: apply committed transactions above the checkpoint frontier,
	// ascending by their write slot here — the CommitQ order the live node
	// applied them in. Each runs through the real Prepare/Decide machinery
	// so the NLog and clock snapshot come out as if the node had never
	// crashed. Per-key version-identity dedupe absorbs the fuzzy-checkpoint
	// overlap (a transaction both dumped and re-logged).
	type applyItem struct {
		txn wire.TxnID
		d   *decideInfo
	}
	var items []applyItem
	for txn, d := range decided {
		if d.vc[nd.idx] > frontier {
			items = append(items, applyItem{txn: txn, d: d})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.d.vc[nd.idx] != b.d.vc[nd.idx] {
			return a.d.vc[nd.idx] < b.d.vc[nd.idx]
		}
		if a.txn.Node != b.txn.Node {
			return a.txn.Node < b.txn.Node
		}
		return a.txn.Seq < b.txn.Seq
	})
	for _, it := range items {
		d := it.d
		txn := it.txn
		var appliedKeys []string
		nd.log.Prepare(txn, true, func(commitVC vclock.VC) {
			for _, kvp := range d.writes {
				if nd.lookup.IsReplica(kvp.Key, nd.id) && !nd.store.HasVersion(kvp.Key, txn) {
					nd.store.Apply(kvp.Key, kvp.Val, commitVC, txn, d.deps)
					appliedKeys = append(appliedKeys, kvp.Key)
				}
			}
		})
		nd.log.Decide(txn, d.vc, true, true)
		nd.dstats.ReplayedCommits.Add(1)
		if freezes[txn] == nil {
			// Committed but with no logged freeze: the coordinator's freeze
			// vector never (durably) reached this replica. Stamp with the
			// own-slot floor so the version is not left provisional forever;
			// the true stamp can only be higher, so this is the conservative
			// direction for this replica (documented in ARCHITECTURE.md).
			for _, k := range appliedKeys {
				nd.store.SQStampWrite(k, txn, d.vc[nd.idx])
			}
		}
	}

	// Phase 5: re-stamp from the logged freeze vectors. Min-wins against
	// equal checkpoint stamps makes this idempotent; versions restored from
	// the checkpoint already carry their stamps.
	for txn, f := range freezes {
		for _, k := range f.keys {
			nd.store.SQStampWrite(k, txn, f.stamp)
		}
		nd.raiseExtFrontier(f.stamp)
		if len(f.vc) == nd.n {
			ext := f.vc.Clone()
			if f.stamp > ext[nd.idx] {
				ext[nd.idx] = f.stamp
			}
			nd.log.RecordExternal(ext)
		}
	}

	// Phase 5b: clock catch-up round. Phases 1-5 rebuilt everything durable;
	// this folds in what was volatile (see clockCatchup) before the
	// recovering gate opens the node to clients.
	nd.clockCatchup()

	// The transaction-sequence epoch bump: recovered Seq values are a floor,
	// but aborted in-doubt transactions may have handed out IDs no record
	// survives for, so restart into a fresh epoch well above anything this
	// node can have issued.
	if ownSeqMax > seqFloor {
		seqFloor = ownSeqMax
	}
	nd.lastSeq.Store(seqFloor + 1<<32)
	return nil
}

// localWrites returns the written keys this node replicates.
func (nd *Node) localWrites(writes []wire.KV) []string {
	var keys []string
	for _, kvp := range writes {
		if nd.lookup.IsReplica(kvp.Key, nd.id) {
			keys = append(keys, kvp.Key)
		}
	}
	return keys
}

// withKnow is a recovered freeze's external-clock contribution: the commit
// clock joined with the order's Know — exactly the VC a write replica's own
// freeze record would have carried (applyFreeze).
func (nd *Node) withKnow(commitVC, know vclock.VC) vclock.VC {
	if len(know) != nd.n {
		return commitVC
	}
	return vclock.Max(commitVC, know)
}

func (nd *Node) raiseExtFrontier(stamp uint64) {
	for {
		cur := nd.extFrontier.Load()
		if stamp <= cur || nd.extFrontier.CompareAndSwap(cur, stamp) {
			return
		}
	}
}

// Checkpoint cuts a durable snapshot bounding WAL replay: the store's
// version chains plus the clock frontier go to the checkpoint file, while
// everything still in flight — unpurged write-replica transactions and the
// coordinator decision ledger — is re-logged into the freshly rotated
// segment so reclaiming the older segments loses nothing. The re-log runs
// before the frontier capture: anything purged by then applied before the
// captured frontier, so its slot is covered by the barrier entry and its
// version (with stamp) by the dump.
func (nd *Node) Checkpoint() error {
	if nd.wal == nil {
		return nil
	}
	return nd.wal.WriteCheckpoint(func(emit func(*wal.Record) error) error {
		for i := range nd.stripes {
			st := &nd.stripes[i]
			st.mu.Lock()
			for txn, wt := range st.walTxns {
				if wt.decided {
					nd.wal.Append(&wal.Record{Type: wal.RecDecide, Txn: txn, Commit: true,
						VC: wt.vc, Writes: wt.writes, Deps: wt.deps})
				} else {
					nd.wal.Append(&wal.Record{Type: wal.RecPrepare, Txn: txn,
						Writes: wt.writes, Deps: wt.deps})
				}
			}
			st.mu.Unlock()
		}
		nd.coordMu.Lock()
		for txn, cr := range nd.coordStatus {
			nd.wal.Append(&wal.Record{Type: wal.RecCoordCommit, Txn: txn, VC: cr.commitVC})
			if cr.freezeVC != nil {
				nd.wal.Append(&wal.Record{Type: wal.RecFreeze, Txn: txn, VC: cr.freezeVC, VC2: cr.know})
			}
		}
		nd.coordMu.Unlock()
		meta := &wal.Record{
			Type:  wal.RecCheckpointMeta,
			VC:    nd.log.MostRecentVC(),
			VC2:   nd.log.ExternalVC(),
			Stamp: nd.extFrontier.Load(),
			Seq:   nd.lastSeq.Load(),
		}
		if err := emit(meta); err != nil {
			return err
		}
		return nd.store.Dump(func(key string, v mvstore.VersionRec) error {
			return emit(&wal.Record{Type: wal.RecVersion, Key: key, Val: v.Val,
				VC: v.VC, Txn: v.Writer, Deps: v.Deps, Stamp: v.ExtSID})
		})
	})
}

// checkpointLoop cuts periodic checkpoints until Close.
func (nd *Node) checkpointLoop() {
	t := time.NewTicker(nd.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-nd.stop:
			return
		case <-t.C:
			if nd.recovering.Load() {
				continue
			}
			if err := nd.Checkpoint(); err != nil {
				nd.dstats.CheckpointErrors.Add(1)
			}
		}
	}
}
