package engine

import (
	"time"

	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wal"
	"github.com/sss-paper/sss/internal/wire"
)

// The external commit's freeze and purge rounds. The coordinator sends a
// transaction's freeze as one acked fan-out of a wire.Freeze to its write
// replicas, and each replica's wire.Purge as one notification after that
// replica's freeze ack, so no purge precedes its freeze. Nothing here
// batches the freezes of concurrent commits: the transport already coalesces
// whatever envelopes queue for one peer into one frame.

// extMsgs is one transaction's freeze and purge messages in a single
// allocation.
type extMsgs struct {
	freeze wire.Freeze
	purge  wire.Purge
}

func newExtMsgs(f wire.Freeze) *extMsgs {
	return &extMsgs{freeze: f, purge: wire.Purge{Txn: f.Txn}}
}

// awaitFreezeAcks collects the acks of freeze under the freeze-ack
// discipline (docs/CONSISTENCY.md §7) and returns the write replicas among
// targets that have not acked, nil once all have. fan is the freeze's first
// fan-out to targets, collected until deadline; nil means that round
// already failed. A freeze is not abandonable — an unstamped version at one
// replica while another carries the stamp makes read-only verdicts
// replica-dependent — so each failed round counts FreezeRetries and, after a
// VoteTimeout/2 back-off, resends freeze to the replicas still missing,
// each resend awaited for VoteTimeout (a duplicate after an acked-but-late
// delivery re-stamps the same value). Before budget passes, every missing
// leg counts FreezeAckWithheld: the caller's client reply waits. Past it the
// missing legs count FreezeAckBudgetExpired and are returned, so the reply
// is released liveness-first; a zero budget never passes. Close ends the
// wait as well. acked is scratch of at least len(targets).
func (nd *Node) awaitFreezeAcks(fan *transport.Multi, freeze *wire.Freeze, targets []wire.NodeID, deadline, budget time.Time, acked []bool) []wire.NodeID {
	for {
		if fan == nil {
			select {
			case <-time.After(nd.cfg.VoteTimeout / 2):
			case <-nd.stop:
				return targets
			}
			fan = nd.rpc.Multi(targets, freeze)
			deadline = time.Now().Add(nd.cfg.VoteTimeout)
		}
		targets, fan = unacked(fan, targets, deadline, acked), nil
		if len(targets) == 0 || nd.closed.Load() {
			return targets
		}
		nd.stats.FreezeRetries.Add(1)
		if !budget.IsZero() {
			if !time.Now().Before(budget) {
				nd.stats.FreezeAckBudgetExpired.Add(uint64(len(targets)))
				return targets
			}
			nd.stats.FreezeAckWithheld.Add(uint64(len(targets)))
		}
	}
}

// unacked collects fan's replies until every leg answered or deadline
// passed, releases fan, and returns the targets that did not answer, in
// order; nil when all did.
func unacked(fan *transport.Multi, targets []wire.NodeID, deadline time.Time, acked []bool) []wire.NodeID {
	defer fan.Release()
	acked = acked[:len(targets)]
	clear(acked)
	n := 0
	for {
		leg, _, err := fan.Next(deadline)
		if err != nil {
			break
		}
		acked[leg] = true
		n++
	}
	if n == len(targets) {
		return nil
	}
	missing := make([]wire.NodeID, 0, len(targets)-n)
	for i, ok := range acked {
		if !ok {
			missing = append(missing, targets[i])
		}
	}
	return missing
}

// purgeFrozen sends the purge of m to every write replica not in missing —
// the ones that acked its freeze, at acked. The missing ones get theirs from
// a goroutine that keeps redelivering the freeze until they ack or the node
// closes; a replica is purged only after its freeze ack.
func (nd *Node) purgeFrozen(m *extMsgs, writeNodes, missing []wire.NodeID, acked time.Time) {
	for _, w := range writeNodes {
		if !containsNode(missing, w) {
			_ = nd.rpc.Notify(w, &m.purge)
			nd.stats.Stage.Purge.Observe(time.Since(acked))
		}
	}
	if len(missing) == 0 {
		return
	}
	nd.spawn(func() {
		late := nd.awaitFreezeAcks(nil, &m.freeze, missing, time.Time{}, time.Time{}, make([]bool, len(missing)))
		if len(late) == 0 {
			nd.purgeFrozen(m, missing, nil, time.Now())
		}
	})
}

// handleFreeze applies one freeze order and acks it. No ack from a
// poisoned log: the coordinator's call must time out instead, the same
// signal a crashed replica gives it. (The local stamps still applied — the
// vector is the true one — but this node may no longer vouch for durable
// work.)
func (nd *Node) handleFreeze(from wire.NodeID, rid uint64, f *wire.Freeze) {
	err := nd.applyFreeze(*f)
	nd.stats.CommitRounds.FreezeBatches.Add(1)
	nd.stats.CommitRounds.FreezeBatchTxns.Add(1)
	if rid != 0 && err == nil {
		_ = nd.rpc.Reply(from, rid, &wire.FreezeAck{})
	}
}

// applyFreeze is the freeze phase of the external commit at a write replica.
// The writer is stamped with this node's entry of the coordinator-assigned
// freeze vector *on arrival*, before its gated re-drain: the verdict for the
// writer turns deterministic in (stamp, reader cut) the moment the broadcast
// lands, never whenever this replica's re-drain completes — per-replica flag
// timing was the freeze-skew residue (docs/CONSISTENCY.md §5).
//
// A poisoned WAL's latched failure is returned (after the local freeze work
// completes, so no reader is left parked on a half-frozen writer) and the
// caller must withhold the ack.
func (nd *Node) applyFreeze(f wire.Freeze) error {
	st := nd.stripeOf(f.Txn)
	st.mu.Lock()
	parked := st.parked[f.Txn]
	st.mu.Unlock()
	// Fallback for a missing vector: the local applied frontier.
	stamp := nd.log.AppliedSelf()
	if len(f.VC) > nd.idx {
		stamp = f.VC[nd.idx]
	}
	for _, k := range parked.keys {
		nd.store.SQStampWrite(k, f.Txn, stamp)
	}
	// The freezing transaction's clock, raised to its stamp, is safe to
	// propagate into other transactions' clocks and read bounds: unlike the
	// applied frontier, it names no parked stranger. What the committer
	// learned by waiting out its pending writers (Know), folded before the
	// flag (and so before the purge), is what lets a reader of this version
	// inherit no dependency set once the W entry is gone (handleUpdateRead).
	var ext vclock.VC
	if parked.vc != nil {
		ext = parked.vc.Clone()
		if stamp > ext[nd.idx] {
			ext[nd.idx] = stamp
		}
		if len(f.Know) == nd.n {
			ext.MaxInto(f.Know)
		}
	}
	var walErr error
	if nd.wal != nil {
		// One freeze record, unsynced: it and the decide record before it
		// ride this node's next fsync (at most the WAL's lag bound away), and
		// nobody waits for them. Before the client reply everything they
		// carry is durable at the coordinator — the commit clock in its
		// decision record, the freeze vector and Know in its freeze record —
		// and recovery phases 3/3b rebuild this record from there when a
		// crash loses it. A duplicate freeze or a non-replica has nothing to
		// re-stamp and logs nothing.
		if len(parked.keys) > 0 {
			// VC is the record's external-clock contribution, so replay
			// restores what the live fold above learned: Know included.
			vc := parked.vc
			if len(f.Know) == nd.n {
				vc = vclock.Max(vc, f.Know)
			}
			nd.wal.Append(&wal.Record{Type: wal.RecFreeze, Txn: f.Txn, Stamp: stamp,
				Keys: parked.keys, VC: vc})
		}
		walErr = nd.wal.Err()
	}
	nd.raiseExtFrontier(stamp)
	if ext != nil {
		nd.log.RecordExternal(ext)
	}
	// Then the gated re-drain and the flags. Reader verdicts use the stamp
	// set above, and no reader ever waits on a flag.
	nd.redrainAndFlag(f.Txn, parked, stamp)
	return walErr
}

// redrainAndFlag completes one transaction's freeze phase: wait out any
// reader that serialized before it (a reader that excluded this writer
// inserted an entry with a strictly smaller insertion-snapshot — the
// late-insert window after the pre-commit drain), then flag its entries. The
// flag, and hence the writer's client reply, waits for that reader.
func (nd *Node) redrainAndFlag(txn wire.TxnID, ps parkedState, stamp uint64) {
	nd.waitParkedDrain(txn, ps)
	for _, k := range ps.keys {
		nd.store.SQFlagWrite(k, txn, stamp)
	}
}

// waitParkedDrain waits, on each of txn's parked keys, until no snapshot-queue
// entry with a smaller insertion-snapshot remains (bounded by DrainTimeout,
// counted when it expires).
func (nd *Node) waitParkedDrain(txn wire.TxnID, ps parkedState) {
	for _, k := range ps.keys {
		if !nd.store.SQWaitDrain(k, txn, ps.sid, nd.cfg.DrainTimeout) {
			nd.stats.DrainTimeouts.Add(1)
		}
	}
}

// purgeParked removes txn's parked state and snapshot-queue W entries (the
// purge phase of the external commit, a wire.Purge). A duplicate purge, or
// one for a transaction this node never parked, finds nothing and does
// nothing.
func (nd *Node) purgeParked(txn wire.TxnID) {
	st := nd.stripeOf(txn)
	st.mu.Lock()
	ps := st.parked[txn]
	delete(st.parked, txn)
	hadWAL := false
	if nd.wal != nil {
		_, hadWAL = st.walTxns[txn]
		delete(st.walTxns, txn)
	}
	st.mu.Unlock()
	if hadWAL {
		// Unsynced: a purge record only mirrors the commit path's last
		// stage; replay never rebuilds queue entries, so losing it is free.
		nd.wal.Append(&wal.Record{Type: wal.RecPurge, Txn: txn})
	}
	for _, k := range ps.keys {
		nd.store.SQRemoveWrite(k, txn)
	}
}
