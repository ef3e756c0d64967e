package engine

import (
	"sync"
	"time"

	"github.com/sss-paper/sss/internal/batchq"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wal"
	"github.com/sss-paper/sss/internal/wire"
)

// Per-replica commit pipelining (group commit) for the external-commit
// traffic. Every peer gets one batchq.Queue drained by a single sender
// goroutine, the same queue the transport's peer streams use: concurrent
// update transactions' freeze orders — and the purge notifications that
// follow — accumulate while the previous flush is in flight and are
// coalesced into one wire.ExtBatch envelope. The replica applies the batch's freezes with one
// grouped pass over its striped state and a single clock republish
// (handleExtBatch), and answers with one ack covering every freeze in it.
//
// Ordering: a transaction's purge is enqueued only after its freeze ack
// returned, so queue FIFO order preserves the per-transaction
// freeze-before-purge requirement; freezes of distinct transactions carry
// independent, coordinator-assigned freeze vectors and may batch in any
// order.

// maxExtBatch caps the freezes+purges coalesced into one ExtBatch. It only
// bounds pathological backlogs; natural batch sizes track the commit
// concurrency per peer.
const maxExtBatch = 128

// extItem is one queued external-commit order: a freeze (vc non-nil, done
// signalled once the replica acked; know is its wire.ExtFreeze.Know) or a
// purge (vc nil, done nil).
// deadline is a waited freeze's ack budget: until it passes, a
// failed delivery requeues the item together with its waiter (the client
// ack stays withheld); past it the waiter is released liveness-first.
type extItem struct {
	txn      wire.TxnID
	vc       vclock.VC
	know     vclock.VC
	done     chan struct{}
	deadline time.Time
	// enq is the enqueue instant of purge items, feeding the Purge stage
	// histogram (enqueue → batch flushed); zero for freezes.
	enq time.Time
}

// extSender drains one peer's commit queue: it coalesces whatever
// accumulated into a single ExtBatch, issues it as one acked call when it
// carries freezes (one-way when purge-only), and releases every freeze
// waiter on the ack. One in-flight batch per peer: the next batch forms
// while the current one is on the wire — pipelined group commit.
func (nd *Node) extSender(peer wire.NodeID, q *batchq.Queue[extItem]) {
	defer nd.extSenders.Done()
	var batch []extItem
	// msg is reused across acked flushes: once the batch ack returned, no
	// handler references the message anymore (the reply is the handler's
	// last action), on either transport. One-way purge flushes and errored
	// calls abandon it — the receiver (or the in-flight encode) may still
	// hold the reference.
	msg := &wire.ExtBatch{}
	for {
		var open bool
		batch, open = q.Take(batch[:0], maxExtBatch)
		if len(batch) == 0 {
			return
		}
		msg.Freezes, msg.Purges = msg.Freezes[:0], msg.Purges[:0]
		for _, it := range batch {
			if it.vc != nil {
				msg.Freezes = append(msg.Freezes, wire.ExtFreeze{Txn: it.txn, VC: it.vc, Know: it.know})
			} else {
				msg.Purges = append(msg.Purges, it.txn)
			}
		}
		switch {
		case !open:
			// Shutdown: drop the sends (peers may be gone; a Call would
			// only park until its timeout) but never a waiter.
		case len(msg.Freezes) > 0:
			_, err := nd.rpc.CallWithin(nd.cfg.VoteTimeout, peer, msg)
			if err != nil {
				nd.stats.DrainTimeouts.Add(1)
				// The freezes are NOT abandonable: an unstamped version at
				// one replica while another replica carries the stamp means
				// replica-dependent read-only verdicts — a consistency
				// hole, not a performance loss. Requeue them at the queue
				// front and back off; duplicates after an acked-but-timed-
				// out delivery are absorbed by applyFreezeBatch's dedupe.
				// Purges are advisory and can drop. A down replica
				// generates no new freezes (its prepares fail), so the
				// requeue set is bounded by the in-flight window at
				// failure time.
				//
				// Waiter policy is the freeze-ack discipline: within the
				// item's FreezeAckBudget deadline the waiter rides the
				// requeue — the committer's client ack stays withheld, so
				// the ack cannot outrun this replica's stamp across an
				// outage shorter than the budget. Past the deadline the
				// waiter releases liveness-first: a dead replica must not
				// wedge the committer forever, and the expiry is counted.
				nd.stats.FreezeRetries.Add(1)
				now := time.Now()
				retry := make([]extItem, 0, len(batch))
				for i := range batch {
					it := &batch[i]
					if it.vc == nil {
						continue
					}
					keep := extItem{txn: it.txn, vc: it.vc, know: it.know}
					if it.done != nil {
						if now.Before(it.deadline) {
							keep.done, keep.deadline = it.done, it.deadline
							it.done = nil // withheld: not released below
							nd.stats.FreezeAckWithheld.Add(1)
						} else {
							nd.stats.FreezeAckBudgetExpired.Add(1)
						}
					}
					retry = append(retry, keep)
				}
				// Requeued at the front, ahead of everything enqueued since:
				// a transaction's purge enqueues only after its freeze
				// waiters release, so it can only be behind its freeze.
				if !q.PushFront(retry...) {
					// Shutdown raced the redelivery: the queue will never
					// drain again, so a waiter riding the requeue releases
					// here — the closing sender never drops a waiter.
					for i := range retry {
						if retry[i].done != nil {
							close(retry[i].done)
						}
					}
				}
				msg = &wire.ExtBatch{} // in flight somewhere; abandon
				for i := range batch {
					if batch[i].done != nil {
						close(batch[i].done)
					}
					batch[i] = extItem{}
				}
				time.Sleep(nd.cfg.VoteTimeout / 2)
				continue
			}
		default:
			_ = nd.rpc.Notify(peer, msg)
			msg = &wire.ExtBatch{} // one-way: the receiver still holds it
		}
		for i := range batch {
			if batch[i].done != nil {
				close(batch[i].done)
			}
			if open && batch[i].vc == nil && !batch[i].enq.IsZero() {
				nd.stats.Stage.Purge.Observe(time.Since(batch[i].enq))
			}
			batch[i] = extItem{}
		}
	}
}

// enqueueFreezes queues t's freeze order for every write replica and
// returns one completion channel per replica, in writeNodes order. know is
// the order's wire.ExtFreeze.Know (nil when t waited for nobody); dst is
// reused caller scratch.
func (nd *Node) enqueueFreezes(txn wire.TxnID, writeNodes []wire.NodeID, freezeVC, know vclock.VC, dst []chan struct{}) []chan struct{} {
	deadline := time.Now().Add(nd.cfg.FreezeAckBudget)
	for _, w := range writeNodes {
		done := make(chan struct{})
		if !nd.extq[w].Push(extItem{txn: txn, vc: freezeVC, know: know, done: done, deadline: deadline}) {
			close(done) // shutting down; don't park the committer
		}
		dst = append(dst, done)
	}
	return dst
}

// awaitFreezes waits for every freeze completion. No own timer: each
// waiter is closed unconditionally by its peer's sender once the batch
// call returns, and that call is bounded by VoteTimeout (queue close
// releases waiters immediately), so the wait is already bounded.
func (nd *Node) awaitFreezes(waiters []chan struct{}) {
	for _, d := range waiters {
		<-d
	}
}

// enqueuePurges queues t's purge notification for every write replica.
func (nd *Node) enqueuePurges(txn wire.TxnID, writeNodes []wire.NodeID) {
	for _, w := range writeNodes {
		if !nd.extq[w].Push(extItem{txn: txn, enq: time.Now()}) {
			// Shutting down: purge locally when possible so tests tearing
			// down observe empty queues; remote peers are gone anyway.
			if w == nd.id {
				nd.purgeParked(txn)
			}
		}
	}
}

// handleExtBatch applies one coalesced external-commit batch: every freeze
// is stamped on arrival (grouped by stripe, one striped-lock acquisition
// per distinct stripe), the batch's clocks fold into the external-knowledge
// clock with a single republish, the gated re-drains and flags run
// concurrently, and one ack answers for all freezes. Purges ride behind.
func (nd *Node) handleExtBatch(from wire.NodeID, rid uint64, m *wire.ExtBatch) {
	var freezeErr error
	if len(m.Freezes) > 0 {
		freezeErr = nd.applyFreezeBatch(m.Freezes)
		nd.stats.CommitRounds.FreezeBatches.Add(1)
		nd.stats.CommitRounds.FreezeBatchTxns.Add(uint64(len(m.Freezes)))
	}
	if len(m.Purges) > 0 {
		nd.applyPurgeBatch(m.Purges)
		nd.stats.CommitRounds.PurgeBatchTxns.Add(uint64(len(m.Purges)))
	}
	// No ack from a poisoned log: the coordinator's batch call must time
	// out instead, the same signal a crashed replica gives it. (The local
	// stamps above still applied — the vector is the true one — but this
	// node may no longer vouch for durable work.)
	if rid != 0 && freezeErr == nil {
		_ = nd.rpc.Reply(from, rid, &wire.ExtBatchAck{Freezes: uint64(len(m.Freezes))})
	}
}

// freezeScratch pools the replica-side batch-apply arrays.
type freezeScratch struct {
	parked  []parkedState
	stamps  []uint64
	visited []bool
}

var freezeScratchPool = sync.Pool{New: func() any { return &freezeScratch{} }}

func (fs *freezeScratch) sized(n int) ([]parkedState, []uint64, []bool) {
	if cap(fs.parked) < n {
		fs.parked = make([]parkedState, n)
		fs.stamps = make([]uint64, n)
		fs.visited = make([]bool, n)
	}
	fs.parked, fs.stamps, fs.visited = fs.parked[:n], fs.stamps[:n], fs.visited[:n]
	for i := 0; i < n; i++ {
		fs.parked[i] = parkedState{}
		fs.stamps[i] = 0
		fs.visited[i] = false
	}
	return fs.parked, fs.stamps, fs.visited
}

// applyFreezeBatch is the freeze phase of the external commit, for every
// transaction in the batch (a batch of one included — there is no other
// freeze applier). Each writer is stamped with this node's entry of the
// coordinator-assigned freeze vector *on arrival*, before its gated
// re-drain: the verdict for the writer turns deterministic in (stamp, reader
// cut) the moment the broadcast lands, never whenever this replica's
// re-drain completes — per-replica flag timing was the freeze-skew residue
// (docs/CONSISTENCY.md §5). The batch pays the striped-state walk once per
// stripe and republishes the node's clock snapshot once.
//
// A poisoned WAL's latched failure is returned (after the local freeze work
// completes, so no reader is left parked on a half-frozen writer) and the
// caller must withhold the batch ack.
func (nd *Node) applyFreezeBatch(freezes []wire.ExtFreeze) error {
	fs := freezeScratchPool.Get().(*freezeScratch)
	defer freezeScratchPool.Put(fs)
	parked, stamps, visited := fs.sized(len(freezes))
	// Phase 1a: collect parked states, one striped-lock acquisition per
	// distinct stripe (the batch's transactions hash across stripes).
	for i := range freezes {
		if visited[i] {
			continue
		}
		st := nd.stripeOf(freezes[i].Txn)
		st.mu.Lock()
		for j := i; j < len(freezes); j++ {
			if !visited[j] && nd.stripeOf(freezes[j].Txn) == st {
				parked[j] = st.parked[freezes[j].Txn]
				visited[j] = true
			}
		}
		st.mu.Unlock()
	}
	// Phase 1b: stamp every entry and version at arrival — the moment the
	// verdict for each writer becomes deterministic at this replica — and
	// fold the batch's externally-committed knowledge into one clock.
	var ext vclock.VC
	var maxStamp uint64
	for i, f := range freezes {
		// Fallback for a missing vector: the local applied frontier.
		stamp := nd.log.AppliedSelf()
		if len(f.VC) > nd.idx {
			stamp = f.VC[nd.idx]
		}
		stamps[i] = stamp
		for _, k := range parked[i].keys {
			nd.store.SQStampWrite(k, f.Txn, stamp)
		}
		if stamp > maxStamp {
			maxStamp = stamp
		}
		// The freezing transaction's clock, raised to its stamp, is safe to
		// propagate into other transactions' clocks and read bounds: unlike
		// the applied frontier, it names no parked stranger.
		if vc := parked[i].vc; vc != nil {
			if ext == nil {
				ext = vc.Clone()
			} else {
				ext.MaxInto(vc)
			}
			if stamp > ext[nd.idx] {
				ext[nd.idx] = stamp
			}
			// What the committer learned by waiting out its pending writers:
			// folded before the flag (and so before the purge), it is what
			// lets a reader of this version inherit no dependency set once
			// the W entry is gone (handleUpdateRead).
			if len(f.Know) == nd.n {
				ext.MaxInto(f.Know)
			}
		}
	}
	var walErr error
	if nd.wal != nil {
		// One freeze record per transaction in the batch, unsynced: it and
		// the decide record before it ride this node's next fsync (at most
		// the WAL's lag bound away), and nobody waits for them. Before the
		// client reply everything they carry is durable at the coordinator
		// — the commit clock in its decision record, the freeze vector and
		// Know in its freeze record — and recovery phases 3/3b rebuild this
		// record from there when a crash loses it.
		for i, f := range freezes {
			if len(parked[i].keys) == 0 {
				continue // duplicate freeze or non-replica; nothing to re-stamp
			}
			// VC is the record's external-clock contribution, so replay
			// restores what the live fold above learned: Know included.
			vc := parked[i].vc
			if len(f.Know) == nd.n {
				vc = vclock.Max(vc, f.Know)
			}
			nd.wal.Append(&wal.Record{Type: wal.RecFreeze, Txn: f.Txn, Stamp: stamps[i],
				Keys: parked[i].keys, VC: vc})
		}
		walErr = nd.wal.Err()
	}
	nd.raiseExtFrontier(maxStamp)
	if ext != nil {
		// RecordExternal is a monotone max-fold, so folding the batch's
		// join in one call reaches the same clock as per-transaction folds
		// — with a single snapshot republish.
		nd.log.RecordExternal(ext)
	}
	// Phase 2: gated re-drains + flags. Concurrent per transaction so one
	// reader-gated writer cannot serialize the batch behind its wait; the
	// single batch ack still waits for the slowest (group commit).
	if len(freezes) == 1 {
		nd.redrainAndFlag(freezes[0].Txn, parked[0], stamps[0])
		return walErr
	}
	var wg sync.WaitGroup
	for i := range freezes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nd.redrainAndFlag(freezes[i].Txn, parked[i], stamps[i])
		}(i)
	}
	wg.Wait()
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

// applyPurgeBatch deletes the batch's W entries, one transaction at a
// time (the purge win of ExtBatch is envelope coalescing; the per-txn
// stripe work is too small to be worth grouping).
func (nd *Node) applyPurgeBatch(purges []wire.TxnID) {
	for _, txn := range purges {
		nd.purgeParked(txn)
	}
}

// purgeParked removes txn's parked state and snapshot-queue W entries (the
// purge phase of the external commit).
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
