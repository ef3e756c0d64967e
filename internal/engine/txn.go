package engine

import (
	"fmt"
	"slices"
	"time"

	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wal"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// Txn is a transaction coordinated by its local node (the client is
// co-located, §II). It implements kv.Txn.
type Txn struct {
	nd       *Node
	id       wire.TxnID
	readOnly bool

	vc vclock.VC
	// initVC is the snapshot adopted at the first read: the floor beneath
	// which no per-node bound may freeze (external consistency: every commit
	// whose client reply preceded this transaction's begin is inside it).
	initVC    vclock.VC
	hasRead   []bool
	firstRead bool

	rs      map[string]readVal
	rsOrder []string
	// touched lists every key a read was *attempted* on: replicas may hold
	// snapshot-queue entries even for reads that errored out, so Remove
	// must cover them all.
	touched []string
	ws      map[string][]byte
	wsOrder []string

	// propagated accumulates the snapshot-queue entries returned by update
	// reads (transitive anti-dependencies), deduplicated by transaction
	// with the smallest insertion-snapshot retained.
	propagated map[wire.TxnID]wire.SQEntry
	// pendingWriters lists the parked (internally- but not externally-
	// committed) transactions whose versions this transaction read; its
	// own completion must wait for theirs.
	pendingWriters map[wire.TxnID]struct{}
	// deps is the update transaction's dependency set: the writers that
	// were parked when it read their versions, plus the stored sets of those
	// versions (ReadReturn.VerDeps, sent only for a parked writer). Installed
	// on the versions it writes.
	deps map[wire.TxnID]struct{}
	// seen lists writers whose versions this read-only transaction has
	// observed; before lists writers it serialized before and must keep
	// excluding (the value is wire.ExWriter.VC: the stamp it excluded them
	// by, if any); obs is the entry-wise max over observed versions' commit
	// clocks.
	seen   map[wire.TxnID]struct{}
	before map[wire.TxnID]vclock.VC
	obs    vclock.VC

	begin time.Time
	done  bool
}

type readVal struct {
	val    []byte
	exists bool
	writer wire.TxnID
}

var (
	_ kv.Txn         = (*Txn)(nil)
	_ kv.MultiReader = (*Txn)(nil)
)

// Begin starts a transaction on this node. Read-only transactions must be
// declared; they are never aborted by the concurrency control.
func (nd *Node) Begin(readOnly bool) *Txn {
	// ws is allocated lazily in Write: read-only transactions never need it,
	// and only they keep per-node first-contact flags.
	t := &Txn{
		nd:        nd,
		id:        wire.TxnID{Node: nd.id, Seq: nd.txnSeq.Add(1)},
		readOnly:  readOnly,
		firstRead: true,
		rs:        make(map[string]readVal),
		begin:     time.Now(),
	}
	if readOnly {
		t.hasRead = make([]bool, nd.n)
	}
	return t
}

// ID returns the transaction's identifier.
func (t *Txn) ID() wire.TxnID { return t.id }

// ReadWriters reports, per read key, the transaction that wrote the version
// this transaction observed. Used by the external-consistency checker.
func (t *Txn) ReadWriters() map[string]wire.TxnID {
	out := make(map[string]wire.TxnID, len(t.rs))
	for k, v := range t.rs {
		out[k] = v.writer
	}
	return out
}

// WriteKeys returns the keys this transaction wrote.
func (t *Txn) WriteKeys() []string {
	out := make([]string, len(t.wsOrder))
	copy(out, t.wsOrder)
	return out
}

// Read implements kv.Txn: a MultiRead of one key.
func (t *Txn) Read(key string) ([]byte, bool, error) {
	keys := [1]string{key}
	var out [1]kv.ReadResult
	if err := t.read(keys[:], out[:]); err != nil {
		return nil, false, err
	}
	return out[0].Val, out[0].Exists, nil
}

// MultiRead implements kv.MultiReader (Algorithm 5): the results are those
// of Reads of keys in order. An update transaction's reads take no
// snapshot, so they go out as one fan-out (updateReads); a read-only
// transaction's reads stay one after another, because each read's
// first-contact bound depends on the reads before it.
func (t *Txn) MultiRead(keys []string) ([]kv.ReadResult, error) {
	out := make([]kv.ReadResult, len(keys))
	if err := t.read(keys, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (t *Txn) read(keys []string, out []kv.ReadResult) error {
	if t.done {
		return kv.ErrTxnDone
	}
	if !t.readOnly {
		return t.updateReads(keys, out)
	}
	for i, key := range keys {
		if v, ok := t.rs[key]; ok {
			out[i] = kv.ReadResult{Val: v.val, Exists: v.exists}
			continue
		}
		t.snapshot()
		v, exists, err := t.readOnlyRead(key)
		if err != nil {
			return err
		}
		out[i] = kv.ReadResult{Val: v, Exists: exists}
	}
	return nil
}

// snapshot adopts, before the transaction's first read leaves it, the latest
// locally-committed snapshot as the initial visibility bound (Algorithm 5
// lines 5–7) — including commits this node merely coordinated, whose client
// replies already happened.
func (t *Txn) snapshot() {
	if !t.firstRead {
		return
	}
	t.firstRead = false
	t.vc = t.nd.log.SnapshotVC()
	if t.readOnly {
		t.initVC = t.vc.Clone()
	}
}

// readOnlyRead reads key at every replica for a read-only transaction and
// folds the adopted reply into the transaction's bound, observed clock and
// exclusion sets.
func (t *Txn) readOnlyRead(key string) ([]byte, bool, error) {
	t.touched = append(t.touched, key)
	resp, from, err := t.readRemote(key)
	if err != nil {
		return nil, false, err
	}
	// Fold the returned bound into entries of nodes not read yet; the
	// entries of already-read nodes stay *frozen* at their first-contact
	// value. Raising a read node's entry afterwards would retroactively
	// loosen the visibility filter and admit versions inconsistent with
	// earlier reads (docs/CONSISTENCY.md §2).
	for w, x := range resp.VC {
		if !t.hasRead[w] && wire.NodeID(w) != from && x > t.vc[w] {
			t.vc[w] = x
		}
	}
	if !t.hasRead[from] {
		// First contact with the serving node: its entry freezes at the
		// *server's* visible bound, even when gossiped clocks had pushed our
		// knowledge higher — the read only covered versions up to what the
		// server actually exposed, and a higher frozen bound would let a
		// later read admit versions this one never saw. The initial snapshot
		// is the floor: the server has applied at least up to it
		// (WaitMostRecent), so everything beneath it was exposed, and
		// freezing below it would drop commits that externally preceded our
		// begin.
		t.vc[from] = resp.VC[from]
		if t.initVC[from] > t.vc[from] {
			t.vc[from] = t.initVC[from]
		}
	}
	t.hasRead[from] = true
	t.rs[key] = readVal{val: resp.Val, exists: resp.Exists, writer: resp.Writer}
	t.rsOrder = append(t.rsOrder, key)
	if !resp.PendingWriter.IsZero() {
		// Completion-delay obligation: we observed a provisional version, so
		// our completion must follow its writer's (handled at commit, after
		// the Removes, which keeps the wait graph acyclic).
		t.addPendingWriter(resp.PendingWriter)
	}
	if !resp.Writer.IsZero() || len(resp.VerDeps) > 0 {
		if t.seen == nil {
			t.seen = make(map[wire.TxnID]struct{})
		}
		if !resp.Writer.IsZero() {
			t.seen[resp.Writer] = struct{}{}
		}
		// The observed version's read-from closure is observed too: having
		// serialized after the version, the reader serialized after every
		// writer it (transitively) read from, so those writers must never be
		// excluded — even while still parked. (Past the version's own purge
		// nothing is sent: the closure is then stamped everywhere and
		// beneath the observed clock.)
		for _, d := range resp.VerDeps {
			t.seen[d] = struct{}{}
		}
	}
	if resp.VerVC != nil {
		if t.obs == nil {
			t.obs = vclock.New(t.nd.n)
		}
		t.obs.MaxInto(resp.VerVC)
	}
	for _, ex := range resp.Excluded {
		if _, already := t.seen[ex.Txn]; already {
			continue // a Seen writer is never re-excluded by replicas
		}
		if t.before == nil {
			t.before = make(map[wire.TxnID]vclock.VC)
		}
		// A record that carries a stamp replaces one that does not.
		if prev, dup := t.before[ex.Txn]; !dup || prev == nil {
			t.before[ex.Txn] = ex.VC
		}
	}
	return resp.Val, resp.Exists, nil
}

// keyRead is one key of an update transaction's read: where it is read
// first, and the result once one came.
type keyRead struct {
	res   wire.UpdateResult
	first wire.NodeID
	state keyReadState
}

type keyReadState uint8

const (
	keyOwn     keyReadState = iota // answered by the transaction's own write or read set
	keyPending                     // not read yet
	keyDone                        // res holds the result
)

// updateReads reads keys for an update transaction. Its reads return the
// latest version with no snapshot, so they do not depend on each other's
// order and go out as one fan-out. Keys the transaction wrote or read
// already are answered from its own sets. Every other key goes to one
// replica: this node when it replicates the key, served inline with no
// message, otherwise a transaction-spread choice. Each remote replica gets
// one UpdateRead carrying all of its keys, and every leg is sent before the
// local keys are served and before any reply is awaited. They insert no
// snapshot-queue entries, so none of the read-only redundancy arguments
// apply, and because read-only reads park their entries at every replica,
// any single replica's PropagatedSet is complete: one server visit collects
// the full anti-dependency set (§III-C). Staleness is caught by prepare
// validation.
//
// The first round gets one VoteTimeout-scale slice of the DrainTimeout
// budget, not all of it: against a dead or mid-restart replica a leg only
// ends at its deadline, and burning the whole budget on one dead leg would
// turn a single restart into a long read stall. The keys of a leg that
// failed or timed out, and this node's keys while it is closed or
// recovering, then race their remaining replicas with the rest of the
// budget. Results are adopted in key order, so the read set, and with it
// Prepare.ReadKeys and ReadFrom, come out exactly as from sequential Reads.
// A key that appears twice is read twice and adopted once.
func (t *Txn) updateReads(keys []string, out []kv.ReadResult) error {
	nd := t.nd
	var small [4]keyRead
	reads := small[:0]
	if len(keys) > len(small) {
		reads = make([]keyRead, 0, len(keys))
	}
	// legs[to] lists the pending keys read first at remote node to.
	var legBuf [8][]int
	legs := legBuf[:min(nd.n, len(legBuf))]
	if nd.n > len(legBuf) {
		legs = make([][]int, nd.n)
	}
	pending := false
	for i, key := range keys {
		kr := keyRead{state: keyOwn}
		if _, ok := t.ws[key]; !ok {
			if _, ok := t.rs[key]; !ok {
				kr.state, kr.first = keyPending, t.firstReplica(key)
				if kr.first != nd.id {
					legs[kr.first] = append(legs[kr.first], i)
				}
				pending = true
			}
		}
		reads = append(reads, kr)
	}
	var lastErr error
	if pending {
		t.snapshot()
		budget := nd.cfg.DrainTimeout
		end := time.Now().Add(budget)
		first := budget
		if nd.lookup.Degree() > 1 {
			first = min(budget, nd.cfg.VoteTimeout)
		}
		if lastErr = t.updateRound(keys, reads, legs, true, first); nd.lookup.Degree() > 1 {
			clear(legs)
			for i := range reads {
				if kr := &reads[i]; kr.state == keyPending {
					for _, to := range nd.lookup.Replicas(keys[i]) {
						if to != kr.first {
							legs[to] = append(legs[to], i)
						}
					}
				}
			}
			if slices.ContainsFunc(legs, func(leg []int) bool { return leg != nil }) {
				lastErr = t.updateRound(keys, reads, legs, false, time.Until(end))
			}
		}
	}
	for i, key := range keys {
		kr := &reads[i]
		if kr.state == keyPending {
			return fmt.Errorf("%w: read %q: %v", kv.ErrUnavailable, key, lastErr)
		}
		if _, dup := t.rs[key]; kr.state == keyDone && !dup {
			t.adoptUpdate(key, &kr.res)
		}
		if v, ok := t.ws[key]; ok {
			out[i] = kv.ReadResult{Val: v, Exists: true}
		} else {
			v := t.rs[key]
			out[i] = kv.ReadResult{Val: v.val, Exists: v.exists}
		}
	}
	return nil
}

// firstReplica is the replica an update read of key goes to first: this
// node when it replicates the key (zero network hops), otherwise a
// transaction-spread choice among the key's replicas.
func (t *Txn) firstReplica(key string) wire.NodeID {
	l := t.nd.lookup
	if l.IsReplica(key, t.nd.id) {
		return t.nd.id
	}
	return wire.NodeID((int(l.Primary(key)) + int(t.id.Seq%uint64(l.Degree()))) % l.N())
}

// updateRound reads the keys of legs in one fan-out: legs[to] lists the
// indices in keys of the keys remote node to is asked for, and each gets
// one UpdateRead, all sent before anything is awaited. With local set, the
// pending keys read first at this node are then served inline, unless it is
// closed or recovering (serve's gates). A replica whose values outgrow one
// reply answers a prefix of its leg, and the rest goes to it again in a
// further fan-out. The round ends when no key it sent is pending, when a
// reply failed to come, or when the wait exceeds within. A key sent to
// several replicas adopts the first answer. It returns why a key may still
// be pending.
func (t *Txn) updateRound(keys []string, reads []keyRead, legs [][]int, local bool, within time.Duration) error {
	nd := t.nd
	deadline := time.Now().Add(within)
	var tosBuf [8]wire.NodeID
	var msgBuf [8]wire.Msg
	var rest [][]int // the unanswered keys of short replies, by node
	for {
		tos, msgs := tosBuf[:0], msgBuf[:0]
		for to, leg := range legs {
			if leg == nil {
				continue
			}
			ks := make([]string, len(leg))
			for j, i := range leg {
				ks[j] = keys[i]
			}
			tos = append(tos, wire.NodeID(to))
			msgs = append(msgs, &wire.UpdateRead{Keys: ks})
		}
		var m *transport.Multi
		if len(tos) > 0 {
			m = nd.rpc.Multi(tos, msgs...)
		}
		if local && !nd.closed.Load() && !nd.recovering.Load() {
			for i := range reads {
				if kr := &reads[i]; kr.state == keyPending && kr.first == nd.id {
					kr.res, kr.state = nd.updateRead(nd.id, keys[i]), keyDone
				}
			}
		}
		local = false
		more := false
		var err error
		for m != nil && slices.ContainsFunc(tos, func(to wire.NodeID) bool { return anyPending(reads, legs[to]) }) {
			k, resp, nerr := m.Next(deadline)
			if nerr != nil {
				err = nerr
				break
			}
			leg := legs[tos[k]]
			rep, ok := resp.(*wire.UpdateReadReply)
			if !ok || len(rep.Results) == 0 || len(rep.Results) > len(leg) {
				err = fmt.Errorf("engine: malformed update read response %T", resp)
				legs[tos[k]] = nil
				continue
			}
			for r, i := range leg[:len(rep.Results)] {
				if reads[i].state == keyPending {
					reads[i].res, reads[i].state = rep.Results[r], keyDone
				}
			}
			if len(rep.Results) < len(leg) {
				if rest == nil {
					rest = make([][]int, len(legs))
				}
				rest[tos[k]], more = leg[len(rep.Results):], true
			}
			legs[tos[k]] = nil // answered: no longer awaited
		}
		if m != nil {
			m.Release()
		}
		if err != nil || !more {
			return err
		}
		if !time.Now().Before(deadline) {
			return transport.ErrTimeout
		}
		legs, rest = rest, legs
		clear(rest)
		for to, leg := range legs {
			if leg = slices.DeleteFunc(leg, func(i int) bool { return reads[i].state != keyPending }); len(leg) == 0 {
				leg = nil
			}
			legs[to] = leg
		}
	}
}

// anyPending reports whether a key of leg still awaits its result.
func anyPending(reads []keyRead, leg []int) bool {
	return slices.ContainsFunc(leg, func(i int) bool { return reads[i].state == keyPending })
}

// adoptUpdate folds one update read's result into the transaction. Every
// step is order-independent — a clock join, set unions and a minimum — so
// the fan-out's replies could be folded in any order; they are folded in
// key order only so the read set's order matches sequential Reads.
func (t *Txn) adoptUpdate(key string, r *wire.UpdateResult) {
	t.vc.MaxInto(r.VC)
	t.rs[key] = readVal{val: r.Val, exists: r.Exists, writer: r.Writer}
	t.rsOrder = append(t.rsOrder, key)
	for _, e := range r.Propagated {
		t.addPropagated(e)
	}
	if r.PendingWriter.IsZero() {
		return
	}
	t.addPendingWriter(r.PendingWriter)
	// A dependency is taken only on a writer still parked, with the set
	// stored on its version; a purged writer's version hands over nothing
	// (r.VC covers its freeze and all it waited out).
	if t.deps == nil {
		t.deps = make(map[wire.TxnID]struct{})
	}
	t.deps[r.PendingWriter] = struct{}{}
	for _, d := range r.VerDeps {
		t.deps[d] = struct{}{}
	}
}

// addPendingWriter records the completion-delay obligation of having
// observed a provisional version of w: this transaction completes only after
// w's external commit.
func (t *Txn) addPendingWriter(w wire.TxnID) {
	if t.pendingWriters == nil {
		t.pendingWriters = make(map[wire.TxnID]struct{})
	}
	t.pendingWriters[w] = struct{}{}
}

// addPropagated records one snapshot-queue entry returned by an update
// read (a transitive anti-dependency), deduplicated by transaction with
// the smallest insertion-snapshot retained.
func (t *Txn) addPropagated(e wire.SQEntry) {
	if t.propagated == nil {
		t.propagated = make(map[wire.TxnID]wire.SQEntry)
	}
	if prev, ok := t.propagated[e.Txn]; !ok || e.SID < prev.SID {
		t.propagated[e.Txn] = e
	}
}

// waitPendingWriters delays this transaction's completion until every
// parked writer whose version it observed has externally committed,
// preserving the external schedule.
func (t *Txn) waitPendingWriters() {
	for w := range t.pendingWriters {
		if w == t.id {
			continue
		}
		t.nd.waitExternal(w)
	}
}

// externalDone returns the channel closed at the external commit of w, an
// update transaction this node coordinates, or nil once that has happened
// (registration precedes any observable parked entry of w).
func (nd *Node) externalDone(w wire.TxnID) chan struct{} {
	st := nd.stripeOf(w)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.inflight[w]
}

// waitExternal blocks until transaction w (coordinated at w.Node)
// externally commits.
func (nd *Node) waitExternal(w wire.TxnID) {
	nd.stats.ExternalWaits.Add(1)
	if w.Node == nd.id {
		ch := nd.externalDone(w)
		if ch == nil {
			return
		}
		select {
		case <-ch:
		case <-time.After(nd.cfg.DrainTimeout):
			nd.stats.DrainTimeouts.Add(1)
		}
		return
	}
	resp, err := nd.rpc.CallWithin(nd.cfg.DrainTimeout, w.Node, &wire.WaitExternal{Txn: w})
	if err != nil {
		nd.stats.DrainTimeouts.Add(1)
		return
	}
	// What w's coordinator knew at w's external commit — w's freeze vector and
	// whatever w waited out — is now known here: the committer's Freeze.Know.
	if ack, ok := resp.(*wire.WaitExternalAck); ok && len(ack.VC) == nd.n {
		nd.log.RecordExternal(ack.VC)
	}
}

// readRemote contacts every replica of key for a read-only transaction and
// returns the fastest answer (§V: "SSS's read operations are handled by the
// fastest replying server").
func (t *Txn) readRemote(key string) (*wire.ReadReturn, wire.NodeID, error) {
	targets := t.nd.lookup.Replicas(key)
	// Clone the mutable transaction state: over the in-process transport
	// the message is shared by reference with handler goroutines, and the
	// client mutates vc/hasRead as replies arrive.
	hasRead := make([]bool, len(t.hasRead))
	copy(hasRead, t.hasRead)
	req := &wire.ReadRequest{
		Txn:     t.id,
		Key:     key,
		VC:      t.vc.Clone(),
		HasRead: hasRead,
	}
	for s := range t.seen {
		req.Seen = append(req.Seen, s)
	}
	for id, vc := range t.before {
		req.Before = append(req.Before, wire.ExWriter{Txn: id, VC: vc})
	}
	req.ObsVC = t.obs.Clone()
	t.nd.stats.ReadRequests.Add(1)
	t.nd.stats.ReadSeenEntries.Add(uint64(len(req.Seen)))
	budget := t.nd.cfg.DrainTimeout

	if len(targets) == 1 {
		// Single replica: no fan-out race to win, call synchronously.
		resp, err := t.nd.rpc.CallWithin(budget, targets[0], req)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: read %q: %v", kv.ErrUnavailable, key, err)
		}
		rr, ok := resp.(*wire.ReadReturn)
		if !ok {
			return nil, 0, fmt.Errorf("engine: unexpected read response %T", resp)
		}
		return rr, targets[0], nil
	}
	// Read-only reads keep the full fan-out: besides the fastest-reply
	// latency and the informed merge, every contacted replica inserts the
	// reader's R entry, and that redundancy is load-bearing — a reader that
	// excludes a freezing writer at one replica gates the writer's drain
	// acks at *every* replica it visited, which is what keeps blanket
	// exclusions temporally separated from the freeze issue
	// (docs/CONSISTENCY.md §5). A single-replica read-only read measurably
	// widens the residual freeze-skew window.
	return t.readMerge(time.Now().Add(budget), key, req, targets)
}

// readAnswer is one replica's reply in a fan-out read.
type readAnswer struct {
	resp *wire.ReadReturn
	from wire.NodeID
}

// mergeWait bounds how long a fan-out read waits for sibling replica
// replies after the fastest reply carried exclusions (the informed merge,
// docs/CONSISTENCY.md §5). The siblings are already in flight, so the bound
// only matters when a replica is down or badly delayed: on expiry the best
// reply received so far is adopted, preserving the read fast path instead of
// stalling until the read's DrainTimeout deadline.
const mergeWait = 5 * time.Millisecond

// readMerge runs a fan-out read-only read: every replica is consulted,
// the fastest exclusion-free reply is adopted immediately, and when
// replies carry exclusions the informed merge picks the winner. A reply
// that excluded a writer may have raced that writer's freeze broadcast
// (the replica had not yet learned the coordinator-assigned stamp another
// replica already recorded); adopting it over a reply that *served* that
// writer's version would pick the less-informed verdict — the last
// replica-dependent input to the snapshot decision. So any reply whose
// excluded writer another reply observed is dropped: inclusion of a
// queued writer is only possible once its freeze is announced, so the
// including replica is strictly better informed. The straggler wait is
// bounded by mergeWait: only a down or badly delayed replica can make the
// bound matter, and then the best reply received so far is adopted rather
// than stalling the read.
func (t *Txn) readMerge(deadline time.Time, key string, req *wire.ReadRequest, targets []wire.NodeID) (*wire.ReadReturn, wire.NodeID, error) {
	// Returning early releases the losing legs at once: nothing of this read
	// stays registered with the RPC layer.
	m := t.nd.rpc.Multi(targets, req)
	defer m.Release()

	var lastErr error
	var withEx []readAnswer
	for {
		leg, resp, err := m.Next(deadline)
		if err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		rr, ok := resp.(*wire.ReadReturn)
		if !ok {
			lastErr = fmt.Errorf("engine: unexpected read response %T", resp)
			continue
		}
		if len(rr.Excluded) == 0 {
			return rr, targets[leg], nil
		}
		withEx = append(withEx, readAnswer{resp: rr, from: targets[leg]})
		if len(withEx) == 1 {
			if merge := time.Now().Add(mergeWait); merge.Before(deadline) {
				deadline = merge
			}
		}
	}
	for _, a := range withEx {
		dominated := false
		for _, b := range withEx {
			if b.resp.Exists && !b.resp.Writer.IsZero() && replyExcludes(a.resp, b.resp.Writer) {
				dominated = true
				break
			}
		}
		if !dominated {
			return a.resp, a.from, nil
		}
	}
	if len(withEx) > 0 {
		// Mutual domination (replicas ordered two writers oppositely for
		// this very cut): fall back to arrival order.
		return withEx[0].resp, withEx[0].from, nil
	}
	return nil, 0, fmt.Errorf("%w: read %q: %v", kv.ErrUnavailable, key, lastErr)
}

// replyExcludes reports whether reply r excluded writer w.
func replyExcludes(r *wire.ReadReturn, w wire.TxnID) bool {
	for _, ex := range r.Excluded {
		if ex.Txn == w {
			return true
		}
	}
	return false
}

// Write implements kv.Txn: writes are buffered (lazy update, §III-B) and
// become visible at internal commit.
func (t *Txn) Write(key string, val []byte) error {
	if t.done {
		return kv.ErrTxnDone
	}
	if t.readOnly {
		return kv.ErrReadOnlyWrite
	}
	if t.ws == nil {
		t.ws = make(map[string][]byte)
	}
	if _, dup := t.ws[key]; !dup {
		t.wsOrder = append(t.wsOrder, key)
	}
	t.ws[key] = val
	return nil
}

// Abort implements kv.Txn. Read-only transactions still send Remove: their
// snapshot-queue entries were installed at read time and must be cleaned
// regardless of outcome.
func (t *Txn) Abort() error {
	if t.done {
		return nil
	}
	t.done = true
	if len(t.touched) > 0 && t.readOnly {
		t.sendRemoves()
	}
	return nil
}

// Commit implements kv.Txn (Algorithm 1).
func (t *Txn) Commit() error {
	if t.done {
		return kv.ErrTxnDone
	}
	t.done = true

	if len(t.ws) == 0 {
		// Read-only (declared or effectively): reply to the client
		// immediately, then notify the read replicas (Algorithm 1 lines
		// 2–8). The Remove notifications are posted before returning —
		// they are asynchronous one-way sends, so the client-visible
		// completion is not delayed.
		if len(t.touched) > 0 {
			t.sendRemoves()
		}
		// Removes go out first (our queue entries must never gate the
		// writers we are about to wait on), then the completion delay for
		// provisional versions we observed.
		t.waitPendingWriters()
		t.nd.stats.ReadOnlyRuns.Add(1)
		t.nd.stats.ReadOnlyLatency.Observe(time.Since(t.begin))
		return nil
	}
	return t.commitUpdate()
}

// sendRemoves notifies every node replicating a read key that this
// read-only transaction completed.
func (t *Txn) sendRemoves() {
	for _, node := range t.nd.lookup.ReplicaSet(t.touched) {
		if node == t.nd.id {
			t.nd.handleRemove(&wire.Remove{Txn: t.id})
			continue
		}
		_ = t.nd.rpc.Notify(node, &wire.Remove{Txn: t.id})
	}
	t.nd.stats.RemovesSent.Add(1)
}

// piggybackSkewBudget bounds how stale a piggybacked drain barrier may be
// when the freeze is issued. The drain stage normally rides the decide round
// (Decide.Drain), saving an acked round trip per commit; but the
// temporal-separation argument of docs/CONSISTENCY.md §5 wants the drain
// barrier within ~one message delay of the freeze arrival. When any write
// replica's pre-commit drain blocked or had readers parked on the written
// keys, or the earliest decide ack is older than this budget by freeze time,
// the coordinator re-tightens with a standalone drain round before freezing.
// 4ms is well above an uncontended decide round; genuinely contended commits
// are caught by the replica-side reader signals regardless of elapsed time.
const piggybackSkewBudget = 4 * time.Millisecond

// commitUpdate runs the coordinator side of 2PC (Algorithm 1) followed by
// the external-commit wait.
func (t *Txn) commitUpdate() error {
	nd := t.nd
	if t.vc == nil {
		// Blind writer that never read: bound is the local snapshot.
		t.vc = nd.log.SnapshotVC()
	}
	sc := nd.commitScratch.Get().(*commitScratch)
	defer nd.commitScratch.Put(sc)

	// Message payload slices are freshly allocated, never pooled: over the
	// in-process transport they are shared by reference with handler
	// goroutines that can outlive a timed-out broadcast.
	writes := make([]wire.KV, 0, len(t.wsOrder))
	for _, k := range t.wsOrder {
		writes = append(writes, wire.KV{Key: k, Val: t.ws[k]})
	}
	participants := nd.lookup.ReplicaSet(t.rsOrder, t.wsOrder)
	if !containsNode(participants, nd.id) {
		participants = append(participants, nd.id)
	}
	var readFrom []wire.TxnID
	if len(t.rsOrder) > 0 {
		readFrom = make([]wire.TxnID, len(t.rsOrder))
		for i, k := range t.rsOrder {
			readFrom[i] = t.rs[k].writer
		}
	}
	// A dependency this node coordinated to external commit is dropped: its
	// freeze vector is in our external-knowledge clock, which our own vote
	// folds into the commit clock, so our versions carry its stamps already.
	var deps []wire.TxnID
	for d := range t.deps {
		if d.Node != nd.id || nd.externalDone(d) != nil {
			deps = append(deps, d)
		}
	}
	prep := &wire.Prepare{
		Txn: t.id, VC: t.vc, ReadKeys: t.rsOrder, Writes: writes,
		ReadFrom: readFrom, Deps: deps,
	}
	nd.stats.PrepareDeps.Add(uint64(len(deps)))

	// --- prepare phase ---
	voteStart := time.Now()
	votes, _ := nd.rpc.Gather(nd.cfg.VoteTimeout, participants, prep, sc.out)
	voteDur := time.Since(voteStart)

	commitVC := t.vc.Clone()
	outcome := true
	for _, v := range votes {
		vote, ok := v.(*wire.Vote)
		if !ok || !vote.OK {
			outcome = false
			break
		}
		commitVC.MaxInto(vote.VC)
	}

	if !outcome {
		t.finishAbort(participants, sc)
		return kv.ErrAborted
	}

	// Algorithm 1 lines 21–24: level the written replicas' entries.
	writeNodes := nd.lookup.ReplicaSet(t.wsOrder)
	var xactVN uint64
	for _, w := range writeNodes {
		if commitVC[w] > xactVN {
			xactVN = commitVC[w]
		}
	}
	for _, w := range writeNodes {
		commitVC[w] = xactVN
	}
	if nd.wal != nil {
		// The presumed-abort coordinator obligation: the commit decision is
		// durable before any decide leaves this node, so an in-doubt
		// participant asking after a crash gets the same verdict the
		// survivors acted on. A failed sync downgrades to abort — nothing
		// irreversible has been sent yet.
		nd.wal.Append(&wal.Record{Type: wal.RecCoordCommit, Txn: t.id, Commit: true, VC: commitVC})
		syncStart := time.Now()
		err := nd.wal.Sync()
		nd.stats.Stage.WalSync.Observe(time.Since(syncStart))
		if err != nil {
			t.finishAbort(participants, sc)
			return kv.ErrAborted
		}
		nd.recordCoordDecision(t.id, commitVC)
	}
	decided := time.Now()

	// Record where each propagated read-only transaction's entries will
	// land, so a forwarded Remove can chase them (§III-C), skipping
	// already-removed transactions.
	var prop []wire.SQEntry
	for ro, e := range t.propagated {
		st := nd.stripeOf(ro)
		st.mu.Lock()
		if st.tombstonedLocked(ro) {
			st.mu.Unlock()
			continue
		}
		set := st.propTargets[ro]
		if set == nil {
			set = make(map[wire.NodeID]struct{})
			st.propTargets[ro] = set
		}
		for _, w := range writeNodes {
			set[w] = struct{}{}
		}
		st.mu.Unlock()
		prop = append(prop, e)
	}

	// Register for WaitExternal subscribers before any replica can expose
	// our parked W entries.
	extDone := make(chan struct{})
	selfStripe := nd.stripeOf(t.id)
	selfStripe.mu.Lock()
	selfStripe.inflight[t.id] = extDone
	selfStripe.mu.Unlock()

	// --- decide phase; the drain stage rides the same round (Decide.Drain)
	// so its acks arrive after each write replica's pre-commit drain and
	// carry that replica's drain-stage frontier: the vote → drain → freeze
	// chain costs two acked round trips instead of three.
	decide := &wire.Decide{Txn: t.id, VC: commitVC, Commit: true, Propagated: prop, Drain: true}
	acks, firstAck := nd.rpc.Gather(nd.cfg.DrainTimeout+time.Second, participants, decide, sc.out)

	// External commit, staged cleanup. Join the drain-stage frontiers the
	// decide acks report with the commit clock into the freeze vector —
	// computed once, here, after every write replica's drain stage
	// completed (the barrier the standalone drain round used to provide),
	// so every replica stamps the same, replica-independent
	// external-commit stamp.
	freezeVC := commitVC.Clone()
	retighten := false
	for i, a := range acks {
		if a == nil {
			// Unknown drain state at that participant (a lost or late
			// ack): the standalone drain round below re-asks it, counted
			// as that replica's CommitRounds.DrainRounds; a drain there
			// that hits its cap counts its own DrainTimeouts.
			retighten = true
			continue
		}
		ack, ok := a.(*wire.DecideAck)
		if !ok || ack.Ext == 0 {
			continue // read-only participant, or a duplicate-decide ack
		}
		if ack.Gated {
			retighten = true // its queue was contended during the drain
		}
		if w := participants[i]; containsNode(writeNodes, w) && ack.Ext > freezeVC[w] {
			freezeVC[w] = ack.Ext
		}
	}
	// Decide/drain leg so far: broadcast + piggybacked drain acks. A
	// standalone fallback round below adds its own elapsed time; the
	// pending-writer wait in between is deliberately excluded (it is
	// snapshot queuing, already visible as PreCommitWait).
	decideDur := time.Since(decided)

	// Our completion must follow that of any parked writer we read from. What
	// the waits taught this node travels with the freeze: whoever reads our
	// version after our purge inherits no dependency set, so our write
	// replicas' clocks must cover the stamps of what we read provisionally.
	t.waitPendingWriters()
	var know vclock.VC
	if len(t.pendingWriters) > 0 {
		know = nd.log.ExternalVC()
	}

	// Adaptive re-tightening: the piggybacked drain barrier is trusted
	// only when it is provably fresh — no replica's drain blocked, and the
	// earliest piggybacked ack (the participant with the widest gap) is
	// still within the skew budget of this freeze issue; pending-writer
	// waits and decide-round stragglers are caught by the same elapsed
	// check. Otherwise readers had time to slip blanket exclusions in
	// behind the piggybacked acks, so the standalone drain round
	// re-establishes the barrier (and re-samples the frontiers) within one
	// message delay of the freeze, exactly as before the pipelining — the
	// temporal-separation argument of docs/CONSISTENCY.md §5 stays intact
	// on the contended path while the uncontended path keeps the two-round
	// commit.
	stale := firstAck.IsZero() || time.Since(firstAck) > piggybackSkewBudget
	if retighten || stale {
		drainStart := time.Now()
		drainAcks, _ := nd.rpc.Gather(nd.cfg.DrainTimeout+time.Second, writeNodes, &wire.ExtCommit{Txn: t.id}, sc.out)
		for i, a := range drainAcks {
			if ack, ok := a.(*wire.DecideAck); ok && ack.Ext > freezeVC[writeNodes[i]] {
				freezeVC[writeNodes[i]] = ack.Ext
			}
		}
		decideDur += time.Since(drainStart)
	}

	// Freeze the parked W entries everywhere (acked, pre-client-reply) so
	// no transaction starting after our reply can exclude us: one fan-out
	// to the write replicas, collected under the freeze-ack discipline.
	freezeStart := time.Now()
	var coordSeq uint64
	if nd.wal != nil {
		// Coordinator freeze record (no keys): the only freeze record the
		// client reply waits for. It holds the freeze vector and Know (VC2),
		// everything a write replica's own, unsynced freeze record carries
		// beyond the commit clock, so an in-doubt or frozenless replica
		// recovering later re-stamps with the same replica-independent
		// values and regains the same external knowledge; replay restores
		// this node's. The vector is final here, so the record is appended
		// before the freeze round and its durability wait overlaps that
		// round. Ledger first, so a checkpoint cutting between the two
		// lines re-logs the record rather than reclaiming it.
		nd.recordCoordFreeze(t.id, freezeVC, know)
		coordSeq = nd.wal.Append(&wal.Record{Type: wal.RecFreeze, Txn: t.id, VC: freezeVC, VC2: know})
	}
	msgs := newExtMsgs(wire.Freeze{Txn: t.id, VC: freezeVC, Know: know})
	fan := nd.rpc.Multi(writeNodes, &msgs.freeze)
	var freezeSyncErr error
	if nd.wal != nil {
		// A sync failure fails the client reply below — the transaction is
		// committed (the decision was durable before any decide left), but
		// this node may not acknowledge an external commit whose freeze
		// record it could not persist. The in-memory bookkeeping still runs:
		// the vector is the true one and live peers may depend on it.
		syncStart := time.Now()
		freezeSyncErr = nd.wal.SyncTo(coordSeq)
		nd.stats.Stage.WalSync.Observe(time.Since(syncStart))
	}
	missing := nd.awaitFreezeAcks(fan, &msgs.freeze, writeNodes, freezeStart.Add(nd.cfg.VoteTimeout),
		freezeStart.Add(nd.cfg.FreezeAckBudget), sc.acked)
	frozen := time.Now()
	freezeDur := frozen.Sub(freezeStart)
	// The external-commit point: transactions beginning on this node after
	// the client reply below must serialize after us, so our commit clock —
	// raised to each write replica's external-commit stamp, i.e. the
	// freeze vector — becomes part of the node's begin snapshot, even when
	// this node replicates none of the written keys and thus logged no
	// NLog entry. Covering the stamps ensures such transactions pass the
	// stamp check on our versions.
	nd.log.RecordExternal(freezeVC)
	selfStripe.mu.Lock()
	delete(selfStripe.inflight, t.id)
	selfStripe.mu.Unlock()
	close(extDone)
	// Purge: one-way, and each write replica gets it only after its freeze
	// ack.
	nd.purgeFrozen(msgs, writeNodes, missing, frozen)

	if freezeSyncErr != nil {
		// Deliberately not kv.ErrAborted: the writes are committed and
		// visible, the client just may not treat this reply as a durable
		// external-commit acknowledgement (standard commit ambiguity on
		// error). All completion bookkeeping above still ran so no waiter
		// or parked entry leaks.
		return fmt.Errorf("engine: txn %v committed but freeze record not durable: %w", t.id, freezeSyncErr)
	}

	now := time.Now()
	nd.stats.Commits.Add(1)
	// Stage legs are observed here, at the same instant as Commits, so their
	// counts reconcile with the commit counter (asserted by the e2e scrape).
	nd.stats.Stage.Vote.Observe(voteDur)
	nd.stats.Stage.Decide.Observe(decideDur)
	nd.stats.Stage.Freeze.Observe(freezeDur)
	nd.stats.CommitLatency.Observe(now.Sub(t.begin))
	nd.stats.InternalLatency.Observe(decided.Sub(t.begin))
	wait := now.Sub(decided)
	nd.stats.PreCommitWait.Observe(wait)
	if wait > 2*nd.cfg.LockTimeout {
		nd.stats.PreCommitHold.Add(1)
	}
	return nil
}

func (t *Txn) finishAbort(participants []wire.NodeID, sc *commitScratch) {
	nd := t.nd
	nd.rpc.Gather(nd.cfg.VoteTimeout, participants, &wire.Decide{Txn: t.id, Commit: false}, sc.out)
	nd.stats.Aborts.Add(1)
}

// commitScratch is the pooled coordinator-side scratch of one update
// commit: the reply array every Gather of the commit reuses (valid only
// until the next one) and the freeze round's per-leg ack flags. Message
// payloads are never pooled — see commitUpdate.
type commitScratch struct {
	out   []wire.Msg
	acked []bool
}

// newCommitScratch sizes the scratch for a cluster of n nodes: no
// participant set or write-replica set can exceed n.
func newCommitScratch(n int) *commitScratch {
	return &commitScratch{
		out:   make([]wire.Msg, 0, n),
		acked: make([]bool, n),
	}
}

func containsNode(nodes []wire.NodeID, id wire.NodeID) bool {
	for _, n := range nodes {
		if n == id {
			return true
		}
	}
	return false
}
