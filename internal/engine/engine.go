// Package engine implements the SSS node: the paper's distributed
// concurrency control (Algorithms 1–6) providing external consistency for
// all transactions and abort-freedom for read-only transactions, using
// vector clocks plus snapshot-queuing and no global synchronization source.
//
// One Node is one site. Clients are co-located with nodes (§II): a client
// obtains a transaction handle from its local node via Begin and drives it
// with Read/Write/Commit. Inter-node traffic flows through a
// transport.Network, so the same engine runs over the simulated in-process
// network (benchmarks) or TCP (cmd/sss-server).
//
// Protocol invariants the engine maintains (argued in docs/CONSISTENCY.md):
//
//   - A write replica enqueues a transaction's W entry strictly before its
//     internal commit applies the version, so a reader can never observe a
//     provisional version without finding its writer parked.
//   - A read-only read inserts its R entry before walking the version
//     chain, re-inserting lower if the walk skips a writer beneath its
//     insertion-snapshot: every writer a reader excludes drains behind that
//     reader's entry, so the writer's client reply follows the reader's
//     completion.
//   - External commit is staged drain → freeze → purge. The freeze ships
//     the coordinator-assigned freeze vector (commit clock ∨ drain-stage
//     frontiers, computed once), which every replica records as the
//     writer's external-commit stamp at freeze arrival — reader verdicts
//     key off that replica-independent stamp, never off local re-drain
//     (flag) timing.
//   - A transaction that observed a provisional version completes only
//     after that writer's external commit; Removes precede completion
//     waits, keeping the wait graph acyclic.
//   - A read-only transaction's per-node visibility bound never rises for
//     a node that has already served it, and never freezes beneath its
//     begin snapshot.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/commitlog"
	"github.com/sss-paper/sss/internal/lockmgr"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/mvstore"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wal"
	"github.com/sss-paper/sss/internal/wire"
)

// Config tunes a node. The zero value selects defaults suitable for the
// simulated 20µs network.
type Config struct {
	// LockTimeout bounds 2PC lock acquisition; expiry aborts the
	// transaction (the paper's deadlock prevention, §III-E; 1ms on their
	// testbed).
	LockTimeout time.Duration
	// VoteTimeout bounds the coordinator's wait for each 2PC vote
	// (Algorithm 1 line 13); expiry aborts.
	VoteTimeout time.Duration
	// DrainTimeout caps the pre-commit snapshot-queue wait. In a correct
	// run the wait always terminates (readers eventually send Remove);
	// the cap turns a protocol bug or lost message into a counted,
	// non-wedging event.
	DrainTimeout time.Duration
	// FreezeAckBudget bounds the freeze-ack discipline: after a freeze
	// delivery fails, the coordinator keeps withholding the committer's
	// client ack — resending the freeze — until the budget elapses, and
	// only then degrades to the liveness-first release (reply released,
	// redelivery continued in the background, FreezeAckBudgetExpired
	// counted). A replica outage shorter than the budget cannot let a
	// client ack outrun that replica's stamp. 0 selects the default of
	// 2×VoteTimeout — one full retry cycle beyond the failed call.
	FreezeAckBudget time.Duration
	// MaxVersions bounds per-key version chains (0 = default).
	MaxVersions int
	// WAL, when non-nil, attaches a write-ahead log: commit-relevant records
	// are appended at the 2PC/freeze sync points and the node boots in a
	// recovering state until Recover is called (every message but the
	// recovery protocol's is dropped until then). nil disables durability.
	WAL *wal.Log
	// CheckpointInterval starts a background checkpoint loop bounding WAL
	// replay (0 = no periodic checkpoints; Checkpoint can still be called
	// explicitly). Only meaningful with WAL set.
	CheckpointInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.LockTimeout <= 0 {
		c.LockTimeout = 2 * time.Millisecond
	}
	if c.VoteTimeout <= 0 {
		c.VoteTimeout = 500 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.FreezeAckBudget <= 0 {
		c.FreezeAckBudget = 2 * c.VoteTimeout
	}
	return c
}

// Node is one SSS site.
type Node struct {
	id     wire.NodeID
	idx    int
	n      int
	cfg    Config
	lookup cluster.Lookup
	rpc    *transport.RPC
	log    *commitlog.Log
	store  *mvstore.Store
	locks  *lockmgr.Table
	stats  *metrics.Engine

	// lastSeq is the sequence number of the last transaction this node
	// began; the next one takes lastSeq+1.
	lastSeq atomic.Uint64
	// extFrontier is the largest external-commit stamp flagged at this
	// node. First-contact read bounds are raised to it so that a fresh
	// reader always covers every transaction already externally committed
	// here, even when the reader's coordinator has not heard of them.
	extFrontier atomic.Uint64

	// wal is the optional write-ahead log (Config.WAL); dstats its
	// durability counters. recovering gates serve: a durable node drops
	// inbound traffic between New and the end of Recover, so no handler can
	// touch half-restored state.
	wal        *wal.Log
	dstats     *metrics.Durability
	recovering atomic.Bool
	// statusReady flips once Recover's WAL scan has fully populated
	// coordStatus: from that point the node answers peers' in-doubt
	// TxnStatus queries even while its own apply phases are still running,
	// so concurrently restarting nodes never presume-abort a transaction
	// this node durably committed just because its replay was slow.
	statusReady atomic.Bool

	// coordStatus answers peers' in-doubt TxnStatus queries (presumed-abort
	// 2PC): transactions this node coordinated to a commit decision, with
	// their commit and (once known) freeze vectors. Bounded FIFO; an evicted
	// entry reads as presumed abort. Maintained only when a WAL is attached.
	coordMu     sync.Mutex
	coordStatus map[wire.TxnID]coordRecord
	coordFIFO   []wire.TxnID

	// Per-transaction engine state is striped by TxnID so prepare, decide,
	// propagate and remove paths for distinct transactions never contend on
	// one mutex (the seed serialized all 26 handler lock sites on a single
	// nd.mu). Every map in a stripe is keyed by the transaction the handler
	// is operating on, so each handler touches exactly one stripe at a time
	// and no two stripes are ever held together.
	stripes [stripeCount]stripe

	// readScratch pools the per-read scratch state of handleRead (the
	// seen/before/excluded sets), so the read-only hot path stops
	// allocating them per message.
	readScratch sync.Pool
	// commitScratch pools the coordinator-side per-commit scratch of
	// commitUpdate (broadcast result arrays, freeze-ack flags), so the
	// update hot path stops allocating them per txn.
	commitScratch sync.Pool

	// closed is set once Close begins; stop is closed with it. bg counts
	// the goroutines Close waits for (spawn), and bgMu orders their start
	// against closed.
	closed atomic.Bool
	stop   chan struct{}
	bg     sync.WaitGroup
	bgMu   sync.Mutex
}

// stripeBits sets the number of state stripes (a power of two).
const (
	stripeBits  = 6
	stripeCount = 1 << stripeBits
)

// stripe holds the per-transaction state of one TxnID shard.
type stripe struct {
	mu sync.Mutex
	// pending tracks transactions prepared at this participant, keyed by
	// transaction ID, between Prepare and the end of their decide path.
	pending map[wire.TxnID]*participantTxn
	// fwd maps a read-only transaction to the coordinators that received
	// its snapshot-queue entries in a PropagatedSet served by this node;
	// on Remove the removal is forwarded to them (§III-C).
	fwd map[wire.TxnID]map[wire.NodeID]struct{}
	// propTargets maps a read-only transaction to the write-replica nodes
	// where this node (as update coordinator) propagated its entries.
	propTargets map[wire.TxnID]map[wire.NodeID]struct{}
	// tombs tombstones the transactions whose Remove (read-only) or
	// Decide (update) this stripe has processed, so a late read cannot
	// resurrect a finished reader's entries and a redelivered Prepare or
	// Decide is dropped: one seqWindow per coordinator epoch, at most
	// tombEpochs per coordinator. ntombs counts the set bits.
	tombs  []seqWindow
	ntombs int
	// parked maps an internally-committed transaction to the local written
	// keys whose snapshot-queues still hold its W entry (plus its local
	// insertion-snapshot); cleared by the purge (purgeParked).
	parked map[wire.TxnID]parkedState
	// inflight maps a locally-coordinated update transaction to a channel
	// closed at its external commit; WaitExternal subscribers block on it.
	inflight map[wire.TxnID]chan struct{}
	// walTxns (WAL mode only, nil otherwise) tracks write-replica
	// transactions from prepare until purge, so a checkpoint can re-log the
	// records of anything still in flight into the fresh segment before the
	// old segments are reclaimed.
	walTxns map[wire.TxnID]*walTxn
}

// stripeOf returns the stripe owning txn's state. A coordinator's
// consecutive transactions land in consecutive stripes, so within one
// stripe Seq>>stripeBits is dense and unique per coordinator: the slot of
// its tombstone bit.
func (nd *Node) stripeOf(txn wire.TxnID) *stripe {
	return &nd.stripes[(txn.Seq+uint64(uint32(txn.Node)))&(stripeCount-1)]
}

// parkedState tracks a transaction between internal and external commit at
// a write replica.
type parkedState struct {
	keys []string
	sid  uint64
	// vc is the transaction's commit clock, folded into the node's
	// externally-committed knowledge clock at the freeze.
	vc vclock.VC
}

// participantTxn is the participant-side state of a prepared transaction.
type participantTxn struct {
	writes    []wire.KV
	readKeys  []string
	localWKey []string      // written keys replicated here
	deps      []wire.TxnID  // the transaction's pruned transitive dep set
	applied   chan struct{} // closed at internal commit
}

// New creates an SSS node with the given ID on net. lookup defines the
// replication scheme; n is the cluster size (vector-clock width).
func New(net transport.Network, id wire.NodeID, n int, lookup cluster.Lookup, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	nd := &Node{
		id:     id,
		idx:    int(id),
		n:      n,
		cfg:    cfg,
		lookup: lookup,
		log:    commitlog.New(int(id), n, commitlog.DefaultCapacity),
		store:  mvstore.New(n, cfg.MaxVersions),
		locks:  lockmgr.New(),
		stats:  &metrics.Engine{},
		stop:   make(chan struct{}),
	}
	nd.log.SetContention(&nd.stats.Contention)
	nd.store.SetContention(&nd.stats.Contention)
	if cfg.WAL != nil {
		nd.wal = cfg.WAL
		nd.dstats = cfg.WAL.Stats()
		nd.coordStatus = make(map[wire.TxnID]coordRecord)
		// A durable node boots recovering: handlers must not run against
		// half-restored state, so serve drops traffic until Recover (which
		// is a no-op replay on a fresh data dir) flips the gate.
		nd.recovering.Store(true)
	} else {
		nd.dstats = &metrics.Durability{}
	}
	for i := range nd.stripes {
		st := &nd.stripes[i]
		st.pending = make(map[wire.TxnID]*participantTxn)
		st.fwd = make(map[wire.TxnID]map[wire.NodeID]struct{})
		st.propTargets = make(map[wire.TxnID]map[wire.NodeID]struct{})
		st.parked = make(map[wire.TxnID]parkedState)
		st.inflight = make(map[wire.TxnID]chan struct{})
		if cfg.WAL != nil {
			st.walTxns = make(map[wire.TxnID]*walTxn)
		}
	}
	nd.readScratch.New = func() any { return newROScratch() }
	nd.commitScratch.New = func() any { return newCommitScratch(n) }
	rpc, err := transport.NewRPC(net, id, nd.serve)
	if err != nil {
		return nil, fmt.Errorf("engine: node %d: %w", id, err)
	}
	nd.rpc = rpc
	if cfg.WAL != nil && cfg.CheckpointInterval > 0 {
		nd.spawn(nd.checkpointLoop)
	}
	return nd, nil
}

// ID returns the node's identifier.
func (nd *Node) ID() wire.NodeID { return nd.id }

// Stats exposes the node's metrics.
func (nd *Node) Stats() *metrics.Engine { return nd.stats }

// Durability exposes the node's durability counters (shared with the
// attached WAL; a private zero-valued sink when durability is off).
func (nd *Node) Durability() *metrics.Durability { return nd.dstats }

// Retained gathers the node's retained-state gauges: NLog entries,
// tombstones and pending RPC calls. It takes the log, every stripe lock and
// the RPC table's lock once, so call it at scrape rate, not per
// transaction.
func (nd *Node) Retained() *metrics.Retained {
	r := &metrics.Retained{}
	r.CommitlogEntries.Store(int64(nd.log.Len()))
	r.Tombstones.Store(int64(nd.tombstoneCount()))
	r.RPCPending.Store(int64(nd.rpc.Pending()))
	return r
}

// Preload installs an initial value for key if this node replicates it.
// Call on every node with the full dataset before starting clients.
func (nd *Node) Preload(key string, val []byte) {
	if nd.lookup.IsReplica(key, nd.id) {
		nd.store.Preload(key, val)
	}
}

// VersionWriters returns the writers of key's retained versions on this
// node, oldest first. Used by the external-consistency checker.
func (nd *Node) VersionWriters(key string) []wire.TxnID {
	return nd.store.VersionWriters(key)
}

// Close detaches the node from the network: it stops the spawned
// goroutines, closes the RPC endpoint, which fails whatever a coordinator
// still awaits, and returns once those goroutines have exited.
func (nd *Node) Close() error {
	nd.bgMu.Lock()
	if !nd.closed.Swap(true) {
		close(nd.stop)
	}
	nd.bgMu.Unlock()
	err := nd.rpc.Close()
	nd.bg.Wait()
	return err
}

// spawn runs f on a goroutine that Close waits for; f must return soon
// after stop closes. Once Close has begun it runs nothing.
func (nd *Node) spawn(f func()) {
	nd.bgMu.Lock()
	defer nd.bgMu.Unlock()
	if nd.closed.Load() {
		return
	}
	nd.bg.Add(1)
	go func() {
		defer nd.bg.Done()
		f()
	}()
}

// serve dispatches inbound protocol messages. It runs on a transport pool
// worker — or a spill goroutine when the pool is saturated — so blocking
// handlers (handleDecide's drain wait above all) are safe and can never
// stall dispatch of the messages that would unblock them.
func (nd *Node) serve(from wire.NodeID, rid uint64, msg wire.Msg) {
	if nd.closed.Load() {
		return
	}
	if nd.recovering.Load() {
		// Mid-recovery state is not servable, with one exception: once the
		// WAL scan has populated coordStatus (statusReady), TxnStatus is
		// answered so a concurrently restarting peer's in-doubt resolution
		// is not starved into presumed abort by this node's apply phases.
		// Before that point even TxnStatus is dropped — a premature
		// "unknown → abort" answer could contradict a commit record about
		// to be scanned. Dropped prepares become coordinator vote timeouts,
		// i.e. plain aborts; in-doubt peers retry.
		// ClockSync gets the same treatment: a partial external clock is a
		// sound (monotone) lower bound, and answering keeps a concurrently
		// restarting peer's catch-up round from burning its retry budget.
		switch m := msg.(type) {
		case *wire.TxnStatus:
			if nd.statusReady.Load() {
				nd.handleTxnStatus(from, rid, m)
			}
		case *wire.ClockSync:
			if nd.statusReady.Load() {
				nd.handleClockSync(from, rid, m)
			}
		}
		return
	}
	switch m := msg.(type) {
	case *wire.ReadRequest:
		nd.handleRead(from, rid, m)
	case *wire.UpdateRead:
		nd.handleUpdateRead(from, rid, m)
	case *wire.Prepare:
		nd.handlePrepare(from, rid, m)
	case *wire.Decide:
		nd.handleDecide(from, rid, m)
	case *wire.Remove:
		nd.handleRemove(m)
	case *wire.FwdRemove:
		nd.handleFwdRemove(m)
	case *wire.ExtCommit:
		nd.handleDrainRound(from, rid, m)
	case *wire.Freeze:
		nd.handleFreeze(from, rid, m)
	case *wire.Purge:
		nd.purgeParked(m.Txn)
		nd.stats.CommitRounds.PurgeBatchTxns.Add(1)
	case *wire.WaitExternal:
		nd.handleWaitExternal(from, rid, m)
	case *wire.TxnStatus:
		nd.handleTxnStatus(from, rid, m)
	case *wire.ClockSync:
		nd.handleClockSync(from, rid, m)
	default:
		// Unknown messages are dropped; the engines never share a network
		// with a different engine type.
	}
}

// roScratch is the pooled per-read scratch state of handleRead: the
// request's seen/before sets and the exclusion set, reused across messages
// so the read-only hot path performs no map allocation. Maps are cleared on
// release; oversized ones are reallocated so a pathological request cannot
// pin a huge table in the pool.
type roScratch struct {
	seen     map[wire.TxnID]struct{}
	before   map[wire.TxnID]struct{}
	excluded map[wire.TxnID]struct{}
}

func newROScratch() *roScratch {
	return &roScratch{
		seen:     make(map[wire.TxnID]struct{}, 8),
		before:   make(map[wire.TxnID]struct{}, 8),
		excluded: make(map[wire.TxnID]struct{}, 8),
	}
}

const scratchMapCap = 256

func (nd *Node) getScratch() *roScratch {
	return nd.readScratch.Get().(*roScratch)
}

func (nd *Node) putScratch(sc *roScratch) {
	if len(sc.seen) > scratchMapCap || len(sc.before) > scratchMapCap || len(sc.excluded) > scratchMapCap {
		nd.readScratch.Put(newROScratch())
		return
	}
	clear(sc.seen)
	clear(sc.before)
	clear(sc.excluded)
	nd.readScratch.Put(sc)
}

// --- stripe-aware accessors (tests, and Retained's tombstone count) ---

func (nd *Node) tombstoned(ro wire.TxnID) bool {
	st := nd.stripeOf(ro)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.tombstonedLocked(ro)
}

func (nd *Node) parkedCount() int {
	total := 0
	for i := range nd.stripes {
		st := &nd.stripes[i]
		st.mu.Lock()
		total += len(st.parked)
		st.mu.Unlock()
	}
	return total
}

func (nd *Node) inflightCount() int {
	total := 0
	for i := range nd.stripes {
		st := &nd.stripes[i]
		st.mu.Lock()
		total += len(st.inflight)
		st.mu.Unlock()
	}
	return total
}

func (nd *Node) tombstoneCount() int {
	total := 0
	for i := range nd.stripes {
		st := &nd.stripes[i]
		st.mu.Lock()
		total += st.ntombs
		st.mu.Unlock()
	}
	return total
}
