// Package wire defines the inter-node message vocabulary of the SSS protocol
// and its competitors, together with a compact binary codec used by the TCP
// transport (the paper's "metadata compression").
//
// Messages are deliberately plain data: all protocol logic lives in the
// engine packages. The transport gives no message type precedence over
// another: every kind shares one ordered link per peer.
package wire

import (
	"fmt"

	"github.com/sss-paper/sss/internal/vclock"
)

// NodeID identifies a node (site) in the cluster. IDs are dense, starting
// at 0, and double as vector-clock indices.
type NodeID int32

// TxnID globally identifies a transaction: the node that coordinates it plus
// a per-node sequence number. The zero TxnID is reserved for "no
// transaction" (e.g. the writer of the genesis version).
type TxnID struct {
	Node NodeID
	Seq  uint64
}

// IsZero reports whether t is the reserved empty transaction ID.
func (t TxnID) IsZero() bool { return t.Node == 0 && t.Seq == 0 }

// String renders t as "N<node>.<seq>".
func (t TxnID) String() string { return fmt.Sprintf("N%d.%d", t.Node, t.Seq) }

// EntryKind distinguishes read-only from update entries in a snapshot-queue.
type EntryKind uint8

// Snapshot-queue entry kinds ("R" and "W" in the paper).
const (
	EntryRead EntryKind = iota + 1
	EntryWrite
)

// String returns the paper's one-letter name for the kind.
func (k EntryKind) String() string {
	switch k {
	case EntryRead:
		return "R"
	case EntryWrite:
		return "W"
	default:
		return "?"
	}
}

// SQEntry is one snapshot-queue tuple <T.id, insertion-snapshot, kind>.
type SQEntry struct {
	Txn  TxnID
	SID  uint64 // insertion-snapshot: T.VC[i] at enqueue time on node i
	Kind EntryKind
}

// MsgType tags every wire message for the codec.
type MsgType uint8

// Message types. The set covers SSS (read, 2PC, pre-commit acks, remove
// propagation) plus the extra verbs needed by the Walter and ROCOCO
// competitor engines, which share the transport.
const (
	MsgReadRequest MsgType = iota + 1
	MsgReadReturn
	MsgPrepare
	MsgVote
	MsgDecide
	MsgDecideAck
	MsgRemove
	MsgFwdRemove
	MsgExtCommit
	MsgWaitExternal
	MsgWaitExternalAck
	MsgWalterPropagate
	MsgRococoDispatch
	MsgRococoDispatchReply
	MsgRococoCommit
	MsgRococoCommitReply
	MsgFreeze
	MsgFreezeAck
	MsgPurge
	MsgTxnStatus
	MsgTxnStatusReply
	MsgClockSync
	MsgClockSyncReply
)

// Msg is implemented by every wire message.
type Msg interface {
	Type() MsgType
}

// Envelope frames a message for transport: the sender, an RPC correlation ID
// (0 for one-way notifications), and whether this is a response.
type Envelope struct {
	From NodeID
	RID  uint64
	Resp bool
	Msg  Msg
}

// ReadRequest asks a replica of Key for a version visible to transaction
// Txn. VC and HasRead carry the transaction's current visibility bound;
// IsUpdate selects the update-transaction fast path of Algorithm 6.
type ReadRequest struct {
	Txn      TxnID
	Key      string
	VC       vclock.VC
	HasRead  []bool
	IsUpdate bool
	// Seen lists writers whose versions this read-only transaction has
	// already observed: their versions must never be excluded again even
	// if their snapshot-queue entries are still unflagged here.
	Seen []TxnID
	// Before lists writers this read-only transaction has serialized
	// *before* (it read past their versions while they were parked):
	// their versions — and any version causally dependent on them — must
	// stay invisible for the rest of the transaction (sticky exclusion).
	Before []ExWriter
	// ObsVC is the entry-wise maximum over the commit clocks of the
	// versions this read-only transaction has actually observed. Any
	// version at or beneath it is causally part of the snapshot already:
	// it must never be excluded, parked or not.
	ObsVC vclock.VC
}

// ExWriter names a writer a reader serialized before. VC is nil unless the
// serving replica had the writer's external-commit stamp, above the reader's
// cut there: then it holds that stamp in the replica's column, zeros
// elsewhere. The reader echoes it in Before, and no first contact lifts that
// column of its bound to the stamp (docs/CONSISTENCY.md §4 item 1).
type ExWriter struct {
	Txn TxnID
	VC  vclock.VC
}

// ReadReturn answers a ReadRequest. VC is the maxVC of Algorithm 6 (the
// bound the reader folds into T.VC); Propagated carries the snapshot-queue
// R-entries an update transaction must propagate (its transitive
// anti-dependencies); Writer identifies the transaction that produced the
// returned version; Exists distinguishes a genuine version from "no such
// key".
type ReadReturn struct {
	Val        []byte
	Exists     bool
	Writer     TxnID
	VC         vclock.VC
	Propagated []SQEntry
	// Ver is the replica-local version counter of the key; used by the
	// single-version 2PC-baseline competitor instead of VC.
	Ver uint64
	// PendingWriter, when non-zero, names the returned version's writer,
	// which was still parked in the key's snapshot-queue (internally but
	// not yet externally committed). The reader must delay its own
	// completion until that writer externally commits (WaitExternal).
	PendingWriter TxnID
	// Excluded lists the writers whose versions this read skipped because
	// they were parked and unflagged: the reader serialized before them
	// and must keep excluding them (and their causal dependents).
	Excluded []ExWriter
	// VerVC is the returned version's commit vector clock (zero for the
	// genesis version); readers fold it into their observed clock.
	VerVC vclock.VC
	// VerDeps is the returned version's stored dependency set
	// (mvstore.Version.Deps), sent only while PendingWriter is set. Once
	// that writer is purged at the serving replica the reply's VC covers
	// every stamp in its ancestry instead (docs/CONSISTENCY.md §4 item 1).
	VerDeps []TxnID
}

// KV is one buffered write shipped in a Prepare.
type KV struct {
	Key string
	Val []byte
}

// Prepare opens 2PC for transaction Txn at a participant. ReadKeys lists
// the keys the participant must shared-lock and validate against VC;
// Writes lists the keys it must exclusive-lock and, on commit, apply.
type Prepare struct {
	Txn      TxnID
	VC       vclock.VC
	ReadKeys []string
	Writes   []KV
	// ReadVers carries, per entry of ReadKeys, the version the transaction
	// read (2PC-baseline validation; empty for SSS).
	ReadVers []uint64
	// ReadFrom carries, per entry of ReadKeys, the writer of the version
	// the transaction read. SSS validates by version identity: the paper's
	// vid[i] comparison (Algorithm 1 line 29) is ambiguous when commit
	// vector clocks are levelled to a shared xactVN (line 21–24 can give
	// two conflicting writers an identical vid[i]), so we check that the
	// read version is still the latest by comparing writers instead.
	ReadFrom []TxnID
	// Deps is the transaction's dependency set: the writers that were
	// parked at the serving replica when it read their versions, plus the
	// VerDeps those reads returned. Stored on the versions it installs;
	// bounded by the chain of simultaneously parked writers, not by history.
	Deps []TxnID
}

// Vote is the participant's 2PC answer, carrying the proposed commit vector
// clock of Algorithm 2 (NodeVC with the local entry incremented, when the
// participant replicates a written key).
type Vote struct {
	Txn TxnID
	VC  vclock.VC
	OK  bool
}

// Decide closes 2PC. On commit, participants internally commit Txn
// (CommitQ → NLog → versions visible), then run the pre-commit protocol:
// enqueue a W-entry plus the coordinator-collected Propagated R-entries on
// each written key's snapshot-queue and wait for older entries to drain.
// The participant answers with DecideAck only after that drain — receipt of
// all acks is the coordinator's external-commit point.
type Decide struct {
	Txn        TxnID
	VC         vclock.VC
	Commit     bool
	Propagated []SQEntry
	// Drain piggybacks the external-commit drain stage onto the decide
	// round: after its pre-commit wait, the write replica marks its W
	// entries drained and returns its drain-stage frontier in
	// DecideAck.Ext, so the coordinator can assemble the freeze vector
	// straight from the decide acks — collapsing the separate acked
	// ExtCommit drain round. The paper's protocol only requires *ordering*
	// between the stages per transaction, not a dedicated round trip per
	// stage: the coordinator still forms the freeze vector only after
	// every write replica's drain stage completed.
	Drain bool
}

// DecideAck signals that the participant finished the pre-commit wait for
// Txn (Algorithm 4's Ack). When acking an ExtCommit drain round or a
// piggybacked decide+drain (Decide.Drain), Ext carries the participant's
// drain-stage frontier (its applied frontier once its snapshot-queue
// backlog cleared); the coordinator joins these frontiers with the commit
// clock into the replica-independent freeze vector it ships in the freeze
// round. Gated, on a piggybacked decide+drain ack, reports that the
// participant's pre-commit drain actually blocked on a queued entry: the
// coordinator then falls back to the standalone drain round before
// freezing, because a contended queue means the piggybacked drain barrier
// may be stale by the time the freeze would be issued
// (docs/CONSISTENCY.md §5).
type DecideAck struct {
	Txn   TxnID
	Ext   uint64
	Gated bool
}

// Remove tells a node that read-only transaction Txn completed: every
// snapshot-queue entry it owns on that node must be deleted, unblocking
// parked update transactions.
type Remove struct {
	Txn TxnID
}

// ExtCommit is the standalone drain round of Txn's staged external commit
// (drain → freeze → purge; W entries persist from internal until *external*
// commit so every reader can tell whether the version it selected is still
// provisional). Acked: each write replica completes its snapshot-queue waits
// without announcing anything and returns its drain-stage frontier in
// DecideAck.Ext. The coordinator normally piggybacks this stage onto the
// decide round (Decide.Drain) and sends this message only to re-tighten a
// contended or stale barrier. Freeze and Purge carry the stages after it.
type ExtCommit struct {
	Txn TxnID
}

// Freeze is the freeze stage of Txn's external commit, sent by its
// coordinator to each write replica as an acked call before the client
// reply. VC is the coordinator-assigned freeze vector: the transaction's
// final commit clock joined, per write replica, with that replica's
// drain-stage frontier. The replica records VC[self] as the writer's
// external-commit stamp *on arrival* (before its own gated re-drain), folds
// the transaction's clock into its external-knowledge clock, re-drains, flags
// the entries and answers with a FreezeAck.
//
// Because the vector is computed once by the coordinator, every replica of a
// key stamps the same value at the same protocol step, and read-only
// inclusion verdicts — functions of (stamp, reader cut) only — are
// replica-independent: no verdict ever keys off per-replica flag timing,
// which used to let two read-only transactions order two
// concurrently-freezing writers oppositely (the freeze-skew residue, see
// docs/CONSISTENCY.md).
//
// Know is set by a transaction that waited out pending writers: its
// coordinator's external-knowledge clock after those waits, which covers their
// freeze vectors. The replica joins it into its own, so a reader that meets
// this transaction's version after its purge — and inherits no dependency set
// — gets a clock covering every stamp in its ancestry. nil is one byte.
type Freeze struct {
	Txn  TxnID
	VC   vclock.VC
	Know vclock.VC
}

// FreezeAck answers a Freeze once the writer's entries are stamped,
// re-drained and flagged. The call it answers names the transaction.
type FreezeAck struct{}

// Purge is the last stage of Txn's external commit: a one-way notification
// that deletes the writer's W entries and parked state at a write replica.
// The coordinator sends it to a replica only after that replica's FreezeAck.
type Purge struct {
	Txn TxnID
}

// WaitExternal subscribes to Txn's external commit at its coordinator. The
// coordinator answers with WaitExternalAck once Txn's client response is
// (about to be) released. Transactions that read a version whose writer was
// still parked in a snapshot-queue use this to delay their own completion
// until that writer's completion, preserving the external schedule.
type WaitExternal struct {
	Txn TxnID
}

// WaitExternalAck answers WaitExternal. VC is the answering coordinator's
// external-knowledge clock, which covers Txn's freeze vector (the coordinator
// records it before releasing its waiters); the waiter folds it into its own.
type WaitExternalAck struct {
	Txn TxnID
	VC  vclock.VC
}

// FwdRemove is sent to the coordinator of an update transaction that
// propagated RO's snapshot-queue entries into its written keys' queues; the
// coordinator relays a Remove to those replicas (transitive
// anti-dependency cleanup, §III-C).
type FwdRemove struct {
	RO TxnID
}

// WalterPropagate asynchronously ships a committed Walter transaction's
// write-set to secondary replicas.
type WalterPropagate struct {
	Txn    TxnID
	VC     vclock.VC
	Writes []KV
}

// RococoDispatch delivers the pieces of a ROCOCO transaction touching this
// server during the dispatch round.
type RococoDispatch struct {
	Txn      TxnID
	ReadKeys []string
	Writes   []KV
}

// RococoDispatchReply returns the server's dependency information: the
// highest sequence number proposed for Txn plus the set of concurrent
// conflicting transactions observed.
type RococoDispatchReply struct {
	Txn      TxnID
	Seq      uint64
	Deps     []TxnID
	Versions []uint64 // versions of ReadKeys at dispatch, for RO rounds
	Vals     [][]byte
	Exists   []bool
}

// RococoCommit starts the commit round with the agreed sequence number.
type RococoCommit struct {
	Txn TxnID
	Seq uint64
}

// RococoCommitReply confirms the server executed Txn's pieces.
type RococoCommitReply struct {
	Txn  TxnID
	Vals [][]byte
}

// TxnStatus asks a transaction's coordinator for its 2PC outcome. A
// restarting node sends it for every in-doubt transaction — prepared in its
// write-ahead log with no decide record — and resolves by classic
// presumed-abort: a coordinator that does not know the transaction
// committed answers abort.
type TxnStatus struct {
	Txn TxnID
}

// TxnStatusReply answers TxnStatus. Known=false means the coordinator has
// no durable commit decision for Txn (presume abort). On a known commit,
// VC carries the commit vector clock and FreezeVC — when the freeze round
// already ran — the coordinator-assigned freeze vector, so the recovering
// replica re-stamps the transaction's versions with the same
// replica-independent stamp every live replica recorded. Know is the freeze
// order's Freeze.Know (nil when the committer waited for nobody): the
// replica folds it into its external clock as the lost freeze record would
// have.
type TxnStatusReply struct {
	Txn      TxnID
	Known    bool
	Commit   bool
	VC       vclock.VC
	FreezeVC vclock.VC
	Know     vclock.VC
}

// ClockSync asks a peer for its externally-committed knowledge clock. A
// recovering node sends it to every peer as the last recovery phase: clock
// knowledge acquired through reads and votes is volatile, so a restarted
// node's durable state alone can under-approximate what it already served
// to clients before the crash. Folding every live peer's knowledge closes
// that gap — it is equivalent to performing one read from each peer before
// accepting traffic.
type ClockSync struct{}

// ClockSyncReply answers ClockSync with the peer's external-knowledge clock.
type ClockSyncReply struct {
	Ext vclock.VC
}

// Compile-time interface checks.
var (
	_ Msg = (*ReadRequest)(nil)
	_ Msg = (*ReadReturn)(nil)
	_ Msg = (*Prepare)(nil)
	_ Msg = (*Vote)(nil)
	_ Msg = (*Decide)(nil)
	_ Msg = (*DecideAck)(nil)
	_ Msg = (*Remove)(nil)
	_ Msg = (*FwdRemove)(nil)
	_ Msg = (*ExtCommit)(nil)
	_ Msg = (*WaitExternal)(nil)
	_ Msg = (*WaitExternalAck)(nil)
	_ Msg = (*WalterPropagate)(nil)
	_ Msg = (*RococoDispatch)(nil)
	_ Msg = (*RococoDispatchReply)(nil)
	_ Msg = (*RococoCommit)(nil)
	_ Msg = (*RococoCommitReply)(nil)
	_ Msg = (*Freeze)(nil)
	_ Msg = (*FreezeAck)(nil)
	_ Msg = (*Purge)(nil)
	_ Msg = (*ClockSync)(nil)
	_ Msg = (*ClockSyncReply)(nil)
	_ Msg = (*TxnStatus)(nil)
	_ Msg = (*TxnStatusReply)(nil)
)

// Type implements Msg.
func (*ReadRequest) Type() MsgType { return MsgReadRequest }

// Type implements Msg.
func (*ReadReturn) Type() MsgType { return MsgReadReturn }

// Type implements Msg.
func (*Prepare) Type() MsgType { return MsgPrepare }

// Type implements Msg.
func (*Vote) Type() MsgType { return MsgVote }

// Type implements Msg.
func (*Decide) Type() MsgType { return MsgDecide }

// Type implements Msg.
func (*DecideAck) Type() MsgType { return MsgDecideAck }

// Type implements Msg.
func (*Remove) Type() MsgType { return MsgRemove }

// Type implements Msg.
func (*FwdRemove) Type() MsgType { return MsgFwdRemove }

// Type implements Msg.
func (*ExtCommit) Type() MsgType { return MsgExtCommit }

// Type implements Msg.
func (*WaitExternal) Type() MsgType { return MsgWaitExternal }

// Type implements Msg.
func (*WaitExternalAck) Type() MsgType { return MsgWaitExternalAck }

// Type implements Msg.
func (*WalterPropagate) Type() MsgType { return MsgWalterPropagate }

// Type implements Msg.
func (*RococoDispatch) Type() MsgType { return MsgRococoDispatch }

// Type implements Msg.
func (*RococoDispatchReply) Type() MsgType { return MsgRococoDispatchReply }

// Type implements Msg.
func (*RococoCommit) Type() MsgType { return MsgRococoCommit }

// Type implements Msg.
func (*RococoCommitReply) Type() MsgType { return MsgRococoCommitReply }

// Type implements Msg.
func (*Freeze) Type() MsgType { return MsgFreeze }

// Type implements Msg.
func (*FreezeAck) Type() MsgType { return MsgFreezeAck }

// Type implements Msg.
func (*Purge) Type() MsgType { return MsgPurge }

// Type implements Msg.
func (*TxnStatus) Type() MsgType { return MsgTxnStatus }

// Type implements Msg.
func (*TxnStatusReply) Type() MsgType { return MsgTxnStatusReply }

// Type implements Msg.
func (*ClockSync) Type() MsgType { return MsgClockSync }

// Type implements Msg.
func (*ClockSyncReply) Type() MsgType { return MsgClockSyncReply }
