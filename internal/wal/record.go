package wal

import (
	"encoding/binary"
	"fmt"

	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
)

// RecType identifies one write-ahead-log record kind. The commit-path
// records mirror the stages of an SSS update transaction (2PC prepare/vote,
// decide, freeze-vector stamp, purge); the checkpoint records frame the
// mvstore snapshot that bounds replay.
type RecType uint8

// Record kinds. Values are part of the on-disk format; append only.
const (
	// RecPrepare: this node voted yes on Txn as a write replica. Carries
	// the full write set and dependency set so an in-doubt transaction can
	// be applied after a commit verdict from the coordinator. Written
	// durably (synced) before the yes vote leaves the node — the classic
	// presumed-abort participant obligation.
	RecPrepare RecType = iota + 1
	// RecDecide: the decide outcome reached this write replica. VC is the
	// commit clock, Commit the verdict. Repeats the write/dependency sets
	// so a committed transaction replays from this record alone, even when
	// checkpoint reclamation dropped the segment holding its RecPrepare.
	RecDecide
	// RecCoordCommit: this node, as coordinator, decided commit. Written
	// durably before the decide broadcast — the presumed-abort coordinator
	// obligation: an in-doubt participant that asks about a transaction
	// with no such record gets "abort".
	RecCoordCommit
	// RecFreeze: the coordinator-assigned freeze vector reached this node.
	// Stamp is this node's external-commit stamp (the freeze vector's entry
	// for this node), Keys the locally written keys to re-stamp on replay,
	// and VC the external-clock contribution (the commit clock joined with
	// the order's wire.Freeze.Know); a write replica appends it unsynced.
	// The coordinator writes the record with no keys (VC = full freeze
	// vector, VC2 = the order's Know) and syncs it before the client reply:
	// it is what in-doubt replies and a replica's lost record are rebuilt
	// from.
	RecFreeze
	// RecPurge: Txn's W entries were purged here. Advisory on replay
	// (recovered versions carry their stamps; queue entries are not
	// rebuilt), logged so the record stream mirrors the commit path.
	RecPurge
	// RecCheckpointMeta heads a checkpoint: VC is the commit frontier
	// (most-recent clock), VC2 the external clock, Stamp the external-stamp
	// frontier, Seq the coordinator transaction-sequence floor.
	RecCheckpointMeta
	// RecVersion is one retained version inside a checkpoint: Key, Val, VC
	// (commit clock), Txn (writer), Deps, Stamp (external-commit stamp).
	// Emitted oldest-first per key so sequential restore rebuilds chains.
	RecVersion
)

// String returns the record kind's name.
func (t RecType) String() string {
	switch t {
	case RecPrepare:
		return "prepare"
	case RecDecide:
		return "decide"
	case RecCoordCommit:
		return "coord-commit"
	case RecFreeze:
		return "freeze"
	case RecPurge:
		return "purge"
	case RecCheckpointMeta:
		return "checkpoint-meta"
	case RecVersion:
		return "version"
	default:
		return fmt.Sprintf("rectype(%d)", uint8(t))
	}
}

// Record is one WAL entry. It is a union over the record kinds: each kind
// uses the subset of fields its doc comment names; the rest stay zero and
// encode to a few bytes. All fields round-trip through the CRC-framed
// on-disk encoding.
type Record struct {
	Type   RecType
	Txn    wire.TxnID
	Commit bool
	Stamp  uint64
	Seq    uint64
	Key    string
	Val    []byte
	VC     vclock.VC
	VC2    vclock.VC
	Keys   []string
	Writes []wire.KV
	Deps   []wire.TxnID
}

// appendPayload appends r's encoded payload (everything the per-record CRC
// covers) to buf, with the wire codec's append helpers.
func appendPayload(buf []byte, r *Record) []byte {
	buf = append(buf, byte(r.Type))
	buf = wire.AppendTxnID(buf, r.Txn)
	buf = wire.AppendBool(buf, r.Commit)
	buf = binary.AppendUvarint(buf, r.Stamp)
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = wire.AppendString(buf, r.Key)
	buf = wire.AppendBytes(buf, r.Val)
	buf = r.VC.AppendBinary(buf)
	buf = r.VC2.AppendBinary(buf)
	buf = wire.AppendStrings(buf, r.Keys)
	buf = wire.AppendKVs(buf, r.Writes)
	return wire.AppendTxnIDs(buf, r.Deps)
}

// decodePayload parses one record payload produced by appendPayload.
func decodePayload(buf []byte) (*Record, error) {
	d := wire.NewDecoder(buf)
	r := &Record{Type: RecType(d.Byte()), Txn: d.TxnID(), Commit: d.Bool(),
		Stamp: d.Uvarint(), Seq: d.Uvarint(), Key: d.Str(), Val: d.Bytes(),
		VC: d.VC(), VC2: d.VC(), Keys: d.Strs(), Writes: d.KVs(), Deps: d.TxnIDs()}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if rest := len(d.Rest()); rest != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after %v record", rest, r.Type)
	}
	return r, nil
}
