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
	// the order's wire.ExtFreeze.Know); a write replica appends it unsynced.
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
// covers) to buf, in the same uvarint/length-prefix idiom as the wire codec.
func appendPayload(buf []byte, r *Record) []byte {
	buf = append(buf, byte(r.Type))
	buf = binary.AppendUvarint(buf, uint64(r.Txn.Node))
	buf = binary.AppendUvarint(buf, r.Txn.Seq)
	if r.Commit {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, r.Stamp)
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
	buf = append(buf, r.Key...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Val)))
	buf = append(buf, r.Val...)
	buf = r.VC.AppendBinary(buf)
	buf = r.VC2.AppendBinary(buf)
	buf = binary.AppendUvarint(buf, uint64(len(r.Keys)))
	for _, k := range r.Keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Writes)))
	for _, kv := range r.Writes {
		buf = binary.AppendUvarint(buf, uint64(len(kv.Key)))
		buf = append(buf, kv.Key...)
		buf = binary.AppendUvarint(buf, uint64(len(kv.Val)))
		buf = append(buf, kv.Val...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Deps)))
	for _, d := range r.Deps {
		buf = binary.AppendUvarint(buf, uint64(d.Node))
		buf = binary.AppendUvarint(buf, d.Seq)
	}
	return buf
}

// cursor is an error-accumulating payload reader, mirroring the wire
// codec's decode discipline: all reads after the first failure return zero
// values, so decode paths stay linear and the caller checks err once.
type cursor struct {
	buf []byte
	off int
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("wal: truncated %s at offset %d", what, c.off)
	}
}

func (c *cursor) byte() byte {
	if c.err != nil || c.off >= len(c.buf) {
		c.fail("byte")
		return 0
	}
	b := c.buf[c.off]
	c.off++
	return b
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	x, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.fail("uvarint")
		return 0
	}
	c.off += n
	return x
}

func (c *cursor) str() string {
	n := int(c.uvarint())
	if c.err != nil {
		return ""
	}
	if n < 0 || c.off+n > len(c.buf) {
		c.fail("string")
		return ""
	}
	s := string(c.buf[c.off : c.off+n])
	c.off += n
	return s
}

func (c *cursor) bytes() []byte {
	n := int(c.uvarint())
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.buf) {
		c.fail("bytes")
		return nil
	}
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	copy(b, c.buf[c.off:c.off+n])
	c.off += n
	return b
}

func (c *cursor) vc() vclock.VC {
	if c.err != nil {
		return nil
	}
	v, n, err := vclock.DecodeFrom(c.buf[c.off:])
	if err != nil {
		c.err = err
		return nil
	}
	c.off += n
	if len(v) == 0 {
		return nil
	}
	return v
}

// maxSliceLen caps decoded slice headers: a corrupted length that survived
// the CRC (or a record decoded outside CRC protection in tests) must fail
// loudly, never allocate garbage.
const maxSliceLen = 1 << 22

func (c *cursor) sliceLen(what string) int {
	n := c.uvarint()
	if c.err != nil {
		return 0
	}
	if n > maxSliceLen {
		c.err = fmt.Errorf("wal: implausible %s length %d", what, n)
		return 0
	}
	return int(n)
}

// decodePayload parses one record payload produced by appendPayload.
func decodePayload(buf []byte) (*Record, error) {
	c := cursor{buf: buf}
	r := &Record{}
	r.Type = RecType(c.byte())
	r.Txn = wire.TxnID{Node: wire.NodeID(c.uvarint()), Seq: c.uvarint()}
	r.Commit = c.byte() != 0
	r.Stamp = c.uvarint()
	r.Seq = c.uvarint()
	r.Key = c.str()
	r.Val = c.bytes()
	r.VC = c.vc()
	r.VC2 = c.vc()
	if n := c.sliceLen("keys"); n > 0 && c.err == nil {
		r.Keys = make([]string, n)
		for i := range r.Keys {
			r.Keys[i] = c.str()
		}
	}
	if n := c.sliceLen("writes"); n > 0 && c.err == nil {
		r.Writes = make([]wire.KV, n)
		for i := range r.Writes {
			r.Writes[i] = wire.KV{Key: c.str(), Val: c.bytes()}
		}
	}
	if n := c.sliceLen("deps"); n > 0 && c.err == nil {
		r.Deps = make([]wire.TxnID, n)
		for i := range r.Deps {
			r.Deps[i] = wire.TxnID{Node: wire.NodeID(c.uvarint()), Seq: c.uvarint()}
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(buf) {
		return nil, fmt.Errorf("wal: %d trailing bytes after %v record", len(buf)-c.off, r.Type)
	}
	return r, nil
}
