package wire

import (
	"encoding/binary"
	"fmt"

	"github.com/sss-paper/sss/internal/vclock"
)

// EncodeEnvelope appends the binary encoding of env to buf and returns the
// extended slice. The layout is:
//
//	msgType(1) from(uvarint) rid(uvarint) resp(1) body...
//
// All integers are uvarints; strings and byte slices are length-prefixed.
func EncodeEnvelope(buf []byte, env Envelope) ([]byte, error) {
	if env.Msg == nil {
		return nil, fmt.Errorf("wire: envelope with nil message")
	}
	buf = append(buf, byte(env.Msg.Type()))
	buf = binary.AppendUvarint(buf, uint64(env.From))
	buf = binary.AppendUvarint(buf, env.RID)
	buf = appendBool(buf, env.Resp)
	return appendBody(buf, env.Msg)
}

// DecodeEnvelope parses one envelope from buf, which must contain exactly
// one encoded envelope.
func DecodeEnvelope(buf []byte) (Envelope, error) {
	c := cursor{buf: buf}
	t := MsgType(c.byte())
	env := Envelope{
		From: NodeID(c.uvarint()),
		RID:  c.uvarint(),
		Resp: c.bool(),
	}
	msg, err := decodeBody(&c, t)
	if err != nil {
		return Envelope{}, err
	}
	if c.err != nil {
		return Envelope{}, c.err
	}
	if c.off != len(buf) {
		return Envelope{}, fmt.Errorf("wire: %d trailing bytes after %v", len(buf)-c.off, t)
	}
	env.Msg = msg
	return env, nil
}

func appendBody(buf []byte, msg Msg) ([]byte, error) {
	switch m := msg.(type) {
	case *ReadRequest:
		buf = appendTxnID(buf, m.Txn)
		buf = appendString(buf, m.Key)
		buf = m.VC.AppendBinary(buf)
		buf = appendBools(buf, m.HasRead)
		buf = appendBool(buf, m.IsUpdate)
		buf = binary.AppendUvarint(buf, uint64(len(m.Seen)))
		for _, s := range m.Seen {
			buf = appendTxnID(buf, s)
		}
		buf = appendExWriters(buf, m.Before)
		buf = m.ObsVC.AppendBinary(buf)
	case *ReadReturn:
		buf = appendBytes(buf, m.Val)
		buf = appendBool(buf, m.Exists)
		buf = appendTxnID(buf, m.Writer)
		buf = m.VC.AppendBinary(buf)
		buf = appendSQEntries(buf, m.Propagated)
		buf = binary.AppendUvarint(buf, m.Ver)
		buf = appendTxnID(buf, m.PendingWriter)
		buf = appendExWriters(buf, m.Excluded)
		buf = m.VerVC.AppendBinary(buf)
		buf = binary.AppendUvarint(buf, uint64(len(m.VerDeps)))
		for _, d := range m.VerDeps {
			buf = appendTxnID(buf, d)
		}
	case *Prepare:
		buf = appendTxnID(buf, m.Txn)
		buf = m.VC.AppendBinary(buf)
		buf = appendStrings(buf, m.ReadKeys)
		buf = appendKVs(buf, m.Writes)
		buf = binary.AppendUvarint(buf, uint64(len(m.ReadVers)))
		for _, v := range m.ReadVers {
			buf = binary.AppendUvarint(buf, v)
		}
		buf = binary.AppendUvarint(buf, uint64(len(m.ReadFrom)))
		for _, w := range m.ReadFrom {
			buf = appendTxnID(buf, w)
		}
		buf = binary.AppendUvarint(buf, uint64(len(m.Deps)))
		for _, w := range m.Deps {
			buf = appendTxnID(buf, w)
		}
	case *Vote:
		buf = appendTxnID(buf, m.Txn)
		buf = m.VC.AppendBinary(buf)
		buf = appendBool(buf, m.OK)
	case *Decide:
		buf = appendTxnID(buf, m.Txn)
		buf = m.VC.AppendBinary(buf)
		buf = appendBool(buf, m.Commit)
		buf = appendSQEntries(buf, m.Propagated)
		buf = appendBool(buf, m.Drain)
	case *DecideAck:
		buf = appendTxnID(buf, m.Txn)
		buf = binary.AppendUvarint(buf, m.Ext)
		buf = appendBool(buf, m.Gated)
	case *Remove:
		buf = appendTxnID(buf, m.Txn)
	case *FwdRemove:
		buf = appendTxnID(buf, m.RO)
	case *ExtCommit:
		buf = appendTxnID(buf, m.Txn)
	case *ExtBatch:
		buf = binary.AppendUvarint(buf, uint64(len(m.Freezes)))
		for _, f := range m.Freezes {
			buf = appendTxnID(buf, f.Txn)
			buf = f.VC.AppendBinary(buf)
			buf = f.Know.AppendBinary(buf)
		}
		buf = binary.AppendUvarint(buf, uint64(len(m.Purges)))
		for _, p := range m.Purges {
			buf = appendTxnID(buf, p)
		}
	case *ExtBatchAck:
		buf = binary.AppendUvarint(buf, m.Freezes)
	case *WaitExternal:
		buf = appendTxnID(buf, m.Txn)
	case *WaitExternalAck:
		buf = appendTxnID(buf, m.Txn)
		buf = m.VC.AppendBinary(buf)
	case *WalterPropagate:
		buf = appendTxnID(buf, m.Txn)
		buf = m.VC.AppendBinary(buf)
		buf = appendKVs(buf, m.Writes)
	case *RococoDispatch:
		buf = appendTxnID(buf, m.Txn)
		buf = appendStrings(buf, m.ReadKeys)
		buf = appendKVs(buf, m.Writes)
	case *RococoDispatchReply:
		buf = appendTxnID(buf, m.Txn)
		buf = binary.AppendUvarint(buf, m.Seq)
		buf = binary.AppendUvarint(buf, uint64(len(m.Deps)))
		for _, d := range m.Deps {
			buf = appendTxnID(buf, d)
		}
		buf = binary.AppendUvarint(buf, uint64(len(m.Versions)))
		for _, v := range m.Versions {
			buf = binary.AppendUvarint(buf, v)
		}
		buf = binary.AppendUvarint(buf, uint64(len(m.Vals)))
		for _, v := range m.Vals {
			buf = appendBytes(buf, v)
		}
		buf = appendBools(buf, m.Exists)
	case *RococoCommit:
		buf = appendTxnID(buf, m.Txn)
		buf = binary.AppendUvarint(buf, m.Seq)
	case *RococoCommitReply:
		buf = appendTxnID(buf, m.Txn)
		buf = binary.AppendUvarint(buf, uint64(len(m.Vals)))
		for _, v := range m.Vals {
			buf = appendBytes(buf, v)
		}
	case *TxnStatus:
		buf = appendTxnID(buf, m.Txn)
	case *TxnStatusReply:
		buf = appendTxnID(buf, m.Txn)
		buf = appendBool(buf, m.Known)
		buf = appendBool(buf, m.Commit)
		buf = m.VC.AppendBinary(buf)
		buf = m.FreezeVC.AppendBinary(buf)
		buf = m.Know.AppendBinary(buf)
	case *ClockSync:
		// No body.
	case *ClockSyncReply:
		buf = m.Ext.AppendBinary(buf)
	default:
		return nil, fmt.Errorf("wire: cannot encode message type %T", msg)
	}
	return buf, nil
}

func decodeBody(c *cursor, t MsgType) (Msg, error) {
	switch t {
	case MsgReadRequest:
		m := &ReadRequest{}
		m.Txn = c.txnID()
		m.Key = c.str()
		m.VC = c.vc()
		m.HasRead = c.bools()
		m.IsUpdate = c.bool()
		if n := c.count(); n > 0 && c.err == nil {
			m.Seen = make([]TxnID, n)
			for i := range m.Seen {
				m.Seen[i] = c.txnID()
			}
		}
		m.Before = c.exWriters()
		m.ObsVC = c.vc()
		return m, c.err
	case MsgReadReturn:
		m := &ReadReturn{}
		m.Val = c.bytes()
		m.Exists = c.bool()
		m.Writer = c.txnID()
		m.VC = c.vc()
		m.Propagated = c.sqEntries()
		m.Ver = c.uvarint()
		m.PendingWriter = c.txnID()
		m.Excluded = c.exWriters()
		m.VerVC = c.vc()
		if n := c.count(); n > 0 && c.err == nil {
			m.VerDeps = make([]TxnID, n)
			for i := range m.VerDeps {
				m.VerDeps[i] = c.txnID()
			}
		}
		return m, c.err
	case MsgPrepare:
		m := &Prepare{}
		m.Txn = c.txnID()
		m.VC = c.vc()
		m.ReadKeys = c.strs()
		m.Writes = c.kvs()
		if n := c.count(); n > 0 && c.err == nil {
			m.ReadVers = make([]uint64, n)
			for i := range m.ReadVers {
				m.ReadVers[i] = c.uvarint()
			}
		}
		if n := c.count(); n > 0 && c.err == nil {
			m.ReadFrom = make([]TxnID, n)
			for i := range m.ReadFrom {
				m.ReadFrom[i] = c.txnID()
			}
		}
		if n := c.count(); n > 0 && c.err == nil {
			m.Deps = make([]TxnID, n)
			for i := range m.Deps {
				m.Deps[i] = c.txnID()
			}
		}
		return m, c.err
	case MsgVote:
		m := &Vote{}
		m.Txn = c.txnID()
		m.VC = c.vc()
		m.OK = c.bool()
		return m, c.err
	case MsgDecide:
		m := &Decide{}
		m.Txn = c.txnID()
		m.VC = c.vc()
		m.Commit = c.bool()
		m.Propagated = c.sqEntries()
		m.Drain = c.bool()
		return m, c.err
	case MsgDecideAck:
		return &DecideAck{Txn: c.txnID(), Ext: c.uvarint(), Gated: c.bool()}, c.err
	case MsgRemove:
		return &Remove{Txn: c.txnID()}, c.err
	case MsgFwdRemove:
		return &FwdRemove{RO: c.txnID()}, c.err
	case MsgExtCommit:
		return &ExtCommit{Txn: c.txnID()}, c.err
	case MsgExtBatch:
		m := &ExtBatch{}
		if n := c.count(); n > 0 && c.err == nil {
			m.Freezes = make([]ExtFreeze, n)
			for i := range m.Freezes {
				m.Freezes[i] = ExtFreeze{Txn: c.txnID(), VC: c.vc(), Know: c.vc()}
			}
		}
		if n := c.count(); n > 0 && c.err == nil {
			m.Purges = make([]TxnID, n)
			for i := range m.Purges {
				m.Purges[i] = c.txnID()
			}
		}
		return m, c.err
	case MsgExtBatchAck:
		return &ExtBatchAck{Freezes: c.uvarint()}, c.err
	case MsgWaitExternal:
		return &WaitExternal{Txn: c.txnID()}, c.err
	case MsgWaitExternalAck:
		return &WaitExternalAck{Txn: c.txnID(), VC: c.vc()}, c.err
	case MsgWalterPropagate:
		m := &WalterPropagate{}
		m.Txn = c.txnID()
		m.VC = c.vc()
		m.Writes = c.kvs()
		return m, c.err
	case MsgRococoDispatch:
		m := &RococoDispatch{}
		m.Txn = c.txnID()
		m.ReadKeys = c.strs()
		m.Writes = c.kvs()
		return m, c.err
	case MsgRococoDispatchReply:
		m := &RococoDispatchReply{}
		m.Txn = c.txnID()
		m.Seq = c.uvarint()
		n := c.count()
		if n > 0 && c.err == nil {
			m.Deps = make([]TxnID, n)
			for i := range m.Deps {
				m.Deps[i] = c.txnID()
			}
		}
		n = c.count()
		if n > 0 && c.err == nil {
			m.Versions = make([]uint64, n)
			for i := range m.Versions {
				m.Versions[i] = c.uvarint()
			}
		}
		n = c.count()
		if n > 0 && c.err == nil {
			m.Vals = make([][]byte, n)
			for i := range m.Vals {
				m.Vals[i] = c.bytes()
			}
		}
		m.Exists = c.bools()
		return m, c.err
	case MsgRococoCommit:
		m := &RococoCommit{}
		m.Txn = c.txnID()
		m.Seq = c.uvarint()
		return m, c.err
	case MsgRococoCommitReply:
		m := &RococoCommitReply{}
		m.Txn = c.txnID()
		n := c.count()
		if n > 0 && c.err == nil {
			m.Vals = make([][]byte, n)
			for i := range m.Vals {
				m.Vals[i] = c.bytes()
			}
		}
		return m, c.err
	case MsgTxnStatus:
		return &TxnStatus{Txn: c.txnID()}, c.err
	case MsgTxnStatusReply:
		return &TxnStatusReply{Txn: c.txnID(), Known: c.bool(), Commit: c.bool(),
			VC: c.vc(), FreezeVC: c.vc(), Know: c.vc()}, c.err
	case MsgClockSync:
		return &ClockSync{}, c.err
	case MsgClockSyncReply:
		return &ClockSyncReply{Ext: c.vc()}, c.err
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", t)
	}
}

// --- append helpers ---

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendBools(buf []byte, bs []bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(bs)))
	for _, b := range bs {
		buf = appendBool(buf, b)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendTxnID(buf []byte, t TxnID) []byte {
	buf = binary.AppendUvarint(buf, uint64(t.Node))
	return binary.AppendUvarint(buf, t.Seq)
}

func appendSQEntries(buf []byte, es []SQEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	for _, e := range es {
		buf = appendTxnID(buf, e.Txn)
		buf = binary.AppendUvarint(buf, e.SID)
		buf = append(buf, byte(e.Kind))
	}
	return buf
}

func appendExWriters(buf []byte, es []ExWriter) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	for _, e := range es {
		buf = appendTxnID(buf, e.Txn)
		buf = e.VC.AppendBinary(buf)
	}
	return buf
}

func appendKVs(buf []byte, kvs []KV) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(kvs)))
	for _, kv := range kvs {
		buf = appendString(buf, kv.Key)
		buf = appendBytes(buf, kv.Val)
	}
	return buf
}

// --- decode cursor ---

// cursor walks a buffer accumulating the first error; all reads after an
// error return zero values, so decode paths stay linear.
type cursor struct {
	buf []byte
	off int
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("wire: truncated %s at offset %d", what, c.off)
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

func (c *cursor) bool() bool { return c.byte() != 0 }

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

// count reads a length prefix. Every element takes at least one byte, so a
// length beyond the bytes left is corrupt: fail before allocating for it.
func (c *cursor) count() int {
	n := c.uvarint()
	if c.err == nil && n > uint64(len(c.buf)-c.off) {
		c.fail("length")
		return 0
	}
	return int(n)
}

func (c *cursor) str() string {
	n := c.count()
	if c.err != nil {
		return ""
	}
	s := string(c.buf[c.off : c.off+n])
	c.off += n
	return s
}

func (c *cursor) bytes() []byte {
	n := c.count()
	if c.err != nil {
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

func (c *cursor) bools() []bool {
	n := c.count()
	if c.err != nil || n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = c.bool()
	}
	return out
}

func (c *cursor) strs() []string {
	n := c.count()
	if c.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = c.str()
	}
	return out
}

func (c *cursor) txnID() TxnID {
	return TxnID{Node: NodeID(c.uvarint()), Seq: c.uvarint()}
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
		return nil // canonical form: a nil clock round-trips to nil
	}
	return v
}

func (c *cursor) sqEntries() []SQEntry {
	n := c.count()
	if c.err != nil || n == 0 {
		return nil
	}
	out := make([]SQEntry, n)
	for i := range out {
		out[i] = SQEntry{Txn: c.txnID(), SID: c.uvarint(), Kind: EntryKind(c.byte())}
	}
	return out
}

func (c *cursor) exWriters() []ExWriter {
	n := c.count()
	if c.err != nil || n == 0 {
		return nil
	}
	out := make([]ExWriter, n)
	for i := range out {
		out[i] = ExWriter{Txn: c.txnID(), VC: c.vc()}
	}
	return out
}

func (c *cursor) kvs() []KV {
	n := c.count()
	if c.err != nil || n == 0 {
		return nil
	}
	out := make([]KV, n)
	for i := range out {
		out[i] = KV{Key: c.str(), Val: c.bytes()}
	}
	return out
}
