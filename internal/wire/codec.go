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
	buf = AppendBool(buf, env.Resp)
	return appendBody(buf, env.Msg)
}

// DecodeEnvelope parses one envelope from buf, which must contain exactly
// one encoded envelope.
func DecodeEnvelope(buf []byte) (Envelope, error) {
	d := NewDecoder(buf)
	t := MsgType(d.Byte())
	env := Envelope{
		From: NodeID(d.Uvarint()),
		RID:  d.Uvarint(),
		Resp: d.Bool(),
	}
	msg, err := decodeBody(d, t)
	if err != nil {
		return Envelope{}, err
	}
	if rest := len(d.Rest()); rest != 0 {
		return Envelope{}, fmt.Errorf("wire: %d trailing bytes after %v", rest, t)
	}
	env.Msg = msg
	return env, nil
}

func appendBody(buf []byte, msg Msg) ([]byte, error) {
	switch m := msg.(type) {
	case *ReadRequest:
		buf = AppendTxnID(buf, m.Txn)
		buf = AppendString(buf, m.Key)
		buf = m.VC.AppendBinary(buf)
		buf = appendBools(buf, m.HasRead)
		buf = AppendTxnIDs(buf, m.Seen)
		buf = appendExWriters(buf, m.Before)
		buf = m.ObsVC.AppendBinary(buf)
	case *ReadReturn:
		buf = AppendBytes(buf, m.Val)
		buf = AppendBool(buf, m.Exists)
		buf = AppendTxnID(buf, m.Writer)
		buf = m.VC.AppendBinary(buf)
		buf = binary.AppendUvarint(buf, m.Ver)
		buf = AppendTxnID(buf, m.PendingWriter)
		buf = appendExWriters(buf, m.Excluded)
		buf = m.VerVC.AppendBinary(buf)
		buf = AppendTxnIDs(buf, m.VerDeps)
	case *UpdateRead:
		buf = AppendStrings(buf, m.Keys)
	case *UpdateReadReply:
		buf = binary.AppendUvarint(buf, uint64(len(m.Results)))
		for i := range m.Results {
			r := &m.Results[i]
			buf = AppendBytes(buf, r.Val)
			buf = AppendBool(buf, r.Exists)
			buf = AppendTxnID(buf, r.Writer)
			buf = r.VC.AppendBinary(buf)
			buf = appendSQEntries(buf, r.Propagated)
			buf = AppendTxnID(buf, r.PendingWriter)
			buf = AppendTxnIDs(buf, r.VerDeps)
		}
	case *Prepare:
		buf = AppendTxnID(buf, m.Txn)
		buf = m.VC.AppendBinary(buf)
		buf = AppendStrings(buf, m.ReadKeys)
		buf = AppendKVs(buf, m.Writes)
		buf = binary.AppendUvarint(buf, uint64(len(m.ReadVers)))
		for _, v := range m.ReadVers {
			buf = binary.AppendUvarint(buf, v)
		}
		buf = AppendTxnIDs(buf, m.ReadFrom)
		buf = AppendTxnIDs(buf, m.Deps)
	case *Vote:
		buf = AppendTxnID(buf, m.Txn)
		buf = m.VC.AppendBinary(buf)
		buf = AppendBool(buf, m.OK)
	case *Decide:
		buf = AppendTxnID(buf, m.Txn)
		buf = m.VC.AppendBinary(buf)
		buf = AppendBool(buf, m.Commit)
		buf = appendSQEntries(buf, m.Propagated)
		buf = AppendBool(buf, m.Drain)
	case *DecideAck:
		buf = AppendTxnID(buf, m.Txn)
		buf = binary.AppendUvarint(buf, m.Ext)
		buf = AppendBool(buf, m.Gated)
	case *Remove:
		buf = AppendTxnID(buf, m.Txn)
	case *FwdRemove:
		buf = AppendTxnID(buf, m.RO)
	case *ExtCommit:
		buf = AppendTxnID(buf, m.Txn)
	case *Freeze:
		buf = AppendTxnID(buf, m.Txn)
		buf = m.VC.AppendBinary(buf)
		buf = m.Know.AppendBinary(buf)
	case *FreezeAck:
		// No body.
	case *Purge:
		buf = AppendTxnID(buf, m.Txn)
	case *WaitExternal:
		buf = AppendTxnID(buf, m.Txn)
	case *WaitExternalAck:
		buf = AppendTxnID(buf, m.Txn)
		buf = m.VC.AppendBinary(buf)
	case *WalterPropagate:
		buf = AppendTxnID(buf, m.Txn)
		buf = m.VC.AppendBinary(buf)
		buf = AppendKVs(buf, m.Writes)
	case *RococoDispatch:
		buf = AppendTxnID(buf, m.Txn)
		buf = AppendStrings(buf, m.ReadKeys)
		buf = AppendKVs(buf, m.Writes)
	case *RococoDispatchReply:
		buf = AppendTxnID(buf, m.Txn)
		buf = binary.AppendUvarint(buf, m.Seq)
		buf = AppendTxnIDs(buf, m.Deps)
		buf = binary.AppendUvarint(buf, uint64(len(m.Versions)))
		for _, v := range m.Versions {
			buf = binary.AppendUvarint(buf, v)
		}
		buf = binary.AppendUvarint(buf, uint64(len(m.Vals)))
		for _, v := range m.Vals {
			buf = AppendBytes(buf, v)
		}
		buf = appendBools(buf, m.Exists)
	case *RococoCommit:
		buf = AppendTxnID(buf, m.Txn)
		buf = binary.AppendUvarint(buf, m.Seq)
	case *RococoCommitReply:
		buf = AppendTxnID(buf, m.Txn)
		buf = binary.AppendUvarint(buf, uint64(len(m.Vals)))
		for _, v := range m.Vals {
			buf = AppendBytes(buf, v)
		}
	case *TxnStatus:
		buf = AppendTxnID(buf, m.Txn)
	case *TxnStatusReply:
		buf = AppendTxnID(buf, m.Txn)
		buf = AppendBool(buf, m.Known)
		buf = AppendBool(buf, m.Commit)
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

func decodeBody(d *Decoder, t MsgType) (Msg, error) {
	switch t {
	case MsgReadRequest:
		m := &ReadRequest{}
		m.Txn = d.TxnID()
		m.Key = d.Str()
		m.VC = d.VC()
		m.HasRead = d.bools()
		m.Seen = d.TxnIDs()
		m.Before = d.exWriters()
		m.ObsVC = d.VC()
		return m, d.err
	case MsgReadReturn:
		m := &ReadReturn{}
		m.Val = d.Bytes()
		m.Exists = d.Bool()
		m.Writer = d.TxnID()
		m.VC = d.VC()
		m.Ver = d.Uvarint()
		m.PendingWriter = d.TxnID()
		m.Excluded = d.exWriters()
		m.VerVC = d.VC()
		m.VerDeps = d.TxnIDs()
		return m, d.err
	case MsgUpdateRead:
		return &UpdateRead{Keys: d.Strs()}, d.err
	case MsgUpdateReadReply:
		m := &UpdateReadReply{}
		if n := d.Count(); n > 0 {
			m.Results = make([]UpdateResult, n)
			for i := range m.Results {
				r := &m.Results[i]
				r.Val = d.Bytes()
				r.Exists = d.Bool()
				r.Writer = d.TxnID()
				r.VC = d.VC()
				r.Propagated = d.sqEntries()
				r.PendingWriter = d.TxnID()
				r.VerDeps = d.TxnIDs()
			}
		}
		return m, d.err
	case MsgPrepare:
		m := &Prepare{}
		m.Txn = d.TxnID()
		m.VC = d.VC()
		m.ReadKeys = d.Strs()
		m.Writes = d.KVs()
		if n := d.Count(); n > 0 {
			m.ReadVers = make([]uint64, n)
			for i := range m.ReadVers {
				m.ReadVers[i] = d.Uvarint()
			}
		}
		m.ReadFrom = d.TxnIDs()
		m.Deps = d.TxnIDs()
		return m, d.err
	case MsgVote:
		m := &Vote{}
		m.Txn = d.TxnID()
		m.VC = d.VC()
		m.OK = d.Bool()
		return m, d.err
	case MsgDecide:
		m := &Decide{}
		m.Txn = d.TxnID()
		m.VC = d.VC()
		m.Commit = d.Bool()
		m.Propagated = d.sqEntries()
		m.Drain = d.Bool()
		return m, d.err
	case MsgDecideAck:
		return &DecideAck{Txn: d.TxnID(), Ext: d.Uvarint(), Gated: d.Bool()}, d.err
	case MsgRemove:
		return &Remove{Txn: d.TxnID()}, d.err
	case MsgFwdRemove:
		return &FwdRemove{RO: d.TxnID()}, d.err
	case MsgExtCommit:
		return &ExtCommit{Txn: d.TxnID()}, d.err
	case MsgFreeze:
		return &Freeze{Txn: d.TxnID(), VC: d.VC(), Know: d.VC()}, d.err
	case MsgFreezeAck:
		return &FreezeAck{}, d.err
	case MsgPurge:
		return &Purge{Txn: d.TxnID()}, d.err
	case MsgWaitExternal:
		return &WaitExternal{Txn: d.TxnID()}, d.err
	case MsgWaitExternalAck:
		return &WaitExternalAck{Txn: d.TxnID(), VC: d.VC()}, d.err
	case MsgWalterPropagate:
		m := &WalterPropagate{}
		m.Txn = d.TxnID()
		m.VC = d.VC()
		m.Writes = d.KVs()
		return m, d.err
	case MsgRococoDispatch:
		m := &RococoDispatch{}
		m.Txn = d.TxnID()
		m.ReadKeys = d.Strs()
		m.Writes = d.KVs()
		return m, d.err
	case MsgRococoDispatchReply:
		m := &RococoDispatchReply{}
		m.Txn = d.TxnID()
		m.Seq = d.Uvarint()
		m.Deps = d.TxnIDs()
		if n := d.Count(); n > 0 {
			m.Versions = make([]uint64, n)
			for i := range m.Versions {
				m.Versions[i] = d.Uvarint()
			}
		}
		if n := d.Count(); n > 0 {
			m.Vals = make([][]byte, n)
			for i := range m.Vals {
				m.Vals[i] = d.Bytes()
			}
		}
		m.Exists = d.bools()
		return m, d.err
	case MsgRococoCommit:
		m := &RococoCommit{}
		m.Txn = d.TxnID()
		m.Seq = d.Uvarint()
		return m, d.err
	case MsgRococoCommitReply:
		m := &RococoCommitReply{}
		m.Txn = d.TxnID()
		if n := d.Count(); n > 0 {
			m.Vals = make([][]byte, n)
			for i := range m.Vals {
				m.Vals[i] = d.Bytes()
			}
		}
		return m, d.err
	case MsgTxnStatus:
		return &TxnStatus{Txn: d.TxnID()}, d.err
	case MsgTxnStatusReply:
		return &TxnStatusReply{Txn: d.TxnID(), Known: d.Bool(), Commit: d.Bool(),
			VC: d.VC(), FreezeVC: d.VC(), Know: d.VC()}, d.err
	case MsgClockSync:
		return &ClockSync{}, d.err
	case MsgClockSyncReply:
		return &ClockSyncReply{Ext: d.VC()}, d.err
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", t)
	}
}

// --- append helpers, shared with the WAL and the client protocol ---

// AppendBool appends b as one byte, 1 or 0.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendBools(buf []byte, bs []bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(bs)))
	for _, b := range bs {
		buf = AppendBool(buf, b)
	}
	return buf
}

// AppendString appends s behind its uvarint length.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendStrings appends the count of ss, then each string.
func AppendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = AppendString(buf, s)
	}
	return buf
}

// AppendBytes appends b behind its uvarint length.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendTxnID appends t as two uvarints, node then sequence.
func AppendTxnID(buf []byte, t TxnID) []byte {
	buf = binary.AppendUvarint(buf, uint64(t.Node))
	return binary.AppendUvarint(buf, t.Seq)
}

// AppendTxnIDs appends the count of ts, then each id.
func AppendTxnIDs(buf []byte, ts []TxnID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ts)))
	for _, t := range ts {
		buf = AppendTxnID(buf, t)
	}
	return buf
}

func appendSQEntries(buf []byte, es []SQEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	for _, e := range es {
		buf = AppendTxnID(buf, e.Txn)
		buf = binary.AppendUvarint(buf, e.SID)
		buf = append(buf, byte(e.Kind))
	}
	return buf
}

func appendExWriters(buf []byte, es []ExWriter) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	for _, e := range es {
		buf = AppendTxnID(buf, e.Txn)
		buf = e.VC.AppendBinary(buf)
	}
	return buf
}

// AppendKVs appends the count of kvs, then each key and value.
func AppendKVs(buf []byte, kvs []KV) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(kvs)))
	for _, kv := range kvs {
		buf = AppendString(buf, kv.Key)
		buf = AppendBytes(buf, kv.Val)
	}
	return buf
}

// --- decoder ---

// maxCount bounds a decoded element count, whatever the bytes left: a
// corrupt count that survived a checksum must fail, never size an
// allocation.
const maxCount = 1 << 22

// Decoder reads what the Append helpers write. It keeps the first error:
// every read after a failure returns a zero value, so a decode path stays
// linear and checks Err once at its end. Decoded strings and byte slices
// are copies; none retains the buffer.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder reading buf from its start.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Rest returns the bytes not read yet.
func (d *Decoder) Rest() []byte { return d.buf[d.off:] }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated %s at offset %d", what, d.off)
	}
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool reads one byte; any nonzero value is true.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Uvarint reads one uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return x
}

// Count reads an element count. Every element takes at least one byte, so a
// count beyond the bytes left is corrupt, as is one above maxCount: either
// fails before the caller allocates for it.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if d.err == nil && (n > uint64(len(d.buf)-d.off) || n > maxCount) {
		d.err = fmt.Errorf("wire: implausible count %d at offset %d", n, d.off)
		return 0
	}
	return int(n)
}

// span reads a length and returns that many bytes of the buffer. The length
// is compared in uint64 space, so a value near 2^64 cannot overflow the
// bound.
func (d *Decoder) span(what string) []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.span("string")) }

// Bytes reads a length-prefixed byte slice; an empty one decodes to nil.
func (d *Decoder) Bytes() []byte {
	s := d.span("bytes")
	if len(s) == 0 {
		return nil
	}
	b := make([]byte, len(s))
	copy(b, s)
	return b
}

func (d *Decoder) bools() []bool {
	n := d.Count()
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.Bool()
	}
	return out
}

// Strs reads a counted list of strings; an empty one decodes to nil.
func (d *Decoder) Strs() []string {
	n := d.Count()
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// TxnID reads a transaction id.
func (d *Decoder) TxnID() TxnID {
	return TxnID{Node: NodeID(d.Uvarint()), Seq: d.Uvarint()}
}

// TxnIDs reads a counted list of transaction ids; an empty one decodes to
// nil.
func (d *Decoder) TxnIDs() []TxnID {
	n := d.Count()
	if n == 0 {
		return nil
	}
	out := make([]TxnID, n)
	for i := range out {
		out[i] = d.TxnID()
	}
	return out
}

// VC reads a vector clock; an empty one decodes to nil, so a nil clock
// round-trips to nil.
func (d *Decoder) VC() vclock.VC {
	if d.err != nil {
		return nil
	}
	v, n, err := vclock.DecodeFrom(d.buf[d.off:])
	if err != nil {
		d.err = err
		return nil
	}
	d.off += n
	if len(v) == 0 {
		return nil
	}
	return v
}

func (d *Decoder) sqEntries() []SQEntry {
	n := d.Count()
	if n == 0 {
		return nil
	}
	out := make([]SQEntry, n)
	for i := range out {
		out[i] = SQEntry{Txn: d.TxnID(), SID: d.Uvarint(), Kind: EntryKind(d.Byte())}
	}
	return out
}

func (d *Decoder) exWriters() []ExWriter {
	n := d.Count()
	if n == 0 {
		return nil
	}
	out := make([]ExWriter, n)
	for i := range out {
		out[i] = ExWriter{Txn: d.TxnID(), VC: d.VC()}
	}
	return out
}

// KVs reads a counted list of key-value pairs; an empty one decodes to nil.
func (d *Decoder) KVs() []KV {
	n := d.Count()
	if n == 0 {
		return nil
	}
	out := make([]KV, n)
	for i := range out {
		out[i] = KV{Key: d.Str(), Val: d.Bytes()}
	}
	return out
}
