// Package clientproto defines the binary client-facing protocol of
// sss-server and its session-manager implementation.
//
// Unlike internal/wire — the inter-node vocabulary of the replication
// protocol — clientproto frames the five transactional verbs a client
// program needs (Begin, Read, Write, Commit, Abort, plus Ping for health
// probes) over a single multiplexed TCP connection. Frames are
// length-prefixed; bodies are written with internal/wire's append helpers,
// read with its Decoder and framed in by its ReadFrame, on the same pooled
// buffers as the node-to-node transport, so the steady-state encode/decode
// path allocates nothing beyond the decoded payloads.
//
// Framing (all integers uvarint, strings/bytes length-prefixed):
//
//	frame   := len(uvarint) body
//	request := op(1) reqID txn ...op-specific
//	reply   := kind(1) reqID ...kind-specific
//
// Every request carries a client-chosen request ID; replies echo it, so a
// client may pipeline arbitrarily many requests on one connection and match
// replies out of order. Transaction handles are allocated by the server on
// Begin and are scoped to the connection: when the connection drops, the
// server aborts every transaction still open on it.
package clientproto

import (
	"bufio"
	"encoding/binary"
	"fmt"

	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// MaxFrame bounds a single client-protocol frame; larger frames indicate a
// corrupt or hostile peer and close the connection.
const MaxFrame = 16 << 20

// Op tags a client request.
type Op uint8

// Request operations.
const (
	OpBegin Op = iota + 1
	OpRead
	OpWrite
	OpCommit
	OpAbort
	// OpPing is a no-op round trip: the readiness/health probe used by the
	// harness and client keep-alive checks.
	OpPing
	// OpSnapshotRead runs one complete read-only transaction server-side —
	// begin, read every key in Keys, finish — and answers with ReplyValues
	// carrying all results. It is the one-round form of the paper's
	// abort-free read-only transaction: the client pays a single round trip
	// where the interactive form pays 2+N (begin + each read + commit).
	OpSnapshotRead
)

// MaxSnapshotKeys bounds the keys of one SnapshotRead request; beyond it
// the server answers CodeBadRequest (a snapshot that large should be an
// interactive read-only transaction).
const MaxSnapshotKeys = 4096

// String names the op for error messages.
func (o Op) String() string {
	switch o {
	case OpBegin:
		return "BEGIN"
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpCommit:
		return "COMMIT"
	case OpAbort:
		return "ABORT"
	case OpPing:
		return "PING"
	case OpSnapshotRead:
		return "SNAPSHOT_READ"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// ReplyKind tags a server reply.
type ReplyKind uint8

// Reply kinds.
const (
	// ReplyOK acknowledges Begin (carrying the new handle), Write, Commit,
	// Abort and Ping.
	ReplyOK ReplyKind = iota + 1
	// ReplyValue answers a Read: Exists + Val.
	ReplyValue
	// ReplyErr reports a typed failure for the request it echoes.
	ReplyErr
	// ReplyValues answers a SnapshotRead: one result per requested key, in
	// request order.
	ReplyValues
)

// ErrCode is the typed error vocabulary of ReplyErr. The client package
// maps these back onto the kv sentinel errors.
type ErrCode uint8

// Error codes.
const (
	CodeAborted ErrCode = iota + 1 // kv.ErrAborted: validation/lock conflict
	CodeReadOnlyWrite
	CodeTxnDone
	CodeUnavailable
	CodeUnknownTxn // handle not open on this connection
	CodeBadRequest // malformed or out-of-contract request
	CodeInternal   // engine error outside the kv vocabulary
)

// String names the code.
func (c ErrCode) String() string {
	switch c {
	case CodeAborted:
		return "aborted"
	case CodeReadOnlyWrite:
		return "read-only-write"
	case CodeTxnDone:
		return "txn-done"
	case CodeUnavailable:
		return "unavailable"
	case CodeUnknownTxn:
		return "unknown-txn"
	case CodeBadRequest:
		return "bad-request"
	case CodeInternal:
		return "internal"
	default:
		return fmt.Sprintf("code(%d)", uint8(c))
	}
}

// Request is one client frame. Fields beyond Op/ReqID are op-specific:
// Begin uses ReadOnly; Read/Write/Commit/Abort use Txn; Read and Write use
// Key; Write uses Val; SnapshotRead uses Keys.
type Request struct {
	Op       Op
	ReqID    uint64
	Txn      uint64
	ReadOnly bool
	Key      string
	Val      []byte
	Keys     []string
}

// Reply is one server frame, echoing the request's ReqID.
type Reply struct {
	Kind  ReplyKind
	ReqID uint64
	// Txn carries the new handle on a Begin ack.
	Txn uint64
	// Exists/Val answer a Read.
	Exists bool
	Val    []byte
	// Code/Msg describe a ReplyErr.
	Code ErrCode
	Msg  string
	// Vals answers a SnapshotRead, positionally aligned with Request.Keys.
	Vals []kv.ReadResult
}

// AppendRequest appends the body encoding of req to buf.
func AppendRequest(buf []byte, req *Request) []byte {
	buf = append(buf, byte(req.Op))
	buf = binary.AppendUvarint(buf, req.ReqID)
	switch req.Op {
	case OpBegin:
		buf = wire.AppendBool(buf, req.ReadOnly)
	case OpRead:
		buf = binary.AppendUvarint(buf, req.Txn)
		buf = wire.AppendString(buf, req.Key)
	case OpWrite:
		buf = binary.AppendUvarint(buf, req.Txn)
		buf = wire.AppendString(buf, req.Key)
		buf = wire.AppendBytes(buf, req.Val)
	case OpCommit, OpAbort:
		buf = binary.AppendUvarint(buf, req.Txn)
	case OpPing:
	case OpSnapshotRead:
		buf = wire.AppendStrings(buf, req.Keys)
	}
	return buf
}

// DecodeRequest parses one request body. The returned request does not
// retain buf.
func DecodeRequest(buf []byte) (Request, error) {
	d := wire.NewDecoder(buf)
	req := Request{Op: Op(d.Byte()), ReqID: d.Uvarint()}
	switch req.Op {
	case OpBegin:
		req.ReadOnly = d.Bool()
	case OpRead:
		req.Txn = d.Uvarint()
		req.Key = d.Str()
	case OpWrite:
		req.Txn = d.Uvarint()
		req.Key = d.Str()
		req.Val = d.Bytes()
	case OpCommit, OpAbort:
		req.Txn = d.Uvarint()
	case OpPing:
	case OpSnapshotRead:
		n := d.Uvarint()
		// The count bound keeps a hostile frame from forcing a huge
		// allocation before the per-key checks run.
		if n > MaxSnapshotKeys {
			return Request{}, fmt.Errorf("clientproto: snapshot-read of %d keys exceeds limit %d", n, MaxSnapshotKeys)
		}
		if n > 0 {
			req.Keys = make([]string, n)
			for i := range req.Keys {
				req.Keys[i] = d.Str()
			}
		}
	default:
		return Request{}, fmt.Errorf("clientproto: unknown op %d", uint8(req.Op))
	}
	if err := d.Err(); err != nil {
		return Request{}, fmt.Errorf("clientproto: %w", err)
	}
	if rest := len(d.Rest()); rest != 0 {
		return Request{}, fmt.Errorf("clientproto: %d trailing bytes after %v", rest, req.Op)
	}
	return req, nil
}

// AppendReply appends the body encoding of rep to buf.
func AppendReply(buf []byte, rep *Reply) []byte {
	buf = append(buf, byte(rep.Kind))
	buf = binary.AppendUvarint(buf, rep.ReqID)
	switch rep.Kind {
	case ReplyOK:
		buf = binary.AppendUvarint(buf, rep.Txn)
	case ReplyValue:
		buf = wire.AppendBool(buf, rep.Exists)
		buf = wire.AppendBytes(buf, rep.Val)
	case ReplyErr:
		buf = append(buf, byte(rep.Code))
		buf = wire.AppendString(buf, rep.Msg)
	case ReplyValues:
		buf = binary.AppendUvarint(buf, uint64(len(rep.Vals)))
		for _, v := range rep.Vals {
			buf = wire.AppendBool(buf, v.Exists)
			buf = wire.AppendBytes(buf, v.Val)
		}
	}
	return buf
}

// DecodeReply parses one reply body. The returned reply does not retain buf.
func DecodeReply(buf []byte) (Reply, error) {
	d := wire.NewDecoder(buf)
	rep := Reply{Kind: ReplyKind(d.Byte()), ReqID: d.Uvarint()}
	switch rep.Kind {
	case ReplyOK:
		rep.Txn = d.Uvarint()
	case ReplyValue:
		rep.Exists = d.Bool()
		rep.Val = d.Bytes()
	case ReplyErr:
		rep.Code = ErrCode(d.Byte())
		rep.Msg = d.Str()
	case ReplyValues:
		n := d.Uvarint()
		if n > MaxSnapshotKeys {
			return Reply{}, fmt.Errorf("clientproto: snapshot-read reply of %d values exceeds limit %d", n, MaxSnapshotKeys)
		}
		if n > 0 {
			rep.Vals = make([]kv.ReadResult, n)
			for i := range rep.Vals {
				rep.Vals[i].Exists = d.Bool()
				rep.Vals[i].Val = d.Bytes()
			}
		}
	default:
		return Reply{}, fmt.Errorf("clientproto: unknown reply kind %d", uint8(rep.Kind))
	}
	if err := d.Err(); err != nil {
		return Reply{}, fmt.Errorf("clientproto: %w", err)
	}
	if rest := len(d.Rest()); rest != 0 {
		return Reply{}, fmt.Errorf("clientproto: %d trailing bytes after reply", rest)
	}
	return rep, nil
}

// WriteRequest frames and writes req to w (not flushed). The encode buffer
// is pooled; steady-state writes allocate nothing.
func WriteRequest(w *bufio.Writer, req *Request) error {
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	*bp = AppendRequest(*bp, req)
	return writeFrame(w, *bp)
}

// WriteReply frames and writes rep to w (not flushed).
func WriteReply(w *bufio.Writer, rep *Reply) error {
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	*bp = AppendReply(*bp, rep)
	return writeFrame(w, *bp)
}

// writeFrame writes body behind its uvarint length. The header is built in
// the writer's own spare buffer, so it does not escape to the heap.
func writeFrame(w *bufio.Writer, body []byte) error {
	hdr := binary.AppendUvarint(w.AvailableBuffer(), uint64(len(body)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadRequest reads one framed request from r.
func ReadRequest(r *bufio.Reader) (Request, error) {
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	if err := wire.ReadFrame(r, bp, MaxFrame); err != nil {
		return Request{}, err
	}
	return DecodeRequest(*bp)
}

// ReadReply reads one framed reply from r.
func ReadReply(r *bufio.Reader) (Reply, error) {
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	if err := wire.ReadFrame(r, bp, MaxFrame); err != nil {
		return Reply{}, err
	}
	return DecodeReply(*bp)
}
