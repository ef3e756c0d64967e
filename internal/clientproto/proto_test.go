package clientproto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

func randomRequest(rng *rand.Rand) Request {
	ops := []Op{OpBegin, OpRead, OpCommit, OpAbort, OpPing, OpSnapshotRead}
	req := Request{Op: ops[rng.Intn(len(ops))], ReqID: rng.Uint64() >> uint(rng.Intn(64))}
	switch req.Op {
	case OpBegin:
		req.ReadOnly = rng.Intn(2) == 0
	case OpRead:
		req.Txn = rng.Uint64() >> uint(rng.Intn(64))
		req.Keys = randKeys(rng)
		req.Writes = randWrites(rng)
	case OpCommit:
		req.Txn = rng.Uint64() >> uint(rng.Intn(64))
		req.Writes = randWrites(rng)
	case OpAbort:
		req.Txn = rng.Uint64() >> uint(rng.Intn(64))
	case OpSnapshotRead:
		req.Keys = randKeys(rng)
	}
	return req
}

// randKeys and randWrites return nil for an empty list: a zero count
// decodes to a nil slice, and DeepEqual tells nil from empty.
func randKeys(rng *rand.Rand) []string {
	n := rng.Intn(9)
	if n == 0 {
		return nil
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = randString(rng, rng.Intn(48))
	}
	return keys
}

func randWrites(rng *rand.Rand) []wire.KV {
	n := rng.Intn(4)
	if n == 0 {
		return nil
	}
	writes := make([]wire.KV, n)
	for i := range writes {
		writes[i] = wire.KV{Key: randString(rng, rng.Intn(64)), Val: randBytes(rng, rng.Intn(1024))}
	}
	return writes
}

func randomReply(rng *rand.Rand) Reply {
	kinds := []ReplyKind{ReplyOK, ReplyErr, ReplyValues}
	rep := Reply{Kind: kinds[rng.Intn(len(kinds))], ReqID: rng.Uint64() >> uint(rng.Intn(64))}
	switch rep.Kind {
	case ReplyOK:
		rep.Txn = rng.Uint64() >> uint(rng.Intn(64))
	case ReplyErr:
		rep.Code = ErrCode(rng.Intn(int(CodeInternal)) + 1)
		rep.Msg = randString(rng, rng.Intn(128))
	case ReplyValues:
		if n := rng.Intn(9); n > 0 {
			rep.Vals = make([]kv.ReadResult, n)
			for i := range rep.Vals {
				rep.Vals[i].Exists = rng.Intn(2) == 0
				rep.Vals[i].Val = randBytes(rng, rng.Intn(256))
			}
		}
	}
	return rep
}

func randString(rng *rand.Rand, n int) string {
	return string(randBytes(rng, n))
}

func randBytes(rng *rand.Rand, n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		in := randomRequest(rng)
		buf := AppendRequest(nil, &in)
		out, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		in := randomReply(rng)
		buf := AppendReply(nil, &in)
		out, err := DecodeReply(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
		}
	}
}

// TestFramedRoundTrip pushes a pipelined stream of framed requests and
// replies through one buffer and decodes them in order.
func TestFramedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var reqs []Request
	var reps []Reply
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for i := 0; i < 200; i++ {
		req := randomRequest(rng)
		rep := randomReply(rng)
		reqs = append(reqs, req)
		reps = append(reps, rep)
		if err := WriteRequest(w, &req); err != nil {
			t.Fatal(err)
		}
		if err := WriteReply(w, &rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	for i := range reqs {
		req, err := ReadRequest(r)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(req, reqs[i]) {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, req, reqs[i])
		}
		rep, err := ReadReply(r)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if !reflect.DeepEqual(rep, reps[i]) {
			t.Fatalf("reply %d mismatch: %+v vs %+v", i, rep, reps[i])
		}
	}
}

// TestDecodeTruncation checks every proper prefix of valid encodings fails
// cleanly instead of panicking or succeeding.
func TestDecodeTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		req := randomRequest(rng)
		buf := AppendRequest(nil, &req)
		for cut := 0; cut < len(buf); cut++ {
			if _, err := DecodeRequest(buf[:cut]); err == nil {
				// A prefix may itself be a valid shorter encoding only if
				// it decodes to something different — but our encodings are
				// self-delimiting, so any true prefix must error.
				t.Fatalf("truncated request decode succeeded at %d/%d (%+v)", cut, len(buf), req)
			}
		}
		rep := randomReply(rng)
		buf = AppendReply(nil, &rep)
		for cut := 0; cut < len(buf); cut++ {
			if _, err := DecodeReply(buf[:cut]); err == nil {
				t.Fatalf("truncated reply decode succeeded at %d/%d (%+v)", cut, len(buf), rep)
			}
		}
	}
}

// TestDecodeGarbage feeds random bytes to the decoders: they must reject or
// accept without panicking, and anything accepted must round-trip stably
// through re-encode (uvarints admit non-minimal encodings, so only the
// decoded structure — not the raw bytes — is required to be canonical).
func TestDecodeGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		buf := randBytes(rng, rng.Intn(64)+1)
		if req, err := DecodeRequest(buf); err == nil {
			re, err := DecodeRequest(AppendRequest(nil, &req))
			if err != nil || !reflect.DeepEqual(req, re) {
				t.Fatalf("accepted garbage unstable: % x -> %+v -> %+v (%v)", buf, req, re, err)
			}
		}
		if rep, err := DecodeReply(buf); err == nil {
			re, err := DecodeReply(AppendReply(nil, &rep))
			if err != nil || !reflect.DeepEqual(rep, re) {
				t.Fatalf("accepted garbage reply unstable: % x -> %+v -> %+v (%v)", buf, rep, re, err)
			}
		}
	}
}

// TestSnapshotReadKeyBound rejects snapshot-read and read frames whose
// declared key count exceeds MaxKeys — before allocating the slice — and
// accepts exactly MaxKeys.
func TestSnapshotReadKeyBound(t *testing.T) {
	for _, op := range []Op{OpSnapshotRead, OpRead} {
		// Hand-build a request header declaring MaxKeys+1 keys.
		buf := []byte{byte(op)}
		buf = binary.AppendUvarint(buf, 7) // ReqID
		if op == OpRead {
			buf = binary.AppendUvarint(buf, 3) // Txn
		}
		buf = binary.AppendUvarint(buf, MaxKeys+1)
		if _, err := DecodeRequest(buf); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("oversized %v accepted: %v", op, err)
		}

		// Exactly at the bound round-trips.
		req := Request{Op: op, ReqID: 9, Keys: make([]string, MaxKeys)}
		for i := range req.Keys {
			req.Keys[i] = "k"
		}
		out, err := DecodeRequest(AppendRequest(nil, &req))
		if err != nil || len(out.Keys) != MaxKeys {
			t.Fatalf("at-bound %v: %d keys, %v", op, len(out.Keys), err)
		}
	}

	// Same for a reply declaring too many values.
	buf := []byte{byte(ReplyValues)}
	buf = binary.AppendUvarint(buf, 7)
	buf = binary.AppendUvarint(buf, MaxKeys+1)
	if _, err := DecodeReply(buf); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized reply accepted: %v", err)
	}
	rep := Reply{Kind: ReplyValues, ReqID: 9, Vals: make([]kv.ReadResult, MaxKeys)}
	outRep, err := DecodeReply(AppendReply(nil, &rep))
	if err != nil || len(outRep.Vals) != MaxKeys {
		t.Fatalf("at-bound reply: %d vals, %v", len(outRep.Vals), err)
	}
}

// TestRetiredTagsDoNotDecode: the single-key read and single-write request
// tags and the one-value reply tag of older builds are unknown, so an old
// client's frame fails to decode instead of decoding as something else.
func TestRetiredTagsDoNotDecode(t *testing.T) {
	for _, raw := range []string{
		"0202ac02036b6579",   // a single-key read: op 2, reqID 2, txn 300, "key"
		"030307016b030001ff", // a single write: op 3, reqID 3, txn 7, "k" = 00 01 ff
	} {
		buf, _ := hex.DecodeString(raw)
		if _, err := DecodeRequest(buf); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Errorf("retired request %s decoded: %v", raw, err)
		}
	}
	buf, _ := hex.DecodeString("0202010576616c7565") // a one-value reply: kind 2
	if _, err := DecodeReply(buf); err == nil || !strings.Contains(err.Error(), "unknown reply kind") {
		t.Errorf("retired reply decoded: %v", err)
	}
}

// TestReadFrameLimit rejects frames above MaxFrame without allocating them.
func TestReadFrameLimit(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	// Header declaring a huge frame with no body.
	hdr := make([]byte, 0, 16)
	hdr = appendUvarintForTest(hdr, MaxFrame+1)
	if _, err := w.Write(hdr); err != nil {
		t.Fatal(err)
	}
	_ = w.Flush()
	if _, err := ReadRequest(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func appendUvarintForTest(buf []byte, x uint64) []byte {
	for x >= 0x80 {
		buf = append(buf, byte(x)|0x80)
		x >>= 7
	}
	return append(buf, byte(x))
}

// TestFitValues pins the reply bound: values fit while their encoded frame
// stays within MaxFrame, and the prefix that fits encodes within it.
func TestFitValues(t *testing.T) {
	big := kv.ReadResult{Val: make([]byte, 9<<20), Exists: true}
	for _, tc := range []struct {
		vals []kv.ReadResult
		want int
	}{
		{nil, 0},
		{[]kv.ReadResult{{}, {Exists: true, Val: []byte("v")}}, 2},
		{[]kv.ReadResult{big}, 1},
		{[]kv.ReadResult{big, big, big}, 1},
		{[]kv.ReadResult{{Val: make([]byte, MaxFrame)}}, 0},
	} {
		n := FitValues(tc.vals)
		if n != tc.want {
			t.Fatalf("FitValues of %d values: %d, want %d", len(tc.vals), n, tc.want)
		}
		body := AppendReply(nil, &Reply{Kind: ReplyValues, ReqID: ^uint64(0), Vals: tc.vals[:n]})
		if len(body) > MaxFrame {
			t.Fatalf("the %d values that fit encode to %d bytes", n, len(body))
		}
	}
}
