package clientproto

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// goldenRequests and goldenReplies pin the client protocol's bytes: every
// Op and ReplyKind, with and without its optional lists, next to the body
// each encodes to. Deployed clients and servers speak exactly these bytes.
var goldenRequests = []struct {
	req Request
	hex string
}{
	{Request{Op: OpBegin, ReqID: 1, ReadOnly: true}, "010101"},
	{Request{Op: OpRead, ReqID: 2, Txn: 300, Keys: []string{"key"}}, "0802ac0201036b657900"},
	{Request{Op: OpRead, ReqID: 3, Txn: 7, Keys: []string{"a", "b"},
		Writes: []wire.KV{{Key: "k", Val: []byte{0, 1, 0xff}}}}, "080307020161016201016b030001ff"},
	{Request{Op: OpRead, ReqID: 3, Txn: 7, Writes: []wire.KV{{Key: "k"}, {Key: "j", Val: []byte("v")}}},
		"0803070002016b00016a0176"},
	{Request{Op: OpCommit, ReqID: 1 << 35, Txn: 8}, "048080808080010800"},
	{Request{Op: OpCommit, ReqID: 4, Txn: 8, Writes: []wire.KV{{Key: "k", Val: []byte("v")}}}, "04040801016b0176"},
	{Request{Op: OpAbort, ReqID: 5, Txn: 9}, "050509"},
	{Request{Op: OpPing, ReqID: 6}, "0606"},
	{Request{Op: OpSnapshotRead, ReqID: 7, Keys: []string{"a", "", "ccc"}}, "07070301610003636363"},
}

var goldenReplies = []struct {
	rep Reply
	hex string
}{
	{Reply{Kind: ReplyOK, ReqID: 1, Txn: 129}, "01018101"},
	{Reply{Kind: ReplyErr, ReqID: 3, Code: CodeUnknownTxn, Msg: "no such txn"}, "0303050b6e6f20737563682074786e"},
	{Reply{Kind: ReplyValues, ReqID: 4, Vals: []kv.ReadResult{
		{Exists: true, Val: []byte("x")}, {}, {Exists: true}}}, "04040301017800000100"},
	{Reply{Kind: ReplyValues, ReqID: 5}, "040500"},
}

func TestGoldenEncodings(t *testing.T) {
	for _, g := range goldenRequests {
		got := hex.EncodeToString(AppendRequest(nil, &g.req))
		if got != g.hex {
			t.Errorf("%v: body\n got  %s\n want %s", g.req.Op, got, g.hex)
			continue
		}
		raw, _ := hex.DecodeString(g.hex)
		req, err := DecodeRequest(raw)
		if err != nil || !reflect.DeepEqual(req, g.req) {
			t.Errorf("%v: decode: %+v, %v; want %+v", g.req.Op, req, err, g.req)
		}
	}
	for _, g := range goldenReplies {
		got := hex.EncodeToString(AppendReply(nil, &g.rep))
		if got != g.hex {
			t.Errorf("reply kind %d: body\n got  %s\n want %s", g.rep.Kind, got, g.hex)
			continue
		}
		raw, _ := hex.DecodeString(g.hex)
		rep, err := DecodeReply(raw)
		if err != nil || !reflect.DeepEqual(rep, g.rep) {
			t.Errorf("reply kind %d: decode: %+v, %v; want %+v", g.rep.Kind, rep, err, g.rep)
		}
	}
}

// FuzzDecodeRequest feeds the request decoder arbitrary bytes: it must
// never panic, and whatever it accepts must re-encode to a body that
// decodes to the same request.
func FuzzDecodeRequest(f *testing.F) {
	for _, g := range goldenRequests {
		raw, _ := hex.DecodeString(g.hex)
		f.Add(raw)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 16; i++ {
		req := randomRequest(rng)
		f.Add(AppendRequest(nil, &req))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		again, err := DecodeRequest(AppendRequest(nil, &req))
		if err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("re-decode: %v\n got  %+v\n want %+v", err, again, req)
		}
	})
}

// FuzzDecodeReply is FuzzDecodeRequest for replies.
func FuzzDecodeReply(f *testing.F) {
	for _, g := range goldenReplies {
		raw, _ := hex.DecodeString(g.hex)
		f.Add(raw)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		rep := randomReply(rng)
		f.Add(AppendReply(nil, &rep))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReply(data)
		if err != nil {
			return
		}
		again, err := DecodeReply(AppendReply(nil, &rep))
		if err != nil || !reflect.DeepEqual(again, rep) {
			t.Fatalf("re-decode: %v\n got  %+v\n want %+v", err, again, rep)
		}
	})
}

// BenchmarkCodecRoundTrip frames a one-key Read carrying one write and the
// one-value reply that answers it, each through the pooled writer and the
// frame reader: the codec work one request and one reply cost a connection.
func BenchmarkCodecRoundTrip(b *testing.B) {
	val := bytes.Repeat([]byte{'v'}, 100)
	req := Request{Op: OpRead, ReqID: 1 << 20, Txn: 1 << 10, Keys: []string{"key-000042"},
		Writes: []wire.KV{{Key: "key-000042", Val: val}}}
	rep := Reply{Kind: ReplyValues, ReqID: 1 << 20, Vals: []kv.ReadResult{{Exists: true, Val: val}}}
	var stream bytes.Buffer
	w := bufio.NewWriter(&stream)
	r := bufio.NewReader(&stream)
	b.ReportAllocs()
	for b.Loop() {
		if err := WriteRequest(w, &req); err != nil {
			b.Fatal(err)
		}
		if err := WriteReply(w, &rep); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadRequest(r); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadReply(r); err != nil {
			b.Fatal(err)
		}
	}
}
