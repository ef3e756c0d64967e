package wire

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/sss-paper/sss/internal/vclock"
)

func roundTrip(t *testing.T, env Envelope) Envelope {
	t.Helper()
	buf, err := EncodeEnvelope(nil, env)
	if err != nil {
		t.Fatalf("encode %T: %v", env.Msg, err)
	}
	got, err := DecodeEnvelope(buf)
	if err != nil {
		t.Fatalf("decode %T: %v", env.Msg, err)
	}
	return got
}

func TestRoundTripAllMessageTypes(t *testing.T) {
	vc := vclock.VC{3, 7, 1}
	envs := []Envelope{
		{From: 1, RID: 42, Msg: &ReadRequest{
			Txn: TxnID{1, 9}, Key: "k1", VC: vc, HasRead: []bool{true, false, true},
		}},
		{From: 2, RID: 42, Resp: true, Msg: &ReadReturn{
			Val: []byte("v"), Exists: true, Writer: TxnID{2, 3}, VC: vc,
		}},
		{From: 1, RID: 43, Msg: &UpdateRead{Keys: []string{"k1", "", "k3"}}},
		{From: 2, RID: 43, Resp: true, Msg: &UpdateReadReply{Results: []UpdateResult{
			{Val: []byte("v"), Exists: true, Writer: TxnID{2, 3}, VC: vc,
				Propagated:    []SQEntry{{Txn: TxnID{0, 5}, SID: 7, Kind: EntryRead}},
				PendingWriter: TxnID{2, 3}, VerDeps: []TxnID{{1, 1}}},
			{},
			{Exists: true, VC: vc},
		}}},
		{From: 2, RID: 44, Resp: true, Msg: &UpdateReadReply{}},
		{From: 0, RID: 7, Msg: &Prepare{
			Txn: TxnID{0, 1}, VC: vc, ReadKeys: []string{"a", "b"},
			Writes: []KV{{Key: "c", Val: []byte("x")}, {Key: "d", Val: nil}},
		}},
		{From: 3, RID: 7, Resp: true, Msg: &Vote{Txn: TxnID{0, 1}, VC: vc, OK: true}},
		{From: 0, RID: 8, Msg: &Decide{
			Txn: TxnID{0, 1}, VC: vc, Commit: true,
			Propagated: []SQEntry{{Txn: TxnID{1, 2}, SID: 3, Kind: EntryWrite}},
		}},
		{From: 0, RID: 8, Msg: &Decide{Txn: TxnID{0, 1}, VC: vc, Commit: true, Drain: true}},
		{From: 3, RID: 8, Resp: true, Msg: &DecideAck{Txn: TxnID{0, 1}}},
		{From: 1, Msg: &Remove{Txn: TxnID{1, 77}}},
		{From: 1, Msg: &FwdRemove{RO: TxnID{2, 5}}},
		{From: 0, RID: 11, Msg: &ExtCommit{Txn: TxnID{0, 1}}},
		// A nil clock round-trips to nil (DeepEqual tells nil from empty).
		{From: 0, RID: 14, Msg: &Freeze{Txn: TxnID{0, 2}}},
		{From: 0, RID: 14, Msg: &Freeze{Txn: TxnID{0, 1}, VC: vc}},
		{From: 0, RID: 14, Msg: &Freeze{Txn: TxnID{0, 3}, VC: vc, Know: vclock.VC{9, 9, 4}}},
		{From: 1, RID: 14, Resp: true, Msg: &FreezeAck{}},
		{From: 0, Msg: &Purge{Txn: TxnID{1, 4}}},
		{From: 2, RID: 13, Msg: &WaitExternal{Txn: TxnID{2, 9}}},
		{From: 0, RID: 13, Resp: true, Msg: &WaitExternalAck{Txn: TxnID{2, 9}}},
		{From: 0, RID: 13, Resp: true, Msg: &WaitExternalAck{Txn: TxnID{2, 9}, VC: vc}},
		{From: 2, Msg: &WalterPropagate{Txn: TxnID{2, 5}, VC: vc, Writes: []KV{{Key: "k", Val: []byte("v")}}}},
		{From: 0, RID: 9, Msg: &RococoDispatch{Txn: TxnID{0, 2}, ReadKeys: []string{"x"}, Writes: []KV{{Key: "y", Val: []byte("1")}}}},
		{From: 1, RID: 9, Resp: true, Msg: &RococoDispatchReply{
			Txn: TxnID{0, 2}, Seq: 11, Deps: []TxnID{{1, 1}, {2, 2}},
			Versions: []uint64{4, 5}, Vals: [][]byte{[]byte("a"), nil}, Exists: []bool{true, false},
		}},
		{From: 0, RID: 10, Msg: &RococoCommit{Txn: TxnID{0, 2}, Seq: 11}},
		{From: 1, RID: 10, Resp: true, Msg: &RococoCommitReply{Txn: TxnID{0, 2}, Vals: [][]byte{[]byte("z")}}},
		{From: 2, RID: 15, Msg: &TxnStatus{Txn: TxnID{1, 6}}},
		{From: 1, RID: 15, Resp: true, Msg: &TxnStatusReply{
			Txn: TxnID{1, 6}, Known: true, Commit: true, VC: vc, FreezeVC: vclock.VC{4, 8, 2},
			Know: vclock.VC{5, 9, 3},
		}},
		{From: 1, RID: 17, Resp: true, Msg: &TxnStatusReply{
			Txn: TxnID{1, 7}, Known: true, Commit: true, VC: vc, FreezeVC: vclock.VC{4, 8, 2},
		}},
		{From: 2, RID: 16, Msg: &ClockSync{}},
		{From: 0, RID: 16, Resp: true, Msg: &ClockSyncReply{Ext: vc}},
	}
	for _, env := range envs {
		got := roundTrip(t, env)
		if !reflect.DeepEqual(got, env) {
			t.Errorf("round trip %T:\n got  %+v\n want %+v", env.Msg, got, env)
		}
	}
}

func TestEncodeNilMessage(t *testing.T) {
	if _, err := EncodeEnvelope(nil, Envelope{}); err == nil {
		t.Fatal("EncodeEnvelope(nil msg) should fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	env := Envelope{From: 1, RID: 2, Msg: &Prepare{
		Txn: TxnID{1, 1}, VC: vclock.VC{1, 2}, ReadKeys: []string{"abc"},
		Writes: []KV{{Key: "k", Val: []byte("hello")}},
	}}
	buf, err := EncodeEnvelope(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeEnvelope(buf[:cut]); err == nil {
			t.Fatalf("DecodeEnvelope succeeded on %d/%d byte prefix", cut, len(buf))
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	buf, err := EncodeEnvelope(nil, Envelope{Msg: &Remove{Txn: TxnID{1, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(append(buf, 0xFF)); err == nil {
		t.Fatal("DecodeEnvelope should reject trailing bytes")
	}
}

func TestDecodeUnknownType(t *testing.T) {
	if _, err := DecodeEnvelope([]byte{0xEE, 0, 0, 0}); err == nil {
		t.Fatal("DecodeEnvelope should reject unknown message type")
	}
}

func TestTxnIDString(t *testing.T) {
	if got := (TxnID{Node: 3, Seq: 14}).String(); got != "N3.14" {
		t.Fatalf("String = %q", got)
	}
	if !(TxnID{}).IsZero() {
		t.Fatal("zero TxnID must be IsZero")
	}
	if (TxnID{1, 0}).IsZero() {
		t.Fatal("non-zero TxnID must not be IsZero")
	}
}

func TestEntryKindString(t *testing.T) {
	if EntryRead.String() != "R" || EntryWrite.String() != "W" || EntryKind(9).String() != "?" {
		t.Fatal("EntryKind.String mismatch")
	}
}

// Property: random ReadRequest envelopes survive a round trip.
func TestPropReadRequestRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		vc := vclock.New(n)
		hr := make([]bool, n)
		for i := range vc {
			vc[i] = uint64(r.Intn(100))
			hr[i] = r.Intn(2) == 0
		}
		key := make([]byte, r.Intn(20))
		r.Read(key)
		env := Envelope{
			From: NodeID(r.Intn(n)),
			RID:  uint64(r.Intn(1 << 30)),
			Msg: &ReadRequest{
				Txn: TxnID{NodeID(r.Intn(n)), uint64(r.Intn(1000))}, Key: string(key),
				VC: vc, HasRead: hr,
			},
		}
		buf, err := EncodeEnvelope(nil, env)
		if err != nil {
			return false
		}
		got, err := DecodeEnvelope(buf)
		if err != nil {
			return false
		}
		// HasRead of length 0 decodes as nil; normalize.
		if len(hr) == 0 {
			env.Msg.(*ReadRequest).HasRead = nil
		}
		return reflect.DeepEqual(got, env)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: random Prepare envelopes survive a round trip.
func TestPropPrepareRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		vc := vclock.New(n)
		for i := range vc {
			vc[i] = uint64(r.Intn(1 << 20))
		}
		m := &Prepare{Txn: TxnID{NodeID(r.Intn(n)), r.Uint64() % 1e6}, VC: vc}
		for i := 0; i < r.Intn(5); i++ {
			m.ReadKeys = append(m.ReadKeys, string(rune('a'+r.Intn(26))))
		}
		for i := 0; i < r.Intn(5); i++ {
			val := make([]byte, r.Intn(32))
			r.Read(val)
			if len(val) == 0 {
				val = nil
			}
			m.Writes = append(m.Writes, KV{Key: string(rune('a' + r.Intn(26))), Val: val})
		}
		env := Envelope{From: NodeID(r.Intn(n)), RID: r.Uint64() % 1e9, Msg: m}
		buf, err := EncodeEnvelope(nil, env)
		if err != nil {
			return false
		}
		got, err := DecodeEnvelope(buf)
		return err == nil && reflect.DeepEqual(got, env)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeEnvelope feeds the decoder arbitrary bytes: it must never panic,
// and whatever it accepts must survive re-encoding unchanged. The seeds cover
// the optional clocks — Freeze.VC and Freeze.Know, WaitExternalAck.VC,
// TxnStatusReply.Know — set and nil, and the bodyless FreezeAck.
func FuzzDecodeEnvelope(f *testing.F) {
	vc := vclock.VC{3, 7, 1}
	for _, msg := range []Msg{
		&Freeze{Txn: TxnID{0, 1}, VC: vc, Know: vclock.VC{9, 9, 4}},
		&WaitExternalAck{Txn: TxnID{2, 9}, VC: vc},
		&WaitExternalAck{Txn: TxnID{2, 9}},
		&TxnStatusReply{Txn: TxnID{1, 6}, Known: true, Commit: true, VC: vc, FreezeVC: vc, Know: vclock.VC{9, 9, 4}},
		&TxnStatusReply{Txn: TxnID{1, 6}, Known: true, Commit: true, VC: vc},
		&ReadRequest{Txn: TxnID{1, 9}, Key: "k", VC: vc, Before: []ExWriter{{Txn: TxnID{0, 1}}, {Txn: TxnID{0, 2}, VC: vclock.VC{0, 8, 0}}}},
		&Freeze{Txn: TxnID{0, 2}},
		&Purge{Txn: TxnID{1, 4}},
		&FreezeAck{},
		&UpdateRead{Keys: []string{"a", "b"}},
		&UpdateReadReply{Results: []UpdateResult{{Val: []byte("v"), Exists: true, VC: vc,
			Propagated: []SQEntry{{Txn: TxnID{0, 5}, SID: 7, Kind: EntryRead}}}, {}}},
	} {
		buf, err := EncodeEnvelope(nil, Envelope{From: 1, RID: 5, Msg: msg})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		buf, err := EncodeEnvelope(nil, env)
		if err != nil {
			t.Fatalf("re-encode %T: %v", env.Msg, err)
		}
		again, err := DecodeEnvelope(buf)
		if err != nil || !reflect.DeepEqual(again, env) {
			t.Fatalf("re-decode %T: %v\n got  %+v\n want %+v", env.Msg, err, again, env)
		}
	})
}
