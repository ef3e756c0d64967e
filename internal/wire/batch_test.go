package wire

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/sss-paper/sss/internal/vclock"
)

// randomEnvelope builds one random envelope over the full message
// vocabulary, with clock width n.
func randomEnvelope(r *rand.Rand, n int) Envelope {
	vc := vclock.New(n)
	for i := range vc {
		vc[i] = uint64(r.Intn(1 << 16))
	}
	txn := TxnID{Node: NodeID(r.Intn(n)), Seq: r.Uint64() % 1e6}
	randKey := func() string {
		b := make([]byte, 1+r.Intn(12))
		r.Read(b)
		return string(b)
	}
	randVal := func() []byte {
		if r.Intn(4) == 0 {
			return nil
		}
		b := make([]byte, r.Intn(64))
		r.Read(b)
		if len(b) == 0 {
			return nil
		}
		return b
	}
	var msg Msg
	switch r.Intn(13) {
	case 0:
		hr := make([]bool, n)
		for i := range hr {
			hr[i] = r.Intn(2) == 0
		}
		msg = &ReadRequest{Txn: txn, Key: randKey(), VC: vc, HasRead: hr}
	case 1:
		msg = &UpdateReadReply{Results: []UpdateResult{{Val: randVal(), Exists: r.Intn(2) == 0, Writer: txn, VC: vc,
			Propagated: []SQEntry{{Txn: txn, SID: r.Uint64() % 1e4, Kind: EntryRead}}}}}
	case 2:
		m := &Prepare{Txn: txn, VC: vc}
		for i := 0; i < r.Intn(4); i++ {
			m.ReadKeys = append(m.ReadKeys, randKey())
			m.ReadFrom = append(m.ReadFrom, TxnID{Node: NodeID(r.Intn(n)), Seq: r.Uint64() % 1e4})
		}
		for i := 0; i < r.Intn(4); i++ {
			m.Writes = append(m.Writes, KV{Key: randKey(), Val: randVal()})
		}
		msg = m
	case 3:
		msg = &Vote{Txn: txn, VC: vc, OK: r.Intn(2) == 0}
	case 4:
		msg = &Decide{Txn: txn, VC: vc, Commit: r.Intn(2) == 0, Drain: r.Intn(2) == 0,
			Propagated: []SQEntry{{Txn: txn, SID: r.Uint64() % 1e4, Kind: EntryWrite}}}
	case 5:
		msg = &DecideAck{Txn: txn, Ext: r.Uint64() % 1e6, Gated: r.Intn(2) == 0}
	case 6:
		msg = &Remove{Txn: txn}
	case 7:
		msg = &ExtCommit{Txn: txn}
	case 8:
		msg = &WalterPropagate{Txn: txn, VC: vc, Writes: []KV{{Key: randKey(), Val: randVal()}}}
	case 9:
		m := &Freeze{Txn: txn}
		if r.Intn(4) != 0 {
			m.VC = vc
		}
		if r.Intn(2) == 0 {
			m.Know = vc
		}
		msg = m
	case 10:
		msg = &Purge{Txn: txn}
	case 11:
		msg = &FreezeAck{}
	default:
		msg = &RococoDispatch{Txn: txn, ReadKeys: []string{randKey()}, Writes: []KV{{Key: randKey(), Val: randVal()}}}
	}
	return Envelope{From: NodeID(r.Intn(n)), RID: r.Uint64() % 1e9, Resp: r.Intn(2) == 0, Msg: msg}
}

// Property: random batches of random envelopes survive a round trip through
// the batch frame, preserving order and content.
func TestPropBatchRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		envs := make([]Envelope, 1+r.Intn(32))
		for i := range envs {
			envs[i] = randomEnvelope(r, n)
		}
		buf, err := EncodeBatch(nil, envs)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		if !IsBatch(buf) {
			t.Log("IsBatch = false on batch frame")
			return false
		}
		var got []Envelope
		count, err := DecodeBatch(buf, func(env Envelope) error {
			got = append(got, env)
			return nil
		})
		if err != nil || count != len(envs) || len(got) != len(envs) {
			t.Logf("decode: count=%d err=%v", count, err)
			return false
		}
		for i := range envs {
			if !reflect.DeepEqual(got[i], envs[i]) {
				t.Logf("envelope %d mismatch:\n got  %+v\n want %+v", i, got[i], envs[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A batch frame is never confused with a single envelope: message types
// start at 1, the batch tag is 0.
func TestBatchTagDisjointFromEnvelopes(t *testing.T) {
	buf, err := EncodeEnvelope(nil, Envelope{Msg: &Remove{Txn: TxnID{1, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if IsBatch(buf) {
		t.Fatal("single envelope misdetected as batch")
	}
	bb, err := EncodeBatch(nil, []Envelope{{Msg: &Remove{Txn: TxnID{1, 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !IsBatch(bb) {
		t.Fatal("batch not detected")
	}
	if _, err := DecodeEnvelope(bb); err == nil {
		t.Fatal("DecodeEnvelope should reject a batch frame")
	}
	if _, err := DecodeBatch(buf, func(Envelope) error { return nil }); err == nil {
		t.Fatal("DecodeBatch should reject a non-batch frame")
	}
}

func TestBatchEmptyAndTruncated(t *testing.T) {
	if _, err := EncodeBatch(nil, nil); err == nil {
		t.Fatal("EncodeBatch(empty) should fail")
	}
	r := rand.New(rand.NewSource(7))
	envs := []Envelope{randomEnvelope(r, 3), randomEnvelope(r, 3), randomEnvelope(r, 3)}
	buf, err := EncodeBatch(nil, envs)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodeBatch(buf[:cut], func(Envelope) error { return nil }); err == nil {
			t.Fatalf("DecodeBatch succeeded on %d/%d byte prefix", cut, len(buf))
		}
	}
	if _, err := DecodeBatch(append(append([]byte(nil), buf...), 0xAB), func(Envelope) error { return nil }); err == nil {
		t.Fatal("DecodeBatch should reject trailing bytes")
	}
}

// A batch frame declaring an envelope size near 2^64 must fail cleanly:
// a signed conversion would overflow and panic on the slice bound.
func TestDecodeBatchHugeSizeNoPanic(t *testing.T) {
	frame := []byte{batchTag, 1}
	frame = appendUvarintForTest(frame, 1<<63)
	if _, err := DecodeBatch(frame, func(Envelope) error { return nil }); err == nil {
		t.Fatal("DecodeBatch should reject an implausible envelope size")
	}
}

func appendUvarintForTest(buf []byte, x uint64) []byte {
	for x >= 0x80 {
		buf = append(buf, byte(x)|0x80)
		x >>= 7
	}
	return append(buf, byte(x))
}

func TestBufPoolRecycles(t *testing.T) {
	bp := GetBuf()
	if len(*bp) != 0 {
		t.Fatal("pooled buffer not empty")
	}
	*bp = append(*bp, 1, 2, 3)
	PutBuf(bp)
	bp2 := GetBuf()
	if len(*bp2) != 0 {
		t.Fatal("recycled buffer not reset")
	}
	PutBuf(bp2)
	PutBuf(nil) // must not panic
}

// TestEncodeSteadyStateAllocs enforces the 0-allocs/op contract of the
// pooled encode paths in the regular test run, so CI catches an alloc
// regression without parsing benchmark output.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	env := Envelope{From: 2, RID: 77, Msg: &ReadRequest{
		Txn: TxnID{2, 123}, Key: "usertable:row128", VC: vclock.VC{9, 4, 7, 1},
		HasRead: []bool{true, false, true, false},
	}}
	batch := []Envelope{env, env, env, env}
	if n := testing.AllocsPerRun(200, func() {
		bp := GetBuf()
		*bp, _ = EncodeEnvelope(*bp, env)
		PutBuf(bp)
	}); n > 0 {
		t.Errorf("EncodeEnvelope steady state allocates %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		bp := GetBuf()
		*bp, _ = EncodeBatch(*bp, batch)
		PutBuf(bp)
	}); n > 0 {
		t.Errorf("EncodeBatch steady state allocates %.1f allocs/op, want 0", n)
	}
}

// BenchmarkEncodeEnvelope measures the steady-state single-envelope encode
// path with a pooled buffer: it must not allocate.
func BenchmarkEncodeEnvelope(b *testing.B) {
	env := Envelope{From: 2, RID: 77, Msg: &ReadRequest{
		Txn: TxnID{2, 123}, Key: "usertable:row128", VC: vclock.VC{9, 4, 7, 1},
		HasRead: []bool{true, false, true, false},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := GetBuf()
		var err error
		*bp, err = EncodeEnvelope(*bp, env)
		if err != nil {
			b.Fatal(err)
		}
		PutBuf(bp)
	}
}

// BenchmarkEncodeBatch measures the steady-state batch encode path with a
// pooled buffer: it must not allocate either.
func BenchmarkEncodeBatch(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	envs := make([]Envelope, 32)
	for i := range envs {
		envs[i] = randomEnvelope(r, 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := GetBuf()
		var err error
		*bp, err = EncodeBatch(*bp, envs)
		if err != nil {
			b.Fatal(err)
		}
		PutBuf(bp)
	}
}

// BenchmarkDecodeBatch measures batch decode throughput (decode allocates
// the returned messages by design; the frame buffer itself is pooled).
func BenchmarkDecodeBatch(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	envs := make([]Envelope, 32)
	for i := range envs {
		envs[i] = randomEnvelope(r, 4)
	}
	frame, err := EncodeBatch(nil, envs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(frame, func(Envelope) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
