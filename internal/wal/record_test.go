package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
)

// goldenRecords holds one record per RecType with every field that kind
// uses set, plus the all-zero record, each next to its on-disk payload.
// The hex is the format every existing log was written in: a change that
// moves a byte breaks replay of those logs.
var goldenRecords = []struct {
	name string
	rec  Record
	hex  string
}{
	{"zero", Record{}, "00000000000000000000000000"},
	{"prepare", Record{Type: RecPrepare, Txn: wire.TxnID{Node: 1, Seq: 300},
		Writes: []wire.KV{{Key: "k1", Val: []byte("v1")}, {Key: "k2"}},
		Deps:   []wire.TxnID{{Node: 2, Seq: 7}, {Node: 0, Seq: 1 << 40}}}, "0101ac02000000000000000002026b31027631026b320002020700808080808020"},
	{"decide", Record{Type: RecDecide, Txn: wire.TxnID{Node: 2, Seq: 9}, Commit: true,
		VC:     vclock.VC{4, 0, 200},
		Writes: []wire.KV{{Key: "k", Val: []byte{0, 0xff}}},
		Deps:   []wire.TxnID{{Node: 1, Seq: 3}}}, "0202090100000000030400c801000001016b0200ff010103"},
	{"coord-commit", Record{Type: RecCoordCommit, Txn: wire.TxnID{Node: 0, Seq: 128}, Commit: true,
		VC: vclock.VC{128, 1, 2}}, "030080010100000000038001010200000000"},
	{"freeze", Record{Type: RecFreeze, Txn: wire.TxnID{Node: 1, Seq: 5}, Stamp: 1 << 33,
		Keys: []string{"a", "bb"}, VC: vclock.VC{1, 2, 3}, VC2: vclock.VC{9, 8, 7}}, "04010500808080802000000003010203030908070201610262620000"},
	{"purge", Record{Type: RecPurge, Txn: wire.TxnID{Node: 2, Seq: 77}}, "05024d00000000000000000000"},
	{"checkpoint-meta", Record{Type: RecCheckpointMeta, VC: vclock.VC{10, 20, 30},
		VC2: vclock.VC{5, 6, 7}, Stamp: 999, Seq: 1 << 20}, "06000000e7078080400000030a141e03050607000000"},
	{"version", Record{Type: RecVersion, Key: "key", Val: []byte("value"),
		VC: vclock.VC{3, 0, 1}, Txn: wire.TxnID{Node: 1, Seq: 44},
		Deps: []wire.TxnID{{Node: 2, Seq: 2}}, Stamp: 12}, "07012c000c00036b65790576616c756503030001000000010202"},
}

func TestGoldenPayloads(t *testing.T) {
	for _, g := range goldenRecords {
		got := hex.EncodeToString(appendPayload(nil, &g.rec))
		if got != g.hex {
			t.Errorf("%s: payload\n got  %s\n want %s", g.name, got, g.hex)
			continue
		}
		raw, _ := hex.DecodeString(g.hex)
		rec, err := decodePayload(raw)
		if err != nil {
			t.Errorf("%s: decode: %v", g.name, err)
			continue
		}
		if !reflect.DeepEqual(*rec, g.rec) {
			t.Errorf("%s: decode\n got  %+v\n want %+v", g.name, *rec, g.rec)
		}
	}
}

// TestDecodePayloadHugeLengths hand-builds payloads whose declared lengths
// dwarf the bytes that follow. A length near 2^63 overflows an int bound
// check; each must decode to an error, not a panic.
func TestDecodePayloadHugeLengths(t *testing.T) {
	const huge = 1<<63 - 3
	head := []byte{byte(RecPrepare), 1, 2, 0, 0, 0} // type, txn, commit, stamp, seq
	cases := map[string][]byte{
		"key":       binary.AppendUvarint(bytes.Clone(head), huge),
		"val":       binary.AppendUvarint(append(bytes.Clone(head), 0), huge),
		"writes":    binary.AppendUvarint(append(bytes.Clone(head), 0, 0, 0, 0, 0), huge),
		"write key": binary.AppendUvarint(append(bytes.Clone(head), 0, 0, 0, 0, 0, 1), huge),
	}
	for name, buf := range cases {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: decodePayload panicked: %v", name, p)
				}
			}()
			if _, err := decodePayload(append(buf, 0, 0, 0)); err == nil {
				t.Errorf("%s: oversized length accepted", name)
			}
		}()
	}
}

// FuzzDecodePayload feeds the record decoder arbitrary bytes: it must never
// panic, and whatever it accepts must re-encode to a payload that decodes to
// the same record.
func FuzzDecodePayload(f *testing.F) {
	for _, g := range goldenRecords {
		raw, _ := hex.DecodeString(g.hex)
		f.Add(raw)
	}
	for i := 0; i < 5; i++ {
		f.Add(appendPayload(nil, testRecord(i)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodePayload(data)
		if err != nil {
			return
		}
		again, err := decodePayload(appendPayload(nil, rec))
		if err != nil || !reflect.DeepEqual(again, rec) {
			t.Fatalf("re-decode: %v\n got  %+v\n want %+v", err, again, rec)
		}
	})
}

// BenchmarkAppendPayload encodes a prepare record of three 100-byte writes
// and two dependencies into a reused buffer, the shape Log.Append encodes
// for every write replica's yes vote.
func BenchmarkAppendPayload(b *testing.B) {
	val := bytes.Repeat([]byte{'v'}, 100)
	r := &Record{Type: RecPrepare, Txn: wire.TxnID{Node: 1, Seq: 1 << 20},
		Writes: []wire.KV{{Key: "key-0001", Val: val}, {Key: "key-0002", Val: val}, {Key: "key-0003", Val: val}},
		Deps:   []wire.TxnID{{Node: 0, Seq: 1 << 19}, {Node: 2, Seq: 1 << 21}}}
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		buf = appendPayload(buf[:0], r)
	}
}
