package baseline

import (
	"errors"
	"fmt"
	"testing"

	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

func TestFinishAccounting(t *testing.T) {
	var nd Node
	st := nd.Stats()

	ro := nd.NewTxn(true)
	if err := ro.Finish(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	up := nd.NewTxn(false)
	_ = up.Write("k", []byte("v"))
	if err := up.Finish(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	ab := nd.NewTxn(false)
	_ = ab.Write("k", []byte("v"))
	if err := ab.Finish(func() error { return kv.ErrAborted }); !errors.Is(err, kv.ErrAborted) {
		t.Fatalf("aborted finish = %v", err)
	}
	down := nd.NewTxn(true)
	unavailable := fmt.Errorf("%w: read", kv.ErrUnavailable)
	if err := down.Finish(func() error { return unavailable }); err != unavailable {
		t.Fatalf("unavailable finish = %v", err)
	}

	if got := st.ReadOnlyRuns.Load(); got != 1 {
		t.Errorf("ReadOnlyRuns = %d, want 1 (empty success only)", got)
	}
	if got := st.Commits.Load(); got != 1 {
		t.Errorf("Commits = %d, want 1", got)
	}
	if got := st.Aborts.Load(); got != 1 {
		t.Errorf("Aborts = %d, want 1 (ErrUnavailable is not an abort)", got)
	}
	if st.CommitLatency.Count() != 1 || st.InternalLatency.Count() != 1 || st.ReadOnlyLatency.Count() != 1 {
		t.Error("latency histograms do not match the counters")
	}
	if err := up.Finish(func() error { t.Fatal("commit ran twice"); return nil }); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("second finish = %v, want ErrTxnDone", err)
	}
}

func TestTxnBuffersWrites(t *testing.T) {
	var nd Node
	tx := nd.NewTxn(false)
	if _, ok, err := tx.Buffered("a"); ok || err != nil {
		t.Fatalf("unwritten key buffered: %v %v", ok, err)
	}
	_ = tx.Write("b", []byte("1"))
	_ = tx.Write("a", []byte("2"))
	_ = tx.Write("b", []byte("3"))
	if v, ok, err := tx.Buffered("b"); !ok || err != nil || string(v) != "3" {
		t.Fatalf("read-your-writes = %q %v %v", v, ok, err)
	}
	want := []wire.KV{{Key: "b", Val: []byte("3")}, {Key: "a", Val: []byte("2")}}
	if got := tx.Writes(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Writes = %v, want %v (first-write order)", got, want)
	}

	ro := nd.NewTxn(true)
	if err := ro.Write("a", nil); !errors.Is(err, kv.ErrReadOnlyWrite) {
		t.Fatalf("read-only write = %v", err)
	}
	_ = tx.Abort()
	if _, _, err := tx.Buffered("b"); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("read after abort = %v", err)
	}
	if err := tx.Write("c", nil); !errors.Is(err, kv.ErrTxnDone) {
		t.Fatalf("write after abort = %v", err)
	}
	if a, b := nd.NewTxn(false).ID, nd.NewTxn(false).ID; a == b {
		t.Fatalf("transaction ids repeat: %v", a)
	}
}

func TestAllYes(t *testing.T) {
	yes, no := &wire.Vote{OK: true}, &wire.Vote{}
	for _, c := range []struct {
		votes []wire.Msg
		want  bool
	}{
		{[]wire.Msg{yes, yes}, true},
		{[]wire.Msg{yes, no}, false},
		{[]wire.Msg{yes, nil}, false}, // a participant timed out
		{[]wire.Msg{&wire.DecideAck{}}, false},
	} {
		if got := AllYes(c.votes); got != c.want {
			t.Errorf("AllYes(%v) = %v, want %v", c.votes, got, c.want)
		}
	}
}

func TestShardsSpreadAndAgree(t *testing.T) {
	s := NewShards[int]()
	used := map[*Shard[int]]bool{}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key%d", i)
		if s.Of(k) != s.Of(k) {
			t.Fatalf("key %q maps to two shards", k)
		}
		used[s.Of(k)] = true
	}
	if len(used) < numShards*3/4 {
		t.Fatalf("1000 keys landed in %d of %d shards", len(used), numShards)
	}
	// Pinned FNV-1a: the empty key hashes to the offset basis.
	if s.Of("") != &s[2166136261%numShards] {
		t.Fatal("Of is not FNV-1a")
	}
}
