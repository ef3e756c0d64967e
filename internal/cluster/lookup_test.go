package cluster

import (
	"hash/fnv"
	"testing"
	"testing/quick"

	"github.com/sss-paper/sss/internal/wire"
)

func TestDegreeClamping(t *testing.T) {
	if d := NewLookup(4, 0).Degree(); d != 1 {
		t.Fatalf("degree 0 should clamp to 1, got %d", d)
	}
	if d := NewLookup(4, 9).Degree(); d != 4 {
		t.Fatalf("degree 9 should clamp to n, got %d", d)
	}
	if n := NewLookup(4, 2).N(); n != 4 {
		t.Fatalf("N = %d", n)
	}
}

func TestReplicasShape(t *testing.T) {
	l := NewLookup(5, 3)
	rs := l.Replicas("some-key")
	if len(rs) != 3 {
		t.Fatalf("Replicas = %v", rs)
	}
	if rs[0] != l.Primary("some-key") {
		t.Fatal("first replica must be the primary")
	}
	seen := map[wire.NodeID]struct{}{}
	for _, r := range rs {
		if _, dup := seen[r]; dup {
			t.Fatalf("duplicate replica in %v", rs)
		}
		seen[r] = struct{}{}
		if r < 0 || int(r) >= 5 {
			t.Fatalf("replica %d out of range", r)
		}
	}
}

func TestIsReplicaAgreesWithReplicas(t *testing.T) {
	f := func(key string) bool {
		l := NewLookup(6, 2)
		set := map[wire.NodeID]struct{}{}
		for _, r := range l.Replicas(key) {
			set[r] = struct{}{}
		}
		for n := wire.NodeID(0); n < 6; n++ {
			_, in := set[n]
			if l.IsReplica(key, n) != in {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaSetUnion(t *testing.T) {
	l := NewLookup(4, 2)
	set := l.ReplicaSet([]string{"a", "b"}, []string{"c"})
	if len(set) == 0 {
		t.Fatal("empty replica set")
	}
	for i := 1; i < len(set); i++ {
		if set[i-1] >= set[i] {
			t.Fatalf("ReplicaSet not sorted/deduped: %v", set)
		}
	}
	// Every key's replicas must be present.
	member := map[wire.NodeID]struct{}{}
	for _, n := range set {
		member[n] = struct{}{}
	}
	for _, k := range []string{"a", "b", "c"} {
		for _, r := range l.Replicas(k) {
			if _, ok := member[r]; !ok {
				t.Fatalf("replica %d of %q missing from %v", r, k, set)
			}
		}
	}
	if got := l.ReplicaSet(nil); got != nil && len(got) != 0 {
		t.Fatalf("ReplicaSet() = %v, want empty", got)
	}
}

func TestKeysSpreadAcrossNodes(t *testing.T) {
	l := NewLookup(4, 1)
	counts := make(map[wire.NodeID]int)
	for i := 0; i < 4000; i++ {
		counts[l.Primary(string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune(i)))]++
	}
	for n := wire.NodeID(0); n < 4; n++ {
		if counts[n] < 400 {
			t.Fatalf("node %d got only %d/4000 keys: skew too large (%v)", n, counts[n], counts)
		}
	}
}

func TestLookupDeterministic(t *testing.T) {
	a, b := NewLookup(5, 2), NewLookup(5, 2)
	for _, k := range []string{"x", "y", "usertable:00000042"} {
		ra, rb := a.Replicas(k), b.Replicas(k)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("lookup not deterministic for %q", k)
			}
		}
	}
}

// TestKeyHashIsFNV1a pins the shared key hash to the standard library's
// FNV-1a: replica placement and every stripe table key off it, so a drift
// would silently move keys between nodes and stripes.
func TestKeyHashIsFNV1a(t *testing.T) {
	keys := []string{"", "a", "k0", "k1", "user:42", "héllo", "ключ", "キー", "\x00\xff", string(make([]byte, 300))}
	for _, k := range keys {
		h := fnv.New32a()
		_, _ = h.Write([]byte(k))
		if got, want := KeyHash(k), h.Sum32(); got != want {
			t.Errorf("KeyHash(%q) = %#x, FNV-1a = %#x", k, got, want)
		}
	}
	if err := quick.Check(func(k string) bool {
		h := fnv.New32a()
		_, _ = h.Write([]byte(k))
		return KeyHash(k) == h.Sum32()
	}, nil); err != nil {
		t.Fatal(err)
	}
}
