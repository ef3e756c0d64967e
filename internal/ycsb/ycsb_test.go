package ycsb

import (
	"math"
	"testing"

	"github.com/sss-paper/sss/internal/cluster"
)

func TestKeyNameStable(t *testing.T) {
	if KeyName(7) != "usertable:00000007" {
		t.Fatalf("KeyName(7) = %q", KeyName(7))
	}
	ks := Keyspace(3)
	if len(ks) != 3 || ks[2] != KeyName(2) {
		t.Fatalf("Keyspace = %v", ks)
	}
}

func TestReadOnlyPercentage(t *testing.T) {
	g := NewGenerator(Config{Keys: 100, ReadOnlyPct: 80}, 0, cluster.Lookup{}, 1)
	ro := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Next().Kind == ReadOnlyTxn {
			ro++
		}
	}
	got := float64(ro) / n
	if math.Abs(got-0.8) > 0.03 {
		t.Fatalf("read-only fraction = %v, want ~0.8", got)
	}
}

func TestProfileSizes(t *testing.T) {
	g := NewGenerator(Config{Keys: 100, ReadOnlyPct: 50, UpdateOps: 2, ReadOnlyOps: 16}, 0, cluster.Lookup{}, 2)
	for i := 0; i < 200; i++ {
		tx := g.Next()
		switch tx.Kind {
		case ReadOnlyTxn:
			if len(tx.Keys) != 16 {
				t.Fatalf("read-only txn has %d keys, want 16", len(tx.Keys))
			}
		case UpdateTxn:
			if len(tx.Keys) != 2 {
				t.Fatalf("update txn has %d keys, want 2", len(tx.Keys))
			}
		}
		seen := map[string]struct{}{}
		for _, k := range tx.Keys {
			if _, dup := seen[k]; dup {
				t.Fatalf("duplicate key in txn: %v", tx.Keys)
			}
			seen[k] = struct{}{}
		}
	}
}

func TestUniformCoversKeyspace(t *testing.T) {
	g := NewGenerator(Config{Keys: 10, ReadOnlyPct: 0}, 0, cluster.Lookup{}, 3)
	seen := map[string]struct{}{}
	for i := 0; i < 2000; i++ {
		for _, k := range g.Next().Keys {
			seen[k] = struct{}{}
		}
	}
	if len(seen) != 10 {
		t.Fatalf("uniform draw covered %d/10 keys", len(seen))
	}
}

func TestLocalityBias(t *testing.T) {
	lookup := cluster.NewLookup(4, 2)
	cfg := Config{Keys: 1000, ReadOnlyPct: 0, Distribution: Local, Locality: 0.5}
	g := NewGenerator(cfg, 1, lookup, 4)
	localHits, total := 0, 0
	for i := 0; i < 5000; i++ {
		for _, k := range g.Next().Keys {
			total++
			if lookup.IsReplica(k, 1) {
				localHits++
			}
		}
	}
	frac := float64(localHits) / float64(total)
	// With degree 2 of 4 nodes, ~50% of keys are local anyway; 50%
	// locality lifts the hit rate to ~0.5 + 0.5*0.5 = 0.75.
	if frac < 0.65 || frac > 0.85 {
		t.Fatalf("local fraction = %v, want ~0.75", frac)
	}
}

// TestZipfianSkew pins the generator benchmark/'s hot-longro is built on: at
// the default ZipfTheta over 1 000 keys a single draw lands on key 0 with
// p ≈ 0.605 (exponent 1.99 — not YCSB's zipfian(0.99), which gives 0.129).
// Measured gains are claimed on this skew, so it must not drift silently.
func TestZipfianSkew(t *testing.T) {
	g := NewGenerator(Config{Keys: 1000, Distribution: Zipfian}, 0, cluster.Lookup{}, 5)
	const draws = 100000
	hot := 0
	for i := 0; i < draws; i++ {
		if g.pickOne() == KeyName(0) {
			hot++
		}
	}
	if p := float64(hot) / draws; p < 0.58 || p > 0.63 {
		t.Fatalf("p(key 0) = %.3f over %d draws, want within [0.58, 0.63]", p, draws)
	}
}

func TestValueSizeAndFreshness(t *testing.T) {
	g := NewGenerator(Config{Keys: 10, ValueSize: 64}, 0, cluster.Lookup{}, 6)
	v1, v2 := g.Value(), g.Value()
	if len(v1) != 64 || len(v2) != 64 {
		t.Fatalf("value sizes = %d, %d; want 64", len(v1), len(v2))
	}
	if string(v1) == string(v2) {
		t.Fatal("consecutive values should differ")
	}
}

func TestPickMoreKeysThanKeyspace(t *testing.T) {
	g := NewGenerator(Config{Keys: 3, ReadOnlyPct: 100, ReadOnlyOps: 10}, 0, cluster.Lookup{}, 7)
	tx := g.Next()
	if len(tx.Keys) != 3 {
		t.Fatalf("got %d keys, want clamped 3", len(tx.Keys))
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := NewGenerator(Config{Keys: 50, ReadOnlyPct: 50}, 0, cluster.Lookup{}, 42)
	b := NewGenerator(Config{Keys: 50, ReadOnlyPct: 50}, 0, cluster.Lookup{}, 42)
	for i := 0; i < 100; i++ {
		ta, tb := a.Next(), b.Next()
		if ta.Kind != tb.Kind || len(ta.Keys) != len(tb.Keys) {
			t.Fatal("same-seed generators diverged")
		}
		for j := range ta.Keys {
			if ta.Keys[j] != tb.Keys[j] {
				t.Fatal("same-seed generators diverged on keys")
			}
		}
	}
}
