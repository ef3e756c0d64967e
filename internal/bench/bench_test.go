package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/ycsb"
	"github.com/sss-paper/sss/kv"
)

// fakeNode is an in-memory engine stub: commits everything instantly, with
// a configurable abort rate for update transactions.
type fakeNode struct {
	stats      metrics.Engine
	abortEvery int64
	updates    atomic.Int64
}

func (f *fakeNode) Begin(readOnly bool) kv.Txn { return &fakeTxn{node: f, readOnly: readOnly} }
func (f *fakeNode) Stats() *metrics.Engine     { return &f.stats }

type fakeTxn struct {
	node     *fakeNode
	readOnly bool
	done     bool
}

func (t *fakeTxn) Read(string) ([]byte, bool, error) { return []byte("v"), true, nil }
func (t *fakeTxn) Write(string, []byte) error {
	if t.readOnly {
		return kv.ErrReadOnlyWrite
	}
	return nil
}
func (t *fakeTxn) Abort() error { t.done = true; return nil }
func (t *fakeTxn) Commit() error {
	if t.done {
		return kv.ErrTxnDone
	}
	t.done = true
	if t.readOnly {
		t.node.stats.ReadOnlyRuns.Add(1)
		t.node.stats.ReadOnlyLatency.Observe(time.Microsecond)
		return nil
	}
	if n := t.node.updates.Add(1); t.node.abortEvery > 0 && n%t.node.abortEvery == 0 {
		t.node.stats.Aborts.Add(1)
		return kv.ErrAborted
	}
	t.node.stats.Commits.Add(1)
	t.node.stats.CommitLatency.Observe(2 * time.Microsecond)
	t.node.stats.InternalLatency.Observe(time.Microsecond)
	t.node.stats.PreCommitWait.Observe(time.Microsecond)
	return nil
}

func TestRunCountsAndThroughput(t *testing.T) {
	nodes := []Node{&fakeNode{}, &fakeNode{}}
	res := Run(nodes, Options{
		Workload:       ycsb.Config{Keys: 100, ReadOnlyPct: 50},
		ClientsPerNode: 2,
		Duration:       100 * time.Millisecond,
		Seed:           7,
	})
	if res.Commits == 0 || res.ReadOnly == 0 {
		t.Fatalf("no work recorded: %+v", res)
	}
	if res.Throughput <= 0 {
		t.Fatalf("Throughput = %v", res.Throughput)
	}
	if res.AbortRate != 0 {
		t.Fatalf("AbortRate = %v, want 0", res.AbortRate)
	}
	want := float64(res.Commits+res.ReadOnly) / res.Elapsed.Seconds()
	if diff := res.Throughput - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("Throughput %v inconsistent with counts (%v)", res.Throughput, want)
	}
	if res.UpdateLatency.Count == 0 || res.ReadOnlyLatency.Count == 0 {
		t.Fatal("latency histograms not aggregated")
	}
}

func TestRunAbortRate(t *testing.T) {
	nodes := []Node{&fakeNode{abortEvery: 4}} // every 4th update aborts
	res := Run(nodes, Options{
		Workload:       ycsb.Config{Keys: 100, ReadOnlyPct: 0},
		ClientsPerNode: 2,
		Duration:       100 * time.Millisecond,
		Seed:           3,
	})
	if res.Aborts == 0 {
		t.Fatal("expected aborts")
	}
	if res.AbortRate < 0.15 || res.AbortRate > 0.35 {
		t.Fatalf("AbortRate = %v, want ~0.25", res.AbortRate)
	}
}

func TestRunWarmupNotCounted(t *testing.T) {
	nd := &fakeNode{}
	res := Run([]Node{nd}, Options{
		Workload:       ycsb.Config{Keys: 10, ReadOnlyPct: 100},
		ClientsPerNode: 1,
		Warmup:         50 * time.Millisecond,
		Duration:       50 * time.Millisecond,
		Seed:           1,
	})
	// Engine-side counter includes warmup; harness counts only the window.
	if res.ReadOnly >= nd.stats.ReadOnlyRuns.Load() {
		t.Fatalf("measured %d >= total %d: warmup leaked into the window",
			res.ReadOnly, nd.stats.ReadOnlyRuns.Load())
	}
}

func TestRunDefaults(t *testing.T) {
	res := Run([]Node{&fakeNode{}}, Options{
		Workload: ycsb.Config{Keys: 10, ReadOnlyPct: 100},
		Duration: 30 * time.Millisecond,
	})
	if res.ReadOnly == 0 {
		t.Fatal("defaults should still drive work (10 clients/node)")
	}
}

// TestPointRendersEveryLeaf fills every leaf of a point's engine and
// transport families with a distinct value, marshals the point, and finds
// each leaf exactly once, under its walk name and with its value, and
// nothing else under the two families: a snapshot cannot drift from
// metrics.Walk.
func TestPointRendersEveryLeaf(t *testing.T) {
	p := Point{Series: "s", Engine: "sss", Nodes: 1, Result: Result{Stats: &metrics.Engine{}}, Transport: &metrics.Transport{}}
	want := map[string]uint64{}
	v := uint64(0)
	fill := func(key string, family any) {
		metrics.Walk(family, func(l metrics.Leaf) {
			v++
			path := key
			for _, f := range l.Path {
				path += "." + metrics.SnakeCase(f)
			}
			switch {
			case l.Counter != nil:
				l.Counter.Store(v)
				want[path] = v
			case l.Gauge != nil:
				l.Gauge.Store(int64(v))
				want[path] = v
			default:
				for i := uint64(0); i < v; i++ {
					l.Histogram.Observe(time.Duration(v) * time.Microsecond)
				}
				s := l.Histogram.Snapshot()
				want[path+".count"] = s.Count
				want[path+".mean_ns"] = uint64(s.Mean)
				want[path+".p50_ns"] = uint64(s.P50)
				want[path+".p99_ns"] = uint64(s.P99)
				want[path+".max_ns"] = uint64(s.Max)
			}
		})
	}
	fill("engine_stats", p.Stats)
	fill("transport", p.Transport)

	buf, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	dec := json.NewDecoder(strings.NewReader(string(buf)))
	dec.UseNumber()
	if err := flattenJSON(dec, "", got); err != nil {
		t.Fatalf("%v in %s", err, buf)
	}
	for path, w := range want {
		if vals := got[path]; len(vals) != 1 || vals[0] != fmt.Sprint(w) {
			t.Errorf("%s: rendered %v, want exactly one %d", path, vals, w)
		}
	}
	for path := range got {
		_, ok := want[path]
		if !ok && (strings.HasPrefix(path, "engine_stats.") || strings.HasPrefix(path, "transport.")) {
			t.Errorf("%s: rendered, but no leaf of the family has that name", path)
		}
	}
}

// flattenJSON records every scalar of the JSON value dec is at under its
// dotted path, once per occurrence, so a duplicated key shows twice.
func flattenJSON(dec *json.Decoder, path string, out map[string][]string) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok != json.Delim('{') {
		if _, nested := tok.(json.Delim); nested {
			return fmt.Errorf("%s: unexpected %v", path, tok)
		}
		out[path] = append(out[path], fmt.Sprint(tok))
		return nil
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return err
		}
		sub := key.(string)
		if path != "" {
			sub = path + "." + sub
		}
		if err := flattenJSON(dec, sub, out); err != nil {
			return err
		}
	}
	_, err = dec.Token() // the closing brace
	return err
}
