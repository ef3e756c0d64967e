package obs

import (
	"bytes"
	"flag"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestSnake(t *testing.T) {
	cases := map[string]string{
		"Commits":          "commits",
		"WalSyncFailures":  "wal_sync_failures",
		"SQWaits":          "sq_waits",
		"ReadOnlyRuns":     "read_only_runs",
		"PeerUnresponsive": "peer_unresponsive",
		"ClientAck":        "client_ack",
	}
	for in, want := range cases {
		if got := metrics.SnakeCase(in); got != want {
			t.Errorf("SnakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

// testFamily exercises every field shape the walk supports.
type testFamily struct {
	Hits    atomic.Uint64
	Backlog atomic.Int64
	Lat     metrics.Histogram
	Rounds  testInner
}

type testInner struct {
	SQDrops atomic.Uint64
}

func TestBucketBoundaries(t *testing.T) {
	var h metrics.Histogram
	// Exact boundary values: 2^i - 1 stays in bucket i, 2^i moves to i+1.
	h.Observe(0)    // bucket 0
	h.Observe(1)    // bucket 1
	h.Observe(2047) // bucket 11 (upper bound 2047ns)
	h.Observe(2048) // bucket 12
	var b [metrics.NumBuckets]uint64
	h.Buckets(b[:])
	for i, want := range map[int]uint64{0: 1, 1: 1, 11: 1, 12: 1} {
		if b[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, b[i], want)
		}
	}
	var total uint64
	for _, n := range b {
		total += n
	}
	if total != 4 {
		t.Fatalf("bucket total = %d, want 4", total)
	}
	if got := metrics.BucketUpperBound(11); got != 2047 {
		t.Errorf("BucketUpperBound(11) = %d, want 2047", got)
	}
	if got := metrics.BucketUpperBound(metrics.NumBuckets - 1); got != math.MaxUint64 {
		t.Errorf("BucketUpperBound(last) = %d, want MaxUint64", got)
	}
	// The rendered cumulative counts must be monotone and end at the total.
	reg := NewRegistry()
	reg.Register("bb", &struct{ H metrics.Histogram }{})
	var buf bytes.Buffer
	if err := reg.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func newTestRegistry() (*Registry, *testFamily) {
	fam := &testFamily{}
	fam.Hits.Add(7)
	fam.Backlog.Store(-3)
	fam.Lat.Observe(1500 * time.Nanosecond) // bucket 11
	fam.Lat.Observe(0)                      // bucket 0
	fam.Rounds.SQDrops.Add(2)
	reg := NewRegistry()
	reg.Register("t", fam)
	// A scrape-time family at the root: the retained-state gauges
	// sss-server serves this way.
	reg.RegisterFunc("", func() any {
		r := &metrics.Retained{}
		r.CommitlogEntries.Store(5)
		r.Tombstones.Store(2)
		r.RPCPending.Store(1)
		return r
	})
	return reg, fam
}

func TestRenderGolden(t *testing.T) {
	reg, _ := newTestRegistry()
	var buf bytes.Buffer
	if err := reg.Render(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/obs -run Golden -update` to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("rendered page differs from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestRegisterPanicsOnUnsupportedField(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsupported field type")
		}
	}()
	NewRegistry().Register("bad", &struct{ Name string }{})
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate registration")
		}
	}()
	reg := NewRegistry()
	fam := &testFamily{}
	reg.Register("t", fam)
	reg.Register("t", fam)
}

// TestRegisterFuncIsLive pins the scrape-time collector: a family gathered by
// a function renders under the same names Register would give it, reflects
// the values of the struct returned at *this* scrape (a merged copy
// registered once would freeze), and claims its names against duplicates.
func TestRegisterFuncIsLive(t *testing.T) {
	var live testFamily
	reg := NewRegistry()
	reg.RegisterFunc("t", func() any {
		merged := &testFamily{} // a fresh merge per scrape, as TCP.Metrics builds
		merged.Hits.Add(live.Hits.Load())
		merged.Rounds.SQDrops.Add(live.Rounds.SQDrops.Load())
		return merged
	})
	scrape := func() *Page {
		var buf bytes.Buffer
		if err := reg.Render(&buf); err != nil {
			t.Fatal(err)
		}
		page, err := ParsePage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return page
	}
	if p := scrape(); !p.Has("sss_t_hits_total") || !p.Has("sss_t_lat_seconds") || p.Counter("sss_t_hits_total") != 0 {
		t.Fatalf("first scrape: %+v", p.Counters)
	}
	live.Hits.Add(5)
	live.Rounds.SQDrops.Add(2)
	if p := scrape(); p.Counter("sss_t_hits_total") != 5 || p.Counter("sss_t_rounds_sq_drops_total") != 2 {
		t.Fatalf("second scrape did not advance: %+v", p.Counters)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: the collector's names are claimed")
		}
	}()
	reg.Register("t", &live)
}

func TestParseRoundTrip(t *testing.T) {
	reg, fam := newTestRegistry()
	var buf bytes.Buffer
	if err := reg.Render(&buf); err != nil {
		t.Fatal(err)
	}
	page, err := ParsePage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := page.Counter("sss_t_hits_total"); got != 7 {
		t.Errorf("hits = %v, want 7", got)
	}
	if got := page.Gauge("sss_t_backlog"); got != -3 {
		t.Errorf("backlog = %v, want -3", got)
	}
	if got := page.Counter("sss_t_rounds_sq_drops_total"); got != 2 {
		t.Errorf("nested counter = %v, want 2", got)
	}
	h := page.Hists["sss_t_lat_seconds"]
	if h == nil {
		t.Fatal("histogram missing from parsed page")
	}
	if h.Count != 2 {
		t.Errorf("hist count = %d, want 2", h.Count)
	}
	if want := 1.5e-6; math.Abs(h.Sum-want) > 1e-12 {
		t.Errorf("hist sum = %v, want %v", h.Sum, want)
	}
	if len(h.CumCounts) != metrics.NumBuckets {
		t.Fatalf("bucket count = %d, want %d", len(h.CumCounts), metrics.NumBuckets)
	}
	if last := h.CumCounts[len(h.CumCounts)-1]; last != h.Count {
		t.Errorf("+Inf bucket %d != count %d", last, h.Count)
	}
	if !math.IsInf(h.UpperBounds[len(h.UpperBounds)-1], 1) {
		t.Error("last bound is not +Inf")
	}
	// p100 lands in bucket 11: upper bound 2047ns.
	if got, want := h.Quantile(1), 2047e-9; math.Abs(got-want) > 1e-15 {
		t.Errorf("q100 = %v, want %v", got, want)
	}
	if fam.Lat.Count() != 2 {
		t.Fatal("observation count drifted")
	}
	// Delta of a page against itself is empty.
	d := h.Delta(h)
	if d.Count != 0 || d.Sum != 0 {
		t.Errorf("self-delta not empty: count=%d sum=%v", d.Count, d.Sum)
	}
	// Merging two copies doubles everything.
	m := MergePages([]*Page{page, page})
	if got := m.Counter("sss_t_hits_total"); got != 14 {
		t.Errorf("merged hits = %v, want 14", got)
	}
	if mh := m.Hists["sss_t_lat_seconds"]; mh.Count != 4 {
		t.Errorf("merged hist count = %d, want 4", mh.Count)
	}
}

func TestStagesFromPage(t *testing.T) {
	eng := &metrics.Engine{}
	eng.Stage.Vote.Observe(2 * time.Millisecond)
	eng.Stage.Vote.Observe(4 * time.Millisecond)
	eng.Stage.WalSync.Observe(1 * time.Millisecond)
	reg := NewRegistry()
	reg.Register("", eng)
	var buf bytes.Buffer
	if err := reg.Render(&buf); err != nil {
		t.Fatal(err)
	}
	page, err := ParsePage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The load-bearing canonical names the e2e scrape asserts.
	for _, name := range []string{"sss_commits_total", "sss_stage_vote_seconds", "sss_commit_rounds_drains_piggybacked_total"} {
		if !page.Has(name) {
			t.Errorf("page missing %s", name)
		}
	}
	vote := page.Hists["sss_stage_vote_seconds"].Snapshot()
	if vote.Count != 2 {
		t.Errorf("vote count = %d, want 2", vote.Count)
	}
	if n := page.Hists["sss_stage_wal_sync_seconds"].Count; n != 1 {
		t.Errorf("walSync count = %d, want 1", n)
	}
	if vote.P99 < time.Millisecond || vote.P99 > 10*time.Millisecond {
		t.Errorf("vote p99 = %v, out of range", vote.P99)
	}
}

// TestScrapeUnderLoad races live counter writes against endpoint reads; it
// earns its keep in the -race CI lane.
func TestScrapeUnderLoad(t *testing.T) {
	fam := &testFamily{}
	reg := NewRegistry()
	reg.Register("t", fam)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fam.Hits.Add(1)
					fam.Backlog.Add(1)
					fam.Lat.Observe(time.Microsecond)
					fam.Rounds.SQDrops.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		page, err := Fetch(srv.Client(), strings.TrimPrefix(srv.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		h := page.Hists["sss_t_lat_seconds"]
		if h == nil {
			t.Fatal("histogram missing mid-load")
		}
		for j := 1; j < len(h.CumCounts); j++ {
			if h.CumCounts[j] < h.CumCounts[j-1] {
				t.Fatalf("cumulative buckets not monotone at %d", j)
			}
		}
		if h.Count != h.CumCounts[len(h.CumCounts)-1] {
			t.Fatalf("count %d != +Inf bucket %d", h.Count, h.CumCounts[len(h.CumCounts)-1])
		}
	}
	close(stop)
	wg.Wait()
	// One more render straight to a writer for the no-HTTP path.
	if err := reg.Render(io.Discard); err != nil {
		t.Fatal(err)
	}
}
