package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/checker"
	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/obs"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/internal/ycsb"
)

// These tests boot no cluster: they pin the arithmetic the numbers rest on.

func TestPercentileIsExactNearestRank(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%v of 1..1000 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %d, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
	// Odd sizes round the rank up, never interpolate.
	if got := percentile([]int64{10, 20, 30}, 50); got != 20 {
		t.Errorf("p50 of 3 = %d, want 20", got)
	}
	if got := percentile(sorted[:999], 99); got != 990 {
		t.Errorf("p99 of 999 = %d, want 990 (rank ceil(989.01))", got)
	}
}

func TestSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 99, 10}, {999, 99, 9}, {1001, 99, 10}, {1100, 99, 11}, {100, 50, 50}, {0, 99, 0}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	// p99 is a supported tail from exactly 1000 samples on.
	if beyond(999, 99) >= 10 || beyond(1000, 99) < 10 {
		t.Error("the >= 10 samples beyond p99 rule must flip between 999 and 1000 samples")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

const pageBefore = `# TYPE sss_commits_total counter
sss_commits_total 100
# TYPE sss_stage_vote_seconds histogram
sss_stage_vote_seconds_bucket{le="0.001"} 90
sss_stage_vote_seconds_bucket{le="+Inf"} 100
sss_stage_vote_seconds_sum 0.05
sss_stage_vote_seconds_count 100
`

const pageAfter = `# TYPE sss_commits_total counter
sss_commits_total 350
# TYPE sss_wal_syncs_total counter
sss_wal_syncs_total 40
# TYPE sss_stage_vote_seconds histogram
sss_stage_vote_seconds_bucket{le="0.001"} 290
sss_stage_vote_seconds_bucket{le="+Inf"} 350
sss_stage_vote_seconds_sum 0.55
sss_stage_vote_seconds_count 350
`

func TestPageDelta(t *testing.T) {
	parse := func(s string) *obs.Page {
		p, err := obs.ParsePage(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	d := pageDelta{parse(pageBefore), parse(pageAfter)}
	if got := d.counter("sss_commits_total"); got != 250 {
		t.Errorf("commits delta = %v, want 250", got)
	}
	if got := d.counter("sss_wal_syncs_total"); got != 40 {
		t.Errorf("a series absent before counts from 0: got %v, want 40", got)
	}
	if got := d.counter("sss_no_such_total"); got != 0 {
		t.Errorf("absent counter delta = %v, want 0", got)
	}
	count, sum := d.hist("sss_stage_vote_seconds")
	if count != 250 || math.Abs(sum-0.5) > 1e-12 {
		t.Errorf("hist delta = (%v, %v), want (250, 0.5)", count, sum)
	}
	if got := d.meanMs("sss_stage_vote_seconds"); math.Abs(got-2) > 1e-9 {
		t.Errorf("mean = %v ms, want 2 (0.5 s over 250 observations)", got)
	}
	if got := d.meanMs("sss_no_such_seconds"); got != 0 {
		t.Errorf("absent histogram mean = %v, want 0", got)
	}
}

// The dump line is rendered by the program's own String method, so a change
// of its shape fails here rather than in a cluster run.
func TestParseTransportDumpMatchesCurrentShape(t *testing.T) {
	var tr metrics.Transport
	tr.Flushes.Store(1200)
	tr.Envelopes.Store(1500)
	tr.Spills.Store(3)
	tr.Dials.Store(5)
	tr.Redials.Store(2)
	tr.FlushLatency.Observe(150 * time.Microsecond)
	tr.FlushLatency.Observe(250 * time.Microsecond)
	log := `time=2026-09-26T10:05:56.754Z level=INFO msg="shutting down: sessions=1" node=0
time=2026-09-26T10:05:56.754Z level=INFO msg="transport: ` + tr.Snapshot().String() + `" node=0
time=2026-09-26T10:05:56.754Z level=INFO msg="engine: commits=1 aborts=0" node=0
`
	got, err := parseTransportDump(log)
	if err != nil {
		t.Fatal(err)
	}
	want := transportDump{flushes: 1200, envelopes: 1500, spills: 3, redials: 2, flushMean: 200 * time.Microsecond}
	if got != want {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	if _, err := parseTransportDump("no dump here"); err == nil {
		t.Error("a log without a transport: line must be an error")
	}
	if _, err := parseTransportDump(`msg="transport: flushes=many"`); err == nil {
		t.Error("a transport: line of another shape must be an error")
	}
}

func TestParseDurabilityDumpMatchesCurrentShape(t *testing.T) {
	var du metrics.Durability
	du.WalAppends.Store(700)
	du.WalBytes.Store(91000)
	du.WalSyncs.Store(650)
	du.WalSyncedRecords.Store(700)
	du.WalSyncFailures.Store(1)
	du.Checkpoints.Store(2)
	du.CheckpointRecords.Store(5000)
	du.SyncLatency.Observe(1300 * time.Microsecond)
	log := `time=2026-09-26T10:05:56.754Z level=INFO msg="contention: logWaits=0" node=1
time=2026-09-26T10:05:56.754Z level=INFO msg="durability: ` + du.Snapshot().String() + `" node=1
`
	got, err := parseDurabilityDump(log)
	if err != nil {
		t.Fatal(err)
	}
	want := durabilityDump{appends: 700, bytes: 91000, syncs: 650, syncFailures: 1, checkpoints: 2}
	if got != want {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	if _, err := parseDurabilityDump("no dump here"); err == nil {
		t.Error("a log without a durability: line must be an error")
	}
	if _, err := parseDurabilityDump(`msg="durability: walAppends=many"`); err == nil {
		t.Error("a durability: line of another shape must be an error")
	}
}

func TestParseProcStat(t *testing.T) {
	// comm may hold spaces and parentheses; fields are counted from the last ')'.
	line := "4242 (sss) server :-) S 17 4242 4242 0 -1 4194560 900 0 1 0 321 123 0 0 20 0 9 0 5555 1234567 2048 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	st, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if st.comm != "sss) server :-" || st.state != 'S' || st.ppid != 17 || st.utime != 321 || st.stime != 123 || st.rssPages != 2048 {
		t.Errorf("parsed %+v", st)
	}
	if got := ticksToUs(st.utime + st.stime); got != 4.44e6 {
		t.Errorf("444 ticks = %v us, want 4.44e6", got)
	}
	if _, err := parseProcStat("4242 sss-server S 17"); err == nil {
		t.Error("a line without a comm field must be an error")
	}
	if _, err := parseProcStat("4242 (sss-server) S 17 1 2"); err == nil {
		t.Error("a truncated line must be an error")
	}
}

func TestWorseByBothDirections(t *testing.T) {
	for _, c := range []struct {
		base, got float64
		better    string
		want      float64
	}{
		{100, 110, "lower", 0.10},   // latency up: worse
		{100, 90, "lower", -0.10},   // latency down: better
		{100, 90, "higher", 0.10},   // throughput down: worse
		{100, 110, "higher", -0.10}, // throughput up: better
		{0, 5, "lower", 0},          // no base, no verdict
	} {
		if got := worseBy(c.base, c.got, c.better); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worseBy(%v, %v, %s) = %v, want %v", c.base, c.got, c.better, got, c.want)
		}
	}
}

func TestSameSeedSameTransactions(t *testing.T) {
	sequence := func(s spec, seed int64) string {
		var b strings.Builder
		for client := 0; client < numClients; client++ {
			g := ycsb.NewGenerator(s.mix, wire.NodeID(client), cluster.Lookup{}, genSeed(seed, phaseMeasured, client))
			for i := 0; i < 500; i++ {
				txn := g.Next()
				fmt.Fprintln(&b, client, txn.Kind, txn.Keys)
			}
		}
		return b.String()
	}
	for _, s := range workloads {
		if sequence(s, 7) != sequence(s, 7) {
			t.Errorf("%s: the same seed generated different transactions", s.name)
		}
		if sequence(s, 7) == sequence(s, 8) {
			t.Errorf("%s: different seeds generated the same transactions", s.name)
		}
	}
	// No two (seed, phase, client) triples within a run share a generator seed.
	seen := map[int64]bool{}
	for phase := phaseWarmup; phase <= phaseMeasured; phase++ {
		for client := 0; client < numClients; client++ {
			gs := genSeed(7, phase, client)
			if seen[gs] {
				t.Errorf("generator seed %d reused", gs)
			}
			seen[gs] = true
		}
	}
}

func TestTokensRoundTrip(t *testing.T) {
	for _, id := range []wire.TxnID{{Node: 0, Seq: 1}, {Node: 1, Seq: 987654321}, {Node: initClient, Seq: 25}} {
		tok := formatToken(id, valueSize)
		if len(tok) != valueSize {
			t.Errorf("token %q is %d bytes, want %d", tok, len(tok), valueSize)
		}
		got, ok := parseToken(tok)
		if !ok || got != id {
			t.Errorf("parseToken(%q) = %v, %v; want %v", tok, got, ok, id)
		}
	}
	for _, bad := range []string{"", "init", "t|", "t1|", "t1.|xx", "t1.0|xx", "t9.5|xx", "x1.5|xx", "t1.5"} {
		if _, ok := parseToken([]byte(bad)); ok {
			t.Errorf("parseToken(%q) accepted a value that is not a token", bad)
		}
	}
}

// The waiver on hot-longro excuses exactly one shape: a read-only transaction
// that saw writer W's version of one key and the version W overwrote of
// another. The real checker confirms both halves: with the fractured reader
// left out the history passes, and any other violation still fails it.
func TestFracturedReadsAreTheOnlyWaiver(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond) }
	id := func(client, seq int) wire.TxnID { return wire.TxnID{Node: wire.NodeID(client), Seq: uint64(seq)} }
	read := func(key string, w wire.TxnID) checker.ReadObs { return checker.ReadObs{Key: key, Writer: w} }
	init := id(initClient, 1)
	keys := []string{"a", "b", "c"}
	preload := checker.ClientTxnObs{ID: init, Writes: keys, Start: at(0), End: at(1),
		Reads: []checker.ReadObs{{Key: "a"}, {Key: "b"}, {Key: "c"}}}
	// W overwrites a and b; R, in flight beside it, sees W's b and the a that
	// W overwrote.
	w := checker.ClientTxnObs{ID: id(0, 1), Writes: []string{"a", "b"}, Start: at(10), End: at(20),
		Reads: []checker.ReadObs{read("a", init), read("b", init)}}
	fractured := checker.ClientTxnObs{ID: id(1, 1), ReadOnly: true, Start: at(11), End: at(19),
		Reads: []checker.ReadObs{read("a", init), read("b", w.ID)}}
	clean := checker.ClientTxnObs{ID: id(1, 2), ReadOnly: true, Start: at(21), End: at(22),
		Reads: []checker.ReadObs{read("a", w.ID), read("b", w.ID), read("c", init)}}
	obs := []checker.ClientTxnObs{preload, w, fractured, clean}

	if got := fracturedReads(obs); !slices.Equal(got, []int{2}) {
		t.Fatalf("fracturedReads = %v, want [2]", got)
	}
	n, checked, err := checkHistory(obs, true)
	if n != 1 || checked != 3 || err != nil {
		t.Errorf("waived: fractured %d, checked %d, err %v; want 1, 3, nil", n, checked, err)
	}
	n, checked, err = checkHistory(obs, false)
	if n != 1 || checked != 4 || err == nil {
		t.Errorf("not waived: fractured %d, checked %d, err %v; want 1, 4 and the checker's cycle", n, checked, err)
	}

	// A stale read — a snapshot taken after W was acknowledged that misses it
	// entirely — is not the waived shape, so it fails with the waiver on too.
	stale := checker.ClientTxnObs{ID: id(1, 3), ReadOnly: true, Start: at(30), End: at(31),
		Reads: []checker.ReadObs{read("a", init), read("c", init)}}
	obs = append(obs, stale)
	n, _, err = checkHistory(obs, true)
	if n != 1 || err == nil {
		t.Errorf("stale read beside the waived one: fractured %d, err %v; want 1 and a violation", n, err)
	}
}

// BENCHMARK.json and the driver must name the same metrics, units and
// directions, and the workloads the driver knows.
func TestBenchmarkFileMatchesDriver(t *testing.T) {
	f, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []def
	for _, m := range f.EndToEnd {
		e2e = append(e2e, def{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.10 {
			t.Errorf("%s: bound %v outside (0, 0.10]: a metric that needs more is demoted, not shipped", m.Name, m.Bound)
		}
	}
	for _, m := range f.PerLayer {
		layers = append(layers, def{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n file   %v\n driver %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per_layer differs:\n file   %v\n driver %v", layers, perLayer)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if s, ok := findSpec(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		} else if w.Why != s.rationale {
			t.Errorf("%s: why differs from the driver's rationale", w.Name)
		}
	}
	var want []string
	for _, s := range workloads {
		want = append(want, s.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json lists workloads %v, the driver runs %v", names, want)
	}
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the driver's window is %d", f.RunSeconds, runSeconds)
	}
}
