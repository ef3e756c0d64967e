package harness

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"github.com/sss-paper/sss/client"
	"github.com/sss-paper/sss/internal/obs"
)

// requiredSeries is the exposition contract the live endpoint must serve on
// every node — the same list `sss-client top -once` and the e2e smoke lane
// enforce.
var requiredSeries = []string{
	"sss_commits_total",
	"sss_aborts_total",
	"sss_read_only_runs_total",
	"sss_read_requests_total",
	"sss_read_seen_entries_total",
	"sss_prepare_deps_total",
	"sss_stage_vote_seconds",
	"sss_stage_decide_seconds",
	"sss_stage_freeze_seconds",
	"sss_stage_purge_seconds",
	"sss_stage_wal_sync_seconds",
	"sss_stage_client_ack_seconds",
	"sss_commit_rounds_drains_piggybacked_total",
	"sss_commit_rounds_drain_rounds_total",
	"sss_commit_rounds_freeze_batches_total",
	"sss_commit_rounds_freeze_batch_txns_total",
	"sss_wal_sync_failures_total",
	"sss_transport_batch_resends_total",
	"sss_client_requests_total",
}

// TestMetricsExposition is the acceptance gate for the observability
// surface: a real 3-node durable cluster under client load must serve
// /metrics on every node, with per-stage commit histograms whose counts
// reconcile exactly with the commit counter and, cluster-wide, with the
// CommitRounds structure.
func TestMetricsExposition(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e (use -short to skip)")
	}
	bin, err := serverBin()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Start(Config{Nodes: 3, Replication: 2, BinPath: bin, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Stop() }()

	// Load: per-node clients issuing disjoint-key update transactions (so
	// every commit succeeds and the expected commit count is exact) plus a
	// few server-side read-only snapshots.
	const txnsPerNode, readsPerNode = 40, 10
	var wantCommits uint64
	for i, addr := range c.ClientAddrs() {
		cl, err := client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatalf("dial node %d: %v", i, err)
		}
		for k := 0; k < txnsPerNode; k++ {
			tx := cl.Begin(false)
			key := fmt.Sprintf("met%d-%d", i, k%8)
			if _, _, err := tx.Read(key); err != nil {
				t.Fatalf("node %d read: %v", i, err)
			}
			if err := tx.Write(key, []byte(fmt.Sprintf("v%d", k))); err != nil {
				t.Fatalf("node %d write: %v", i, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("node %d commit: %v", i, err)
			}
			wantCommits++
		}
		for k := 0; k < readsPerNode; k++ {
			if _, err := cl.SnapshotRead([]string{fmt.Sprintf("met%d-%d", i, k%8)}); err != nil {
				t.Fatalf("node %d snapshot read: %v", i, err)
			}
		}
		_ = cl.Close()
	}

	httpc := &http.Client{Timeout: 5 * time.Second}
	addrs := c.MetricsAddrs()
	if len(addrs) != 3 {
		t.Fatalf("MetricsAddrs = %v, want 3 entries", addrs)
	}

	// The same listener serves net/http/pprof: a running node can be asked
	// what it retains and where its CPU goes without a restart or a flag.
	resp, err := httpc.Get("http://" + addrs[0] + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatalf("heap profile of node 0: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/heap?debug=1 on node 0's metrics port: %s", resp.Status)
	}

	// Per-node: the full series contract, exact stage-count parity with the
	// commit counter (vote/decide/freeze are observed at the same instant
	// as Commits, before the client reply, so no quiesce wait is needed),
	// and a clean WAL.
	pages := make([]*obs.Page, len(addrs))
	for i, a := range addrs {
		p, err := obs.Fetch(httpc, a)
		if err != nil {
			t.Fatalf("scrape node %d (%s): %v", i, a, err)
		}
		pages[i] = p
		for _, name := range requiredSeries {
			if !p.Has(name) {
				t.Errorf("node %d: missing required series %s", i, name)
			}
		}
		commits := uint64(p.Counter("sss_commits_total"))
		for _, st := range []string{"vote", "decide", "freeze"} {
			h := p.Hists["sss_stage_"+st+"_seconds"]
			if h == nil {
				t.Errorf("node %d: no sss_stage_%s_seconds histogram", i, st)
				continue
			}
			if h.Count != commits {
				t.Errorf("node %d: stage %s count = %d, want commits = %d", i, st, h.Count, commits)
			}
		}
		if f := p.Counter("sss_wal_sync_failures_total"); f != 0 {
			t.Errorf("node %d: sss_wal_sync_failures_total = %.0f, want 0", i, f)
		}
	}

	// Cluster-wide reconciliation with metrics.CommitRounds: every commit
	// coordinates at least one remote write replica (replication 2), so the
	// drain stage ran — piggybacked on the decide ack or as a standalone
	// round — at least once per commit; and freeze group-commit batches
	// never carry fewer transactions than there were batches.
	merged := obs.MergePages(pages)
	total := uint64(merged.Counter("sss_commits_total"))
	if total != wantCommits {
		t.Errorf("cluster sss_commits_total = %d, want %d", total, wantCommits)
	}
	if ro := uint64(merged.Counter("sss_read_only_runs_total")); ro != 3*readsPerNode {
		t.Errorf("cluster sss_read_only_runs_total = %d, want %d", ro, 3*readsPerNode)
	}
	// One read request per key read; the updates above run one at a time, so
	// no dependency set has anything to hold.
	if reads := uint64(merged.Counter("sss_read_requests_total")); reads != 3*readsPerNode {
		t.Errorf("cluster sss_read_requests_total = %d, want %d", reads, 3*readsPerNode)
	}
	if seen, deps := merged.Counter("sss_read_seen_entries_total"), merged.Counter("sss_prepare_deps_total"); seen > 3*readsPerNode || deps > float64(total) {
		t.Errorf("serial load shipped %.0f Seen entries and %.0f Prepare.Deps entries", seen, deps)
	}
	drains := merged.Counter("sss_commit_rounds_drains_piggybacked_total") +
		merged.Counter("sss_commit_rounds_drain_rounds_total")
	if drains < float64(total) {
		t.Errorf("cluster drains (piggybacked+rounds) = %.0f, want >= commits = %d", drains, total)
	}
	// A Freeze message carries one transaction: the two counters move
	// together, one per freeze a replica receives.
	if b, txns := merged.Counter("sss_commit_rounds_freeze_batches_total"),
		merged.Counter("sss_commit_rounds_freeze_batch_txns_total"); b != txns || b == 0 {
		t.Errorf("freeze batches %.0f, freeze batch txns %.0f: want equal and > 0", b, txns)
	}
	if wals := merged.Hists["sss_stage_wal_sync_seconds"]; wals == nil || wals.Count == 0 {
		t.Error("durable cluster recorded no sss_stage_wal_sync_seconds observations")
	}
	// The fsync budget of the durable commit path on real processes: with
	// the write replicas' freeze records riding their next fsync, these 120
	// serial commits measure 405 fsyncs (3.38 each), against 570 (4.75) when
	// every replica synced its freeze record before the ack. The budget
	// keeps about 30% slack and fails that old path.
	const fsyncBudget = 4.4
	if syncs := merged.Counter("sss_wal_syncs_total"); syncs == 0 {
		t.Error("durable cluster counted no sss_wal_syncs_total")
	} else if perCommit := syncs / float64(total); perCommit > fsyncBudget {
		t.Errorf("%.0f fsyncs for %d commits = %.2f per commit, budget %.1f", syncs, total, perCommit, fsyncBudget)
	} else {
		t.Logf("%.0f fsyncs for %d commits = %.2f per commit", syncs, total, perCommit)
	}

	// Client-ack and purge observations land after the client reply /
	// asynchronously after the freeze ack, so give them a polled grace
	// window instead of asserting instantaneously.
	deadline := time.Now().Add(5 * time.Second)
	for {
		pages := make([]*obs.Page, len(addrs))
		for i, a := range addrs {
			if pages[i], err = obs.Fetch(httpc, a); err != nil {
				t.Fatalf("re-scrape node %d: %v", i, err)
			}
		}
		m := obs.MergePages(pages)
		ack := m.Hists["sss_stage_client_ack_seconds"]
		purge := m.Hists["sss_stage_purge_seconds"]
		if ack != nil && ack.Count >= total && purge != nil && purge.Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stage observations never quiesced: client_ack=%v purge=%v want ack>=%d purge>0",
				histCount(ack), histCount(purge), total)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func histCount(h *obs.Hist) uint64 {
	if h == nil {
		return 0
	}
	return h.Count
}
