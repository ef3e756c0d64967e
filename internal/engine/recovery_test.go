package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/mvstore"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wal"
	"github.com/sss-paper/sss/internal/wire"
)

// openWAL opens (creating if needed) the WAL directory for node id under
// root. NoSync keeps the tests fast; the data still reaches the files, so a
// reopen in the same process observes exactly what a crash would have left.
func openWAL(t *testing.T, root string, id int) *wal.Log {
	t.Helper()
	dir := filepath.Join(root, fmt.Sprintf("node%d", id))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	return w
}

// Each restart incarnation gets a fresh in-process network: InProc
// deliberately rejects re-joining a NodeID (live pipes would still point at
// the dead dispatcher). Real same-cluster rejoin is covered by the TCP
// harness e2e; these tests exercise the recovery logic itself.

func TestRecoverReplaysCommits(t *testing.T) {
	root := t.TempDir()
	lookup := cluster.NewLookup(1, 1)

	net1 := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
	w1 := openWAL(t, root, 0)
	nd1, err := New(net1, 0, 1, lookup, Config{WAL: w1})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd1.Recover(); err != nil {
		t.Fatalf("recover (fresh dir): %v", err)
	}
	nd1.Preload("x", []byte("v0"))
	nd1.Preload("y", []byte("v0"))
	writeKey(t, nd1, "x", "v1")
	writeKey(t, nd1, "y", "y1")
	writeKey(t, nd1, "x", "v2")
	_ = nd1.Close()
	_ = net1.Close()
	_ = w1.Close()

	net2 := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
	w2 := openWAL(t, root, 0)
	nd2, err := New(net2, 0, 1, lookup, Config{WAL: w2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = nd2.Close()
		_ = net2.Close()
		_ = w2.Close()
	})
	if err := nd2.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}

	if got := readKey(t, nd2, "x"); got != "v2" {
		t.Fatalf("x = %q after restart, want v2", got)
	}
	if got := readKey(t, nd2, "y"); got != "y1" {
		t.Fatalf("y = %q after restart, want y1", got)
	}
	if n := nd2.Durability().ReplayedCommits.Load(); n < 3 {
		t.Fatalf("ReplayedCommits = %d, want >= 3", n)
	}
	// The restarted node must keep taking writes (fresh TxnID epoch).
	writeKey(t, nd2, "x", "v3")
	if got := readKey(t, nd2, "x"); got != "v3" {
		t.Fatalf("x = %q after post-restart write, want v3", got)
	}
}

func TestRecoverWithCheckpoint(t *testing.T) {
	root := t.TempDir()
	lookup := cluster.NewLookup(1, 1)

	boot := func() (*Node, *wal.Log, *transport.InProc) {
		net := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
		w := openWAL(t, root, 0)
		nd, err := New(net, 0, 1, lookup, Config{WAL: w})
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Recover(); err != nil {
			t.Fatalf("recover: %v", err)
		}
		return nd, w, net
	}
	shutdown := func(nd *Node, w *wal.Log, net *transport.InProc) {
		_ = nd.Close()
		_ = net.Close()
		_ = w.Close()
	}

	nd, w, net := boot()
	nd.Preload("x", []byte("v0"))
	nd.Preload("y", []byte("v0"))
	writeKey(t, nd, "x", "v1")
	writeKey(t, nd, "y", "y1")
	if err := nd.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	writeKey(t, nd, "x", "v2") // lands in the post-checkpoint segment
	shutdown(nd, w, net)

	nd, w, net = boot()
	if got := readKey(t, nd, "x"); got != "v2" {
		t.Fatalf("x = %q after checkpointed restart, want v2", got)
	}
	if got := readKey(t, nd, "y"); got != "y1" {
		t.Fatalf("y = %q after checkpointed restart, want y1", got)
	}
	// Checkpoint the recovered state and survive another restart: the cut
	// must capture replayed versions and clocks, not just live ones.
	writeKey(t, nd, "y", "y2")
	if err := nd.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
	shutdown(nd, w, net)

	nd, w, net = boot()
	t.Cleanup(func() { shutdown(nd, w, net) })
	if got := readKey(t, nd, "x"); got != "v2" {
		t.Fatalf("x = %q after second restart, want v2", got)
	}
	if got := readKey(t, nd, "y"); got != "y2" {
		t.Fatalf("y = %q after second restart, want y2", got)
	}
}

func TestFullClusterRestartPreservesData(t *testing.T) {
	root := t.TempDir()
	const n = 2
	lookup := cluster.NewLookup(n, n)

	boot := func() ([]*Node, []*wal.Log, *transport.InProc) {
		net := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
		nodes := make([]*Node, n)
		wals := make([]*wal.Log, n)
		for i := 0; i < n; i++ {
			wals[i] = openWAL(t, root, i)
			nd, err := New(net, wire.NodeID(i), n, lookup, Config{WAL: wals[i]})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = nd
		}
		for _, nd := range nodes {
			if err := nd.Recover(); err != nil {
				t.Fatalf("node %d recover: %v", nd.ID(), err)
			}
		}
		return nodes, wals, net
	}
	shutdown := func(nodes []*Node, wals []*wal.Log, net *transport.InProc) {
		for _, nd := range nodes {
			_ = nd.Close()
		}
		_ = net.Close()
		for _, w := range wals {
			_ = w.Close()
		}
	}

	nodes, wals, net := boot()
	for _, nd := range nodes {
		for j := 0; j < 4; j++ {
			nd.Preload(fmt.Sprintf("k%d", j), []byte("v0"))
		}
	}
	for i := 0; i < 10; i++ {
		writeKey(t, nodes[i%n], fmt.Sprintf("k%d", i%4), fmt.Sprintf("v%d", i))
	}
	want := map[string]string{}
	for j := 0; j < 4; j++ {
		k := fmt.Sprintf("k%d", j)
		want[k] = readKey(t, nodes[0], k)
	}
	shutdown(nodes, wals, net)

	nodes, wals, net = boot()
	t.Cleanup(func() { shutdown(nodes, wals, net) })
	for k, v := range want {
		for i, nd := range nodes {
			if got := readKey(t, nd, k); got != v {
				t.Fatalf("node %d: %s = %q after restart, want %q", i, k, got, v)
			}
		}
	}
	// The restarted cluster must still commit and propagate updates.
	writeKey(t, nodes[1], "k0", "post-restart")
	if got := readKey(t, nodes[0], "k0"); got != "post-restart" {
		t.Fatalf("k0 = %q via node 0 after post-restart write, want post-restart", got)
	}
}

// TestTxnStatusMidRecovery pins the concurrent-restart contract: a durable
// node must answer in-doubt TxnStatus queries for commits as soon as its WAL
// scan has populated the coordinator ledger (statusReady), even though the
// rest of recovery is still running — otherwise a restarting participant's
// retry budget can expire into presumed abort while its coordinator is
// merely slow to replay. Unknowns stay unanswered (the query times out and
// the peer retries) until recovery completes: presumed abort is final at the
// peer, a retry is not.
func TestTxnStatusMidRecovery(t *testing.T) {
	root := t.TempDir()
	lookup := cluster.NewLookup(2, 2)
	net := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
	w := openWAL(t, root, 0)
	nd, err := New(net, 0, 2, lookup, Config{WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := transport.NewRPC(net, 1, func(wire.NodeID, uint64, wire.Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = nd.Close()
		_ = peer.Close()
		_ = net.Close()
		_ = w.Close()
	})
	committed := wire.TxnID{Node: 0, Seq: 3}
	unknown := wire.TxnID{Node: 0, Seq: 4}
	query := func(txn wire.TxnID) (*wire.TxnStatusReply, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		resp, err := peer.Call(ctx, 0, &wire.TxnStatus{Txn: txn})
		if err != nil {
			return nil, err
		}
		return resp.(*wire.TxnStatusReply), nil
	}

	// New with a WAL boots recovering; before the scan completes even
	// TxnStatus is dropped (the ledger may be mid-populate).
	if _, err := query(committed); err == nil {
		t.Fatal("TxnStatus answered before the WAL scan populated coordStatus")
	}

	// Simulate the end of Recover's phase 2: ledger populated, gate open,
	// apply phases (recovering=true) still running.
	nd.recordCoordDecision(committed, vclock.VC{2, 2})
	nd.statusReady.Store(true)

	rep, err := query(committed)
	if err != nil {
		t.Fatalf("TxnStatus for a scanned commit mid-recovery: %v", err)
	}
	if !rep.Known || !rep.Commit || rep.VC[0] != 2 {
		t.Fatalf("mid-recovery commit reply = %+v, want known commit with VC[0]=2", rep)
	}
	// Unknowns mid-recovery are dropped, not answered: a premature unknown
	// would read as a definitive presumed abort at the peer.
	if _, err := query(unknown); err == nil {
		t.Fatal("mid-recovery TxnStatus answered unknown — peer would presume abort early")
	}

	// Recovery done: unknown is now definitive.
	nd.recovering.Store(false)
	rep, err = query(unknown)
	if err != nil {
		t.Fatalf("TxnStatus after recovery: %v", err)
	}
	if rep.Known {
		t.Fatalf("post-recovery reply for unknown txn = %+v, want unknown", rep)
	}
}

// TestTxnStatusAnswersOldDecisions pins the in-doubt window: the status table
// alone answers a commit decision far behind the decision stream — more than
// 1 << 14 decisions old — and forgets one only past maxCoordStatus.
func TestTxnStatusAnswersOldDecisions(t *testing.T) {
	net := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
	w := openWAL(t, t.TempDir(), 0)
	nd, err := New(net, 0, 2, cluster.NewLookup(2, 2), Config{WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := transport.NewRPC(net, 1, func(wire.NodeID, uint64, wire.Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = nd.Close()
		_ = peer.Close()
		_ = net.Close()
		_ = w.Close()
	})
	if err := nd.Recover(); err != nil { // a fresh log: opens the node
		t.Fatal(err)
	}
	query := func(txn wire.TxnID) *wire.TxnStatusReply {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		resp, err := peer.Call(ctx, 0, &wire.TxnStatus{Txn: txn})
		if err != nil {
			t.Fatalf("TxnStatus %v: %v", txn, err)
		}
		return resp.(*wire.TxnStatusReply)
	}
	decide := func(seq uint64) {
		nd.recordCoordDecision(wire.TxnID{Node: 0, Seq: seq}, vclock.VC{seq, 0})
	}
	old := wire.TxnID{Node: 0, Seq: 1}
	for seq := uint64(1); seq <= 1<<14+1000; seq++ {
		decide(seq)
	}
	if rep := query(old); !rep.Known || !rep.Commit || rep.VC[0] != 1 {
		t.Fatalf("decision %d behind the stream: reply %+v, want known commit with VC[0]=1", 1<<14+999, rep)
	}
	for seq := uint64(1<<14 + 1001); seq <= maxCoordStatus+1; seq++ {
		decide(seq)
	}
	if rep := query(old); rep.Known {
		t.Fatalf("decision past maxCoordStatus: reply %+v, want unknown (evicted)", rep)
	}
}

// TestInDoubtResolution is the deterministic puppet-coordinator regression:
// a real participant votes yes on a prepare, crashes before any decide
// arrives, and on recovery must resolve the in-doubt transaction to exactly
// the outcome the (scripted) coordinator reports — apply with the logged
// write set and the coordinator's freeze stamp on commit, drop it on
// presumed abort, and presume abort when the coordinator stays unreachable
// past the retry budget.
func TestInDoubtResolution(t *testing.T) {
	cases := []struct {
		name      string
		reply     *wire.TxnStatusReply // nil: coordinator never answers
		wantVal   bool
		wantStamp uint64
	}{
		{
			name: "commit",
			reply: &wire.TxnStatusReply{
				Known: true, Commit: true,
				VC:       vclock.VC{1, 1},
				FreezeVC: vclock.VC{3, 2},
			},
			wantVal:   true,
			wantStamp: 3, // FreezeVC[0]: the replica-independent stamp for node 0
		},
		{name: "presumed-abort", reply: &wire.TxnStatusReply{}},
		{name: "coordinator-down", reply: nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			lookup := cluster.NewLookup(2, 2)
			txn := wire.TxnID{Node: 1, Seq: 7}

			// Pre-crash: node 0 is a real durable participant; node 1 is a
			// bare endpoint that prepares the transaction and vanishes
			// without ever deciding.
			net1 := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
			w1 := openWAL(t, root, 0)
			nd1, err := New(net1, 0, 2, lookup, Config{WAL: w1})
			if err != nil {
				t.Fatal(err)
			}
			if err := nd1.Recover(); err != nil {
				t.Fatal(err)
			}
			coord, err := transport.NewRPC(net1, 1, func(wire.NodeID, uint64, wire.Msg) {})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			resp, err := coord.Call(ctx, 0, &wire.Prepare{
				Txn:    txn,
				VC:     vclock.New(2),
				Writes: []wire.KV{{Key: "k", Val: []byte("recovered")}},
			})
			cancel()
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			if vote, ok := resp.(*wire.Vote); !ok || !vote.OK {
				t.Fatalf("vote = %#v, want yes", resp)
			}
			_ = nd1.Close()
			_ = coord.Close()
			_ = net1.Close()
			_ = w1.Close()

			// Restart against a puppet coordinator scripted to the verdict.
			net2 := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
			var puppet *transport.RPC
			puppet, err = transport.NewRPC(net2, 1, func(from wire.NodeID, rid uint64, msg wire.Msg) {
				if _, ok := msg.(*wire.TxnStatus); ok && tc.reply != nil {
					rep := *tc.reply
					rep.Txn = txn
					_ = puppet.Reply(from, rid, &rep)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			w2 := openWAL(t, root, 0)
			nd2, err := New(net2, 0, 2, lookup, Config{WAL: w2, VoteTimeout: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				_ = nd2.Close()
				_ = puppet.Close()
				_ = net2.Close()
				_ = w2.Close()
			})
			if err := nd2.Recover(); err != nil {
				t.Fatalf("recover: %v", err)
			}

			d := nd2.Durability()
			if got := d.InDoubt.Load(); got != 1 {
				t.Fatalf("InDoubt = %d, want 1", got)
			}
			res := nd2.store.Latest("k")
			if !tc.wantVal {
				if res.Exists {
					t.Fatalf("in-doubt write applied despite abort verdict: %q", res.Val)
				}
				if got := d.InDoubtAborted.Load(); got != 1 {
					t.Fatalf("InDoubtAborted = %d, want 1", got)
				}
				return
			}
			if !res.Exists || string(res.Val) != "recovered" {
				t.Fatalf("k = %q/%v after commit verdict, want recovered", res.Val, res.Exists)
			}
			if res.Writer != txn {
				t.Fatalf("k writer = %v, want %v", res.Writer, txn)
			}
			if got := d.InDoubtCommitted.Load(); got != 1 {
				t.Fatalf("InDoubtCommitted = %d, want 1", got)
			}
			var stamp uint64
			_ = nd2.store.Dump(func(key string, v mvstore.VersionRec) error {
				if key == "k" && v.Writer == txn {
					stamp = v.ExtSID
				}
				return nil
			})
			if stamp != tc.wantStamp {
				t.Fatalf("recovered stamp = %d, want %d (the coordinator's freeze vector entry)", stamp, tc.wantStamp)
			}
		})
	}
}

// TestFreezeResolution covers the decided-but-unfrozen WAL state: the
// replica logged prepare AND decide, but crashed before any freeze record
// became durable (the coordinator's awaitFreezeAcks allows exactly this — it
// releases the client reply once the FreezeAckBudget runs out with a replica
// still unacked, and keeps redelivering the freeze). Recovery must not
// settle for the floor stamp while the coordinator is alive: phase 3b asks
// it for the freeze vector, so the restarted replica re-stamps with the
// same replica-independent stamp every live replica recorded. Only when
// the coordinator is unreachable may the version fall back to the floor.
func TestFreezeResolution(t *testing.T) {
	cases := []struct {
		name      string
		reply     *wire.TxnStatusReply // nil: coordinator never answers
		wantStamp uint64
		resolved  bool
	}{
		{
			name: "coordinator-answers",
			reply: &wire.TxnStatusReply{
				Known: true, Commit: true,
				VC:       vclock.VC{1, 1},
				FreezeVC: vclock.VC{4, 2},
			},
			wantStamp: 4, // FreezeVC[0], not the floor
			resolved:  true,
		},
		{
			name:      "coordinator-down",
			reply:     nil,
			wantStamp: 1, // the commit clock's own slot: the documented floor
			resolved:  false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			lookup := cluster.NewLookup(2, 2)
			txn := wire.TxnID{Node: 1, Seq: 7}

			// Pre-crash: node 0 votes yes on the prepare and processes the
			// commit decide, so both records are durable — but the bare
			// coordinator endpoint vanishes before any freeze is sent.
			net1 := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
			w1 := openWAL(t, root, 0)
			nd1, err := New(net1, 0, 2, lookup, Config{WAL: w1})
			if err != nil {
				t.Fatal(err)
			}
			if err := nd1.Recover(); err != nil {
				t.Fatal(err)
			}
			coord, err := transport.NewRPC(net1, 1, func(wire.NodeID, uint64, wire.Msg) {})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			resp, err := coord.Call(ctx, 0, &wire.Prepare{
				Txn:    txn,
				VC:     vclock.New(2),
				Writes: []wire.KV{{Key: "k", Val: []byte("frozenless")}},
			})
			cancel()
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			if vote, ok := resp.(*wire.Vote); !ok || !vote.OK {
				t.Fatalf("vote = %#v, want yes", resp)
			}
			ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
			if _, err = coord.Call(ctx, 0, &wire.Decide{
				Txn: txn, Commit: true, VC: vclock.VC{1, 1},
			}); err != nil {
				cancel()
				t.Fatalf("decide: %v", err)
			}
			cancel()
			_ = nd1.Close()
			_ = coord.Close()
			_ = net1.Close()
			_ = w1.Close()

			// Restart against a puppet coordinator scripted to the verdict.
			net2 := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
			var puppet *transport.RPC
			puppet, err = transport.NewRPC(net2, 1, func(from wire.NodeID, rid uint64, msg wire.Msg) {
				if _, ok := msg.(*wire.TxnStatus); ok && tc.reply != nil {
					rep := *tc.reply
					rep.Txn = txn
					_ = puppet.Reply(from, rid, &rep)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			w2 := openWAL(t, root, 0)
			nd2, err := New(net2, 0, 2, lookup, Config{WAL: w2, VoteTimeout: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				_ = nd2.Close()
				_ = puppet.Close()
				_ = net2.Close()
				_ = w2.Close()
			})
			if err := nd2.Recover(); err != nil {
				t.Fatalf("recover: %v", err)
			}

			d := nd2.Durability()
			// The decide is durable, so the transaction must never count as
			// in-doubt — freeze resolution is a separate, weaker condition.
			if got := d.InDoubt.Load(); got != 0 {
				t.Fatalf("InDoubt = %d, want 0 (decide record was durable)", got)
			}
			res := nd2.store.Latest("k")
			if !res.Exists || string(res.Val) != "frozenless" {
				t.Fatalf("k = %q/%v after restart, want frozenless", res.Val, res.Exists)
			}
			var stamp uint64
			_ = nd2.store.Dump(func(key string, v mvstore.VersionRec) error {
				if key == "k" && v.Writer == txn {
					stamp = v.ExtSID
				}
				return nil
			})
			if stamp != tc.wantStamp {
				t.Fatalf("recovered stamp = %d, want %d", stamp, tc.wantStamp)
			}
			if tc.resolved {
				if got := d.FreezeResolved.Load(); got != 1 {
					t.Fatalf("FreezeResolved = %d, want 1", got)
				}
				// The resolved freeze must also fold into the node's
				// external-knowledge clock, or post-restart snapshots would
				// regress below the recovered stamp.
				if ext := nd2.log.ExternalVC(); ext[0] < tc.wantStamp {
					t.Fatalf("ExternalVC = %v after resolution, want own slot >= %d", ext, tc.wantStamp)
				}
			} else if got := d.FreezeUnresolved.Load(); got != 1 {
				t.Fatalf("FreezeUnresolved = %d, want 1", got)
			}
		})
	}
}

// TestClockCatchup covers recovery's final phase: a restarted node folds
// every live peer's external-knowledge clock into its own before taking
// traffic, because knowledge acquired through reads and votes is volatile
// and a regressed post-restart clock serves client-acked writes stale.
func TestClockCatchup(t *testing.T) {
	cases := []struct {
		name    string
		peerExt vclock.VC // nil: peer never answers
	}{
		{name: "peer-answers", peerExt: vclock.VC{5, 9}},
		{name: "peer-down", peerExt: nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			lookup := cluster.NewLookup(2, 2)

			// Seed a durable node so the restart has something to replay.
			net1 := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
			w1 := openWAL(t, root, 0)
			nd1, err := New(net1, 0, 2, lookup, Config{WAL: w1})
			if err != nil {
				t.Fatal(err)
			}
			if err := nd1.Recover(); err != nil {
				t.Fatal(err)
			}
			_ = nd1.Close()
			_ = net1.Close()
			_ = w1.Close()

			net2 := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
			var puppet *transport.RPC
			puppet, err = transport.NewRPC(net2, 1, func(from wire.NodeID, rid uint64, msg wire.Msg) {
				if _, ok := msg.(*wire.ClockSync); ok && tc.peerExt != nil {
					_ = puppet.Reply(from, rid, &wire.ClockSyncReply{Ext: tc.peerExt.Clone()})
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			w2 := openWAL(t, root, 0)
			nd2, err := New(net2, 0, 2, lookup, Config{WAL: w2, VoteTimeout: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				_ = nd2.Close()
				_ = puppet.Close()
				_ = net2.Close()
				_ = w2.Close()
			})
			if err := nd2.Recover(); err != nil {
				t.Fatalf("recover: %v", err)
			}

			d := nd2.Durability()
			if tc.peerExt == nil {
				if got := d.ClockSyncMisses.Load(); got != 1 {
					t.Fatalf("ClockSyncMisses = %d, want 1", got)
				}
				return
			}
			if got := d.ClockSyncPeers.Load(); got != 1 {
				t.Fatalf("ClockSyncPeers = %d, want 1", got)
			}
			ext := nd2.log.ExternalVC()
			if ext[0] < tc.peerExt[0] || ext[1] < tc.peerExt[1] {
				t.Fatalf("ExternalVC = %v after catch-up, want >= %v", ext, tc.peerExt)
			}
			// NodeVC must dominate the folded knowledge (the Bootstrap
			// invariant): fresh write slots are assigned above every
			// externally known stamp of this node.
			if nvc := nd2.log.NodeVC(); nvc[0] < tc.peerExt[0] {
				t.Fatalf("NodeVC = %v after catch-up, want own slot >= %d", nvc, tc.peerExt[0])
			}
		})
	}
}

// TestClockCatchupPeerReadyLate pins the cold-boot case: a peer still
// scanning its own WAL drops ClockSync until its statusReady flips, here 50
// ms in. The restarting node must retry on a short, doubling timeout and be
// caught up well before one VoteTimeout, not wait out a whole VoteTimeout
// per dropped attempt.
func TestClockCatchupPeerReadyLate(t *testing.T) {
	root := t.TempDir()
	lookup := cluster.NewLookup(2, 2)
	net := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
	w0, w1 := openWAL(t, root, 0), openWAL(t, root, 1)
	nd0, err := New(net, 0, 2, lookup, Config{WAL: w0})
	if err != nil {
		t.Fatal(err)
	}
	// The peer boots recovering, as every durable node does, and never runs
	// Recover here: only its statusReady gate decides whether it answers.
	peer, err := New(net, 1, 2, lookup, Config{WAL: w1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = nd0.Close()
		_ = peer.Close()
		_ = net.Close()
		_ = w0.Close()
		_ = w1.Close()
	})
	peerExt := vclock.VC{5, 9}
	peer.log.RecordExternal(peerExt)

	start := time.Now()
	flip := time.AfterFunc(50*time.Millisecond, func() { peer.statusReady.Store(true) })
	defer flip.Stop()
	if err := nd0.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	took := time.Since(start)

	d := nd0.Durability()
	if got := d.ClockSyncMisses.Load(); got != 0 {
		t.Fatalf("ClockSyncMisses = %d, want 0", got)
	}
	if got := d.ClockSyncPeers.Load(); got != 1 {
		t.Fatalf("ClockSyncPeers = %d, want 1", got)
	}
	if ext := nd0.log.ExternalVC(); ext[0] < peerExt[0] || ext[1] < peerExt[1] {
		t.Fatalf("ExternalVC = %v after catch-up, want >= %v", ext, peerExt)
	}
	if took >= 150*time.Millisecond {
		t.Fatalf("recovery took %v behind a peer ready at 50ms, want < 150ms", took)
	}
}

// TestRecoverRestoresFreezeKnow pins the WAL half of the dependency-lifetime
// rule: what a committer learned by waiting out its pending writers reaches a
// write replica's external-knowledge clock through Freeze.Know, and — since
// readers of the purged version rely on that clock instead of a dependency set
// — it must come back from the replica's freeze record after a crash.
func TestRecoverRestoresFreezeKnow(t *testing.T) {
	root := t.TempDir()
	lookup := cluster.NewLookup(1, 1)
	boot := func() (*Node, func()) {
		net := transport.NewInProc(transport.InProcConfig{DisableLatency: true})
		w := openWAL(t, root, 0)
		nd, err := New(net, 0, 1, lookup, Config{WAL: w})
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Recover(); err != nil {
			t.Fatalf("recover: %v", err)
		}
		return nd, func() {
			_ = nd.Close()
			_ = net.Close()
			_ = w.Close()
		}
	}
	nd1, stop1 := boot()
	nd1.Preload("k", []byte("v0"))
	txn := wire.TxnID{Node: 0, Seq: 1 << 40}
	commitVC := puppetCommit(t, nd1, txn, []wire.KV{{Key: "k", Val: []byte("v1")}}, []wire.NodeID{0})
	const learned = 1000 // far above any slot or stamp this node assigns
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := nd1.rpc.Call(ctx, 0, &wire.Freeze{
		Txn: txn, VC: puppetDrain(t, nd1, txn, commitVC, []wire.NodeID{0}), Know: vclock.VC{learned},
	}); err != nil {
		t.Fatalf("freeze: %v", err)
	}
	if got := nd1.log.ExternalVC()[0]; got != learned {
		t.Fatalf("live fold: external clock %d, want %d", got, learned)
	}
	stop1()

	nd2, stop2 := boot()
	defer stop2()
	if got := nd2.log.ExternalVC()[0]; got != learned {
		t.Fatalf("after restart: external clock %d, want %d (Know lost from the freeze record)", got, learned)
	}
}
