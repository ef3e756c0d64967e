package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"github.com/sss-paper/sss/client"
	"github.com/sss-paper/sss/internal/bench"
	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/harness"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/obs"
	"github.com/sss-paper/sss/internal/ycsb"
	"github.com/sss-paper/sss/kv"
)

// figure3TCP is the distributed counterpart of figure3: the same
// throughput-vs-nodes sweep, but each point boots a real multi-process
// cluster (one sss-server per node) and drives it through the public client
// package over loopback TCP. Only the SSS engine runs — the competitors
// have no server binary. Latencies are measured at the client (begin →
// commit return), i.e. they include the client protocol round trips, which
// is the deployment-honest number.
func figure3TCP(nodeCounts []int) {
	bin := *serverBin
	if bin == "" {
		dir, err := os.MkdirTemp("", "sss-bench-bin-*")
		if err != nil {
			log.Fatalf("tcp bench: %v", err)
		}
		defer func() { _ = os.RemoveAll(dir) }()
		fmt.Println("building sss-server...")
		bin, err = harness.BuildServer(dir)
		if err != nil {
			log.Fatalf("tcp bench: %v", err)
		}
	}
	roPcts, err := parseInts(*tcpRO)
	if err != nil {
		log.Fatalf("-tcp-ro: %v", err)
	}
	keySizes, err := parseInts(*tcpKeys)
	if err != nil {
		log.Fatalf("-tcp-keys: %v", err)
	}
	delays := []time.Duration{0}
	rttSweep := false
	if *netDelay != "" {
		if delays, err = parseDurations(*netDelay); err != nil {
			log.Fatalf("-net-delay: %v", err)
		}
		for _, d := range delays {
			if d > 0 {
				rttSweep = true
			}
		}
	}

	header("Figure 3 (TCP): throughput (txn/s) vs node count, replication=2, real processes")
	// The RTT sweep is its own trajectory file: the loopback numbers stay the
	// regression baseline, the delayed numbers track the round-trip economy.
	name := "figure3_tcp"
	if rttSweep {
		name = "figure3_tcp_rtt"
	}
	rep := newReporter(name)
	for _, delay := range delays {
		if rttSweep {
			fmt.Printf("\n==== client-path RTT %v ====\n", delay)
		}
		for _, ro := range roPcts {
			fmt.Printf("\n-- %d%% read-only --\n", ro)
			fmt.Printf("%-14s", "series")
			for _, n := range nodeCounts {
				fmt.Printf("%12s", fmt.Sprintf("n=%d", n))
			}
			fmt.Println()
			for _, keys := range keySizes {
				series := fmt.Sprintf("ro%d-sss-%dk-tcp", ro, keys/1000)
				if rttSweep {
					series = fmt.Sprintf("%s-rtt%s", series, delay)
				}
				if *durability == "wal" {
					series += "-wal"
				}
				fmt.Printf("%-14s", fmt.Sprintf("sss-%dk", keys/1000))
				for _, n := range nodeCounts {
					res := tcpPoint(rep, series, bin, n, 2, ycsb.Config{Keys: keys, ReadOnlyPct: ro}, *clients, delay)
					fmt.Printf("%12.0f", res.Throughput)
				}
				fmt.Println()
			}
		}
	}
	rep.flush()
}

// tcpPoint boots a fresh cluster, preloads the keyspace, runs one measured
// window through per-node clients, and tears everything down. A nonzero
// delay routes the clients through the harness's RTT shim.
func tcpPoint(rep *reporter, series, bin string, nodes, degree int, w ycsb.Config, clientsPerNode int, delay time.Duration) bench.Result {
	hc, err := harness.Start(harness.Config{
		Nodes: nodes, Replication: degree, BinPath: bin,
		ClientNetDelay: delay,
		Durable:        *durability == "wal",
	})
	if err != nil {
		log.Fatalf("tcp bench: start cluster: %v", err)
	}
	defer func() { _ = hc.Stop() }()

	conns := make([]*client.Client, nodes)
	for i, addr := range hc.ClientAddrs() {
		conns[i], err = client.Dial(addr, client.Options{Conns: 2})
		if err != nil {
			log.Fatalf("tcp bench: dial node %d: %v", i, err)
		}
		defer func(c *client.Client) { _ = c.Close() }(conns[i])
	}
	if err := preloadTCP(conns[0], w.Keys); err != nil {
		log.Fatalf("tcp bench: preload: %v", err)
	}

	hn := make([]bench.Node, nodes)
	for i := range conns {
		hn[i] = &tcpNode{c: conns[i], stats: &metrics.Engine{}}
	}
	res := bench.Run(hn, bench.Options{
		Workload:       w,
		ClientsPerNode: clientsPerNode,
		Duration:       *duration,
		Warmup:         *warmup,
		Seed:           *seed,
		Lookup:         cluster.NewLookup(nodes, degree),
	})
	// The closed loop discards transaction errors, and on the TCP path
	// errors are realistic (node death, poisoned connections): a partially
	// failed run would record a silently deflated number. Refuse to emit
	// such a point.
	var errCount uint64
	for i := range hn {
		errCount += hn[i].(*tcpNode).errs.Load()
	}
	for i := 0; i < nodes; i++ {
		if !hc.Alive(i) {
			log.Fatalf("tcp bench: node %d died during the measurement:\n%s", i, hc.LogTail(i, 2048))
		}
	}
	if errCount > 0 {
		log.Fatalf("tcp bench: %d transaction errors during the point (cluster unhealthy; node 0 log tail):\n%s",
			errCount, hc.LogTail(0, 2048))
	}
	// Client-side network counters: one ClientNet per client, merged into the
	// point's aggregate (requests/flush and snapshot-read volume are the two
	// numbers that explain a TCP throughput delta).
	agg := &metrics.ClientNet{}
	for _, c := range conns {
		agg.Merge(c.Metrics())
	}
	clientNet := agg.Snapshot()
	if *netStats {
		fmt.Printf("    [client-net n=%d delay=%v] %s\n", nodes, delay, clientNet)
	}
	// Engine-side per-stage decomposition: the counters live in the server
	// processes, so scrape every node's /metrics endpoint (load is quiesced,
	// so stage counts have settled) and merge the pages cluster-wide.
	stages := scrapeStages(hc)
	if stages != nil && *netStats {
		fmt.Printf("    [stages n=%d] %s\n", nodes, *stages)
	}
	// In durable mode the WAL counters live in the server processes and are
	// only dumped on SIGTERM, so shut the cluster down (keeping its logs
	// readable — the deferred Stop still cleans up) and harvest the last
	// "durability:" line from each node's log.
	var durabilityLines []string
	if *durability == "wal" {
		if err := hc.Shutdown(); err != nil {
			log.Fatalf("tcp bench: shutdown: %v", err)
		}
		for i := 0; i < nodes; i++ {
			line := lastDurabilityLine(hc.LogTail(i, 8192))
			if line == "" {
				log.Fatalf("tcp bench: node %d logged no durability dump:\n%s", i, hc.LogTail(i, 2048))
			}
			durabilityLines = append(durabilityLines, line)
			if *netStats {
				fmt.Printf("    [durability n%d] %s\n", i, line)
			}
		}
	}
	if rep != nil {
		rep.points = append(rep.points, benchPoint{
			Series:            series,
			Engine:            "sss-tcp",
			Nodes:             nodes,
			ReplicationDegree: degree,
			ClientsPerNode:    clientsPerNode,
			Keys:              w.Keys,
			ReadOnlyPct:       w.ReadOnlyPct,
			NetDelay:          delay,
			ThroughputTxnS:    res.Throughput,
			AbortRate:         res.AbortRate,
			Commits:           res.Commits,
			ReadOnly:          res.ReadOnly,
			Aborts:            res.Aborts,
			UpdateLatency:     res.UpdateLatency,
			ReadOnlyLatency:   res.ReadOnlyLatency,
			ClientNet:         &clientNet,
			Durability:        durabilityLines,
			Stages:            stages,
		})
	}
	return res
}

// scrapeStages pulls the per-stage commit histograms off every node's live
// /metrics endpoint and merges them into one cluster-wide snapshot. Returns
// nil when scraping fails or no stage was ever observed (e.g. a pure-RO
// point) — the bench point then simply omits the breakdown.
func scrapeStages(hc *harness.Cluster) *metrics.StagesSnapshot {
	var pages []*obs.Page
	for i, addr := range hc.MetricsAddrs() {
		page, err := obs.Fetch(nil, addr)
		if err != nil {
			log.Printf("tcp bench: scrape node %d metrics: %v (stage breakdown omitted)", i, err)
			return nil
		}
		pages = append(pages, page)
	}
	merged := obs.MergePages(pages).Stages()
	return stagesOrNil(merged)
}

// lastDurabilityLine extracts the payload of the final "durability: " log
// line from a node's log tail (the server dumps its WAL/checkpoint counters
// once, on SIGTERM). The server logs structured key=value records, so the
// payload sits inside msg="durability: ..." — the closing quote (or the end
// of line, for unquoted legacy logs) terminates it.
func lastDurabilityLine(tail string) string {
	const marker = "durability: "
	idx := strings.LastIndex(tail, marker)
	if idx < 0 {
		return ""
	}
	line := tail[idx+len(marker):]
	if nl := strings.IndexByte(line, '\n'); nl >= 0 {
		line = line[:nl]
	}
	if q := strings.IndexByte(line, '"'); q >= 0 {
		line = line[:q]
	}
	return strings.TrimSpace(line)
}

// preloadTCP installs the initial keyspace through the client path, batching
// writes so a 10k keyspace costs ~50 commits instead of 10k.
func preloadTCP(c *client.Client, keys int) error {
	const batch = 200
	space := ycsb.Keyspace(keys)
	for start := 0; start < len(space); start += batch {
		end := start + batch
		if end > len(space) {
			end = len(space)
		}
		tx := c.Begin(false)
		for _, k := range space[start:end] {
			if err := tx.Write(k, []byte("init")); err != nil {
				_ = tx.Abort()
				return fmt.Errorf("write %s: %w", k, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("commit batch at %d: %w", start, err)
		}
	}
	return nil
}

// tcpNode adapts a TCP client to the bench harness. Engine-internal
// histograms live in the server processes; the client side measures what a
// deployment sees — begin-to-commit-return latency — into its own
// histograms (commit/abort *counts* come from bench.Run's per-client
// outcome tally, not from these stats). errs counts non-abort transaction
// failures, which on this path mean the cluster is unhealthy.
type tcpNode struct {
	c     *client.Client
	stats *metrics.Engine
	errs  atomic.Uint64
}

func (n *tcpNode) Begin(readOnly bool) kv.Txn {
	start := time.Now() // before Begin's round trip: it's part of the latency
	return &timedTxn{Txn: n.c.Begin(readOnly), node: n, ro: readOnly, start: start}
}

// SnapshotRead implements kv.SnapshotReader: the bench's read-only
// transactions collapse into the one-round server-side form, timed like
// their interactive counterparts (call → all values returned).
func (n *tcpNode) SnapshotRead(keys []string) ([]kv.ReadResult, error) {
	start := time.Now()
	vals, err := n.c.SnapshotRead(keys)
	if err != nil {
		n.errs.Add(1)
		return nil, err
	}
	n.stats.ReadOnlyLatency.Observe(time.Since(start))
	return vals, nil
}

func (n *tcpNode) Stats() *metrics.Engine { return n.stats }

type timedTxn struct {
	kv.Txn
	node  *tcpNode
	ro    bool
	start time.Time
}

func (t *timedTxn) Read(key string) ([]byte, bool, error) {
	v, ok, err := t.Txn.Read(key)
	if err != nil {
		t.node.errs.Add(1)
	}
	return v, ok, err
}

// MultiRead forwards the concurrent-read-legs capability so the closed loop
// pipelines an update transaction's reads instead of paying one synchronous
// round trip per key.
func (t *timedTxn) MultiRead(keys []string) ([]kv.ReadResult, error) {
	mr, ok := t.Txn.(kv.MultiReader)
	if !ok { // not reachable with the TCP client, but keep semantics honest
		out := make([]kv.ReadResult, len(keys))
		for i, k := range keys {
			v, exists, err := t.Read(k)
			if err != nil {
				return nil, err
			}
			out[i] = kv.ReadResult{Val: v, Exists: exists}
		}
		return out, nil
	}
	res, err := mr.MultiRead(keys)
	if err != nil {
		t.node.errs.Add(1)
	}
	return res, err
}

func (t *timedTxn) Write(key string, val []byte) error {
	err := t.Txn.Write(key, val)
	if err != nil {
		t.node.errs.Add(1)
	}
	return err
}

func (t *timedTxn) Commit() error {
	err := t.Txn.Commit()
	d := time.Since(t.start)
	switch {
	case err == nil && t.ro:
		t.node.stats.ReadOnlyLatency.Observe(d)
	case err == nil:
		t.node.stats.CommitLatency.Observe(d)
	case !errors.Is(err, kv.ErrAborted):
		t.node.errs.Add(1)
	}
	return err
}
