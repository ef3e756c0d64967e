// Command sss-server runs one SSS node over real TCP, for multi-process
// deployments. The cluster address book is given as a comma-separated list
// of host:port pairs (index = node ID); -id selects which entry this
// process serves.
//
// Clients speak the binary protocol of internal/clientproto on
// -client-addr, served by a concurrent session manager: one connection
// multiplexes many interleaved transactions, requests are pipelined and
// answered out of order by request ID, and a dropped connection aborts
// every transaction still open on it. Use the client package
// (github.com/sss-paper/sss/client) or cmd/sss-client to talk to it.
//
// With -metrics-addr the server additionally serves every internal/metrics
// family — engine, per-stage commit histograms, transport, client sessions,
// contention, durability — as a Prometheus text exposition page on
// /metrics (see internal/obs). `sss-client top` polls these endpoints for
// a live cluster view. The same listener serves net/http/pprof under
// /debug/pprof/: `go tool pprof http://<metrics-addr>/debug/pprof/heap` (or
// /profile?seconds=10, /goroutine) against a running node.
//
// Logs are structured key=value records (log/slog) on stderr with a
// node=<id> field; SSS_LOG_LEVEL=debug|info|warn|error selects the level.
//
// Example 3-node cluster on one machine:
//
//	sss-server -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -client-addr :8000 -metrics-addr :9000
//	sss-server -id 1 -peers ...                                          -client-addr :8001 -metrics-addr :9001
//	sss-server -id 2 -peers ...                                          -client-addr :8002 -metrics-addr :9002
//
// On SIGINT/SIGTERM the server logs its transport (and, when durable, WAL)
// counters, drains client sessions (aborting open transactions), and exits.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/sss-paper/sss/internal/clientproto"
	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/engine"
	"github.com/sss-paper/sss/internal/obs"
	"github.com/sss-paper/sss/internal/obs/slogx"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/wal"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

var (
	id          = flag.Int("id", 0, "this node's ID (index into -peers)")
	peers       = flag.String("peers", "127.0.0.1:7000", "comma-separated node addresses")
	clientAddr  = flag.String("client-addr", ":8000", "listen address for the client protocol")
	metricsAddr = flag.String("metrics-addr", "", "listen address for the Prometheus /metrics endpoint (empty = disabled)")
	degree      = flag.Int("replication", 2, "replication degree")

	dataDir  = flag.String("data-dir", "", "WAL/checkpoint directory; enables durability and crash recovery (must exist)")
	ckptIntv = flag.Duration("checkpoint-interval", 30*time.Second, "periodic checkpoint interval bounding WAL replay (0 disables; needs -data-dir)")

	voteTimeout  = flag.Duration("vote-timeout", 0, "2PC vote collection timeout (0 = engine default)")
	drainTimeout = flag.Duration("drain-timeout", 0, "pre-commit snapshot-queue drain timeout (0 = engine default)")
)

// engineStore adapts the engine node to kv.Store for the session manager.
type engineStore struct{ node *engine.Node }

func (s engineStore) Begin(readOnly bool) kv.Txn { return s.node.Begin(readOnly) }

func main() {
	flag.Parse()
	logger := slogx.New(os.Stderr, slog.Int("node", *id))
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	addrs := strings.Split(*peers, ",")
	if *id < 0 || *id >= len(addrs) {
		fatal("node id out of range", "id", *id, "peers", len(addrs))
	}
	book := make(map[wire.NodeID]string, len(addrs))
	for i, a := range addrs {
		book[wire.NodeID(i)] = strings.TrimSpace(a)
	}
	net_ := transport.NewTCP(book)
	lookup := cluster.NewLookup(len(addrs), *degree)
	cfg := engine.Config{VoteTimeout: *voteTimeout, DrainTimeout: *drainTimeout}
	var wlog *wal.Log
	if *dataDir != "" {
		walOpts := wal.Options{}
		// SSS_WAL_FAULT routes all WAL file I/O through a fault injector
		// (chaos harness only): the fault spec is shared cluster-wide via
		// the environment, but stays dormant until the per-node trigger
		// file appears — SSS_WAL_FAULT_TRIGGER, default <data-dir>/FAULT.
		if spec := os.Getenv("SSS_WAL_FAULT"); spec != "" {
			trigger := os.Getenv("SSS_WAL_FAULT_TRIGGER")
			if trigger == "" {
				trigger = *dataDir + "/FAULT"
			}
			inj, err := wal.ParseFault(spec, trigger)
			if err != nil {
				fatal("SSS_WAL_FAULT", "err", err)
			}
			walOpts.OpenFile = inj.OpenFile
			logger.Info("WAL fault injector active", "spec", spec, "trigger", trigger)
		}
		// Fail fast, before joining the cluster: wal.Open rejects a missing
		// or non-directory path, an unwritable one, and a directory still
		// flock-held by another live server — each with a specific error.
		var err error
		wlog, err = wal.Open(*dataDir, walOpts)
		if err != nil {
			fatal("data directory", "err", err)
		}
		cfg.WAL = wlog
		cfg.CheckpointInterval = *ckptIntv
	}
	node, err := engine.New(net_, wire.NodeID(*id), len(addrs), lookup, cfg)
	if err != nil {
		fatal("start node", "err", err)
	}
	if wlog != nil {
		// Replay the checkpoint and WAL, resolving in-doubt transactions
		// against the peers, before the client listener opens: nothing may
		// observe pre-recovery state. The node drops cluster traffic (other
		// than serving peers' recovery queries) until Recover returns.
		start := time.Now()
		if err := node.Recover(); err != nil {
			fatal("recover failed", "dir", *dataDir, "err", err)
		}
		d := node.Durability().Snapshot()
		// Message shape is load-bearing: the crash e2e and the verify drill
		// grep server logs for "recovered from".
		logger.Info(fmt.Sprintf("recovered from %s in %v: %d records scanned, %d commits replayed, %d in-doubt (%d committed, %d aborted)",
			*dataDir, time.Since(start).Round(time.Millisecond),
			d.ReplayRecords, d.ReplayedCommits, d.InDoubt, d.InDoubtCommitted, d.InDoubtAborted))
	}
	logger.Info("sss-server up", "peers", *peers, "replication", *degree, "durability", wlog != nil)

	ln, err := net.Listen("tcp", *clientAddr)
	if err != nil {
		fatal("client listener", "err", err)
	}
	logger.Info(fmt.Sprintf("client protocol on %s", ln.Addr()))
	srv := clientproto.NewServer(engineStore{node}, clientproto.ServerOptions{
		Logf: slogx.Logf(logger),
		// The client-ack stage rides the engine's stage family so the
		// protocol handoff appears in the same per-stage decomposition.
		CommitAck: &node.Stats().Stage.ClientAck,
	})

	// The observability surface: one registry walking every metrics family,
	// served as Prometheus text exposition. Registration is the seam — any
	// counter later added to these structs is exported automatically.
	var metricsLn net.Listener
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		reg.Register("", node.Stats())
		reg.Register("", node.Durability())
		// Metrics() merges the per-peer counters into a fresh struct per
		// call, so the family is gathered at scrape time.
		reg.RegisterFunc("transport", func() any { return net_.Metrics() })
		// Retained-state gauges (sss_commitlog_entries, sss_tombstones,
		// sss_rpc_pending) are counted from live structures at scrape time.
		reg.RegisterFunc("", func() any { return node.Retained() })
		reg.Register("client", srv.Metrics())
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		// Index also serves the named profiles (heap, goroutine, allocs, ...).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		metricsLn, err = net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal("metrics listener", "err", err)
		}
		logger.Info(fmt.Sprintf("metrics on http://%s/metrics", metricsLn.Addr()))
		go func() { _ = http.Serve(metricsLn, mux) }()
	}

	// Graceful shutdown: drain sessions (aborting open transactions) so a
	// killed server never strands snapshot-queue entries at its peers. The
	// drain is bounded: an in-flight Commit parks
	// until external commit, which can never arrive if the peers were
	// SIGTERMed in the same sweep (a whole-cluster shutdown), so after the
	// bound we abandon the stuck handlers rather than hang forever.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-sigs
		// These two message shapes are load-bearing, byte for byte, because
		// captured server logs are parsed: "transport:" by benchmark/stats.go
		// (parseTransportDump; the crash e2e also greps batchResends= out of
		// it) and "durability:" by benchmark/stats.go (parseDurabilityDump).
		// Every other family is on /metrics only.
		logger.Info(fmt.Sprintf("transport: %s", net_.Metrics().Snapshot()))
		if wlog != nil {
			logger.Info(fmt.Sprintf("durability: %s", node.Durability().Snapshot()))
		}
		if metricsLn != nil {
			_ = metricsLn.Close()
		}
		drained := make(chan struct{})
		go func() {
			_ = srv.Close()
			close(drained)
		}()
		select {
		case <-drained:
			_ = node.Close()
			_ = net_.Close()
			if wlog != nil {
				// After node.Close: no appender is left, so this flushes the
				// tail and releases the directory lock for the next boot.
				_ = wlog.Close()
			}
		case <-time.After(5 * time.Second):
			logger.Warn("session drain timed out (in-flight commits waiting on dead peers?); exiting anyway")
		}
	}()

	if err := srv.Serve(ln); err != nil {
		fatal("serve", "err", err)
	}
	// Serve returns once srv.Close() shuts the listener — i.e. mid-way
	// through the signal goroutine's drain sequence. Falling off main here
	// would kill the process before open transactions are aborted; wait for
	// the shutdown to actually finish.
	<-shutdownDone
}
