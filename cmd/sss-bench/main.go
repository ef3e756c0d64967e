// Command sss-bench regenerates the paper's evaluation figures (§V) on the
// simulated cluster and prints one table per figure. By default it runs a
// quick pass (short measurement windows, laptop-scaled node counts); use
// -duration and -nodes for smoother curves.
//
//	sss-bench -figure 3            # Figure 3: throughput vs nodes
//	sss-bench -figure all -duration 2s
//
// Everything here runs in one process, because the competitor engines have
// no server binary; the multi-process TCP cluster is measured by
// benchmark/run.sh (BENCHMARK.json).
//
// With -json, every figure additionally writes a machine-readable
// BENCH_figure<N>.json snapshot (throughput, latency percentiles, transport
// batching and lock-contention metrics per data point) for perf-trajectory
// tracking across commits. The -cpuprofile/-mutexprofile/-blockprofile
// flags capture pprof profiles of the whole run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/sss-paper/sss"
	"github.com/sss-paper/sss/internal/bench"
	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/profiling"
	"github.com/sss-paper/sss/internal/ycsb"
)

var (
	figure   = flag.String("figure", "all", "figure to regenerate: 3, 4, 5, 6, 7, 8 or all")
	duration = flag.Duration("duration", 400*time.Millisecond, "measurement window per data point")
	warmup   = flag.Duration("warmup", 100*time.Millisecond, "warmup per data point")
	nodesCSV = flag.String("nodes", "2,4,6", "node counts to sweep (paper: 5,10,15,20)")
	clients  = flag.Int("clients", 10, "closed-loop clients per node (paper: 10)")
	seed     = flag.Int64("seed", 1, "workload seed")
	netStats = flag.Bool("net-stats", false, "print per-point transport batching stats")
	jsonOut  = flag.Bool("json", false, "write BENCH_figure<N>.json snapshots per figure")

	cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	mutexProfile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file")
	blockProfile = flag.String("blockprofile", "", "write a blocking profile to this file")
)

func main() {
	flag.Parse()
	if err := checkFigure(*figure); err != nil {
		log.Fatal(err)
	}
	nodeCounts, err := parseInts(*nodesCSV)
	if err != nil {
		log.Fatalf("-nodes: %v", err)
	}
	stopProf, err := profiling.Start(profiling.Config{
		CPU: *cpuProfile, Mutex: *mutexProfile, Block: *blockProfile,
	})
	if err != nil {
		log.Fatal(err)
	}
	run := func(f string) bool { return *figure == "all" || *figure == f }
	if run("3") {
		figure3(nodeCounts)
	}
	if run("4") {
		figure4(nodeCounts)
	}
	if run("5") {
		figure5()
	}
	if run("6") {
		figure6(nodeCounts)
	}
	if run("7") {
		figure7(nodeCounts)
	}
	if run("8") {
		figure8()
	}
	if err := stopProf(); err != nil {
		log.Fatalf("profiling: %v", err)
	}
}

// checkFigure rejects a -figure value no branch of main would run.
func checkFigure(f string) error {
	switch f {
	case "3", "4", "5", "6", "7", "8", "all":
		return nil
	}
	return fmt.Errorf("-figure %q: valid values are 3, 4, 5, 6, 7, 8, all", f)
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// benchPoint is one measurement in the machine-readable snapshot: the
// point's identity, the harness result and the network's transport counters.
type benchPoint struct {
	Series            string  `json:"series"`
	Engine            string  `json:"engine"`
	Nodes             int     `json:"nodes"`
	ReplicationDegree int     `json:"replication_degree"`
	ClientsPerNode    int     `json:"clients_per_node"`
	Keys              int     `json:"keys"`
	ReadOnlyPct       int     `json:"read_only_pct"`
	ReadOnlyOps       int     `json:"read_only_ops,omitempty"`
	Locality          float64 `json:"locality,omitempty"`
	bench.Result
	Transport metrics.TransportSnapshot `json:"transport"`
}

// benchReport is the BENCH_<name>.json document: one figure's points plus
// the run configuration that produced them.
type benchReport struct {
	Name        string        `json:"name"`
	GeneratedAt time.Time     `json:"generated_at"`
	Duration    time.Duration `json:"duration_ns"`
	Warmup      time.Duration `json:"warmup_ns"`
	Seed        int64         `json:"seed"`
	Points      []benchPoint  `json:"points"`
}

// reporter accumulates one figure's points and writes the snapshot file.
type reporter struct {
	name   string
	points []benchPoint
}

func newReporter(name string) *reporter { return &reporter{name: name} }

func (r *reporter) flush() {
	if !*jsonOut {
		return
	}
	doc := benchReport{
		Name:        r.name,
		GeneratedAt: time.Now().UTC(),
		Duration:    *duration,
		Warmup:      *warmup,
		Seed:        *seed,
		Points:      r.points,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatalf("json: %v", err)
	}
	path := fmt.Sprintf("BENCH_%s.json", r.name)
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	fmt.Printf("  [wrote %s: %d points]\n", path, len(r.points))
}

// point runs one measurement and returns the result, recording it in rep.
func point(rep *reporter, series string, eng sss.Engine, nodes, degree int, w ycsb.Config, clientsPerNode int) bench.Result {
	c, err := sss.New(sss.Options{Nodes: nodes, ReplicationDegree: degree, Engine: eng})
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
	defer func() { _ = c.Close() }()
	for _, k := range ycsb.Keyspace(w.Keys) {
		c.Preload(k, []byte("init"))
	}
	var hn []bench.Node
	for i := 0; i < c.NumNodes(); i++ {
		hn = append(hn, sss.HarnessNode(c.Node(i)))
	}
	res := bench.Run(hn, bench.Options{
		Workload:       w,
		ClientsPerNode: clientsPerNode,
		Duration:       *duration,
		Warmup:         *warmup,
		Seed:           *seed,
		Lookup:         cluster.NewLookup(nodes, degree),
	})
	net := c.TransportMetrics().Snapshot()
	if *netStats {
		fmt.Printf("    [net %s n=%d] %s | %s | %s\n", eng, nodes, net, res.Contention, res.CommitRounds)
	}
	if rep != nil {
		rep.points = append(rep.points, benchPoint{
			Series:            series,
			Engine:            string(eng),
			Nodes:             nodes,
			ReplicationDegree: degree,
			ClientsPerNode:    clientsPerNode,
			Keys:              w.Keys,
			ReadOnlyPct:       w.ReadOnlyPct,
			ReadOnlyOps:       w.ReadOnlyOps,
			Locality:          w.Locality,
			Result:            res,
			Transport:         net,
		})
	}
	return res
}

func header(title string) {
	fmt.Printf("\n== %s ==\n", title)
}

func figure3(nodeCounts []int) {
	header("Figure 3: throughput (txn/s) vs node count, replication=2")
	rep := newReporter("figure3")
	for _, ro := range []int{20, 50, 80} {
		fmt.Printf("\n-- %d%% read-only --\n", ro)
		fmt.Printf("%-14s", "series")
		for _, n := range nodeCounts {
			fmt.Printf("%12s", fmt.Sprintf("n=%d", n))
		}
		fmt.Println()
		for _, keys := range []int{5000, 10000} {
			for _, eng := range []sss.Engine{sss.Engine2PC, sss.EngineWalter, sss.EngineSSS} {
				series := fmt.Sprintf("ro%d-%s-%dk", ro, eng, keys/1000)
				fmt.Printf("%-14s", fmt.Sprintf("%s-%dk", eng, keys/1000))
				for _, n := range nodeCounts {
					res := point(rep, series, eng, n, 2, ycsb.Config{Keys: keys, ReadOnlyPct: ro}, *clients)
					fmt.Printf("%12.0f", res.Throughput)
				}
				fmt.Println()
			}
		}
	}
	rep.flush()
}

func figure4(nodeCounts []int) {
	header("Figure 4(a): maximum attainable throughput, 50% ro, 5k keys")
	rep := newReporter("figure4")
	fmt.Printf("%-8s", "series")
	for _, n := range nodeCounts {
		fmt.Printf("%12s", fmt.Sprintf("n=%d", n))
	}
	fmt.Println()
	for _, eng := range []sss.Engine{sss.EngineSSS, sss.Engine2PC} {
		fmt.Printf("%-8s", eng)
		for _, n := range nodeCounts {
			best := 0.0
			for _, cpn := range []int{10, 20, 40} {
				series := fmt.Sprintf("max-tp-%s-c%d", eng, cpn)
				if tp := point(rep, series, eng, n, 2, ycsb.Config{Keys: 5000, ReadOnlyPct: 50}, cpn).Throughput; tp > best {
					best = tp
				}
			}
			fmt.Printf("%12.0f", best)
		}
		fmt.Println()
	}

	header("Figure 4(b): external-commit latency (µs) vs clients/node")
	fmt.Printf("%-8s%12s%12s%12s%12s\n", "series", "1", "3", "5", "10")
	for _, eng := range []sss.Engine{sss.EngineSSS, sss.Engine2PC} {
		fmt.Printf("%-8s", eng)
		for _, cpn := range []int{1, 3, 5, 10} {
			series := fmt.Sprintf("latency-%s", eng)
			res := point(rep, series, eng, 4, 2, ycsb.Config{Keys: 5000, ReadOnlyPct: 50}, cpn)
			fmt.Printf("%12d", res.UpdateLatency.Mean.Microseconds())
		}
		fmt.Println()
	}
	rep.flush()
}

func figure5() {
	header("Figure 5: SSS latency breakdown (µs): internal commit vs pre-commit wait")
	rep := newReporter("figure5")
	fmt.Printf("%-10s%14s%14s%8s\n", "clients", "internal", "pre-commit", "wait%")
	for _, cpn := range []int{1, 3, 5, 10} {
		res := point(rep, "breakdown", sss.EngineSSS, 4, 2, ycsb.Config{Keys: 5000, ReadOnlyPct: 50}, cpn)
		in := res.InternalLatency.Mean.Microseconds()
		wa := res.PreCommitWait.Mean.Microseconds()
		pct := 0.0
		if in+wa > 0 {
			pct = 100 * float64(wa) / float64(in+wa)
		}
		fmt.Printf("%-10d%14d%14d%7.1f%%\n", cpn, in, wa, pct)
	}
	rep.flush()
}

func figure6(nodeCounts []int) {
	header("Figure 6: SSS vs ROCOCO vs 2PC (no replication, 5k keys), txn/s")
	rep := newReporter("figure6")
	for _, ro := range []int{20, 80} {
		fmt.Printf("\n-- %d%% read-only --\n", ro)
		fmt.Printf("%-8s", "series")
		for _, n := range nodeCounts {
			fmt.Printf("%12s", fmt.Sprintf("n=%d", n))
		}
		fmt.Println()
		for _, eng := range []sss.Engine{sss.EngineSSS, sss.Engine2PC, sss.EngineROCOCO} {
			fmt.Printf("%-8s", eng)
			for _, n := range nodeCounts {
				series := fmt.Sprintf("ro%d-%s", ro, eng)
				res := point(rep, series, eng, n, 1, ycsb.Config{Keys: 5000, ReadOnlyPct: ro}, *clients)
				fmt.Printf("%12.0f", res.Throughput)
			}
			fmt.Println()
		}
	}
	rep.flush()
}

func figure7(nodeCounts []int) {
	header("Figure 7: 80% read-only, 50% locality, replication=2, txn/s")
	rep := newReporter("figure7")
	fmt.Printf("%-14s", "series")
	for _, n := range nodeCounts {
		fmt.Printf("%12s", fmt.Sprintf("n=%d", n))
	}
	fmt.Println()
	for _, keys := range []int{5000, 10000} {
		for _, eng := range []sss.Engine{sss.Engine2PC, sss.EngineWalter, sss.EngineSSS} {
			series := fmt.Sprintf("local-%s-%dk", eng, keys/1000)
			fmt.Printf("%-14s", fmt.Sprintf("%s-%dk", eng, keys/1000))
			for _, n := range nodeCounts {
				w := ycsb.Config{Keys: keys, ReadOnlyPct: 80, Distribution: ycsb.Local, Locality: 0.5}
				res := point(rep, series, eng, n, 2, w, *clients)
				fmt.Printf("%12.0f", res.Throughput)
			}
			fmt.Println()
		}
	}
	rep.flush()
}

func figure8() {
	header("Figure 8: SSS speedup vs read-only size (80% ro, no replication)")
	rep := newReporter("figure8")
	fmt.Printf("%-10s%16s%16s\n", "ro keys", "SSS/ROCOCO", "SSS/2PC")
	for _, ops := range []int{2, 4, 8, 16} {
		w := ycsb.Config{Keys: 5000, ReadOnlyPct: 80, ReadOnlyOps: ops}
		tpSSS := point(rep, "ro-size-sss", sss.EngineSSS, 3, 1, w, *clients).Throughput
		tpRoc := point(rep, "ro-size-rococo", sss.EngineROCOCO, 3, 1, w, *clients).Throughput
		tp2PC := point(rep, "ro-size-2pc", sss.Engine2PC, 3, 1, w, *clients).Throughput
		row := func(num, den float64) string {
			if den <= 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.2fx", num/den)
		}
		fmt.Printf("%-10d%16s%16s\n", ops, row(tpSSS, tpRoc), row(tpSSS, tp2PC))
	}
	rep.flush()
	_ = os.Stdout.Sync()
}
