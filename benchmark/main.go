// Command benchmark is the repo's benchmark (see README.md in this
// directory): it boots a real 3-process sss-server cluster per workload
// through internal/harness, drives it through the public client package in a
// closed loop, checks what it read, and prints every metric by name and unit.
// Layers are measured from outside the program: spans around the calls into
// client, deltas of the servers' /metrics pages and SIGTERM dump lines,
// /proc/<pid>/stat of the server processes, and timed calls into each
// layer's exported functions.
//
// BENCHMARK.json at the repo root names the command (run.sh, which builds
// and then starts this driver from the checkout root) and fixes each
// end-to-end metric's bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"
)

// def names one metric; the lists below are the benchmark's vocabulary and
// must match BENCHMARK.json (a test compares them).
type def struct{ name, unit, better string }

var endToEnd = []def{
	{"setup_s", "s", "lower"},
	{"upd_commit_ratio", "ratio", "higher"},
	{"server_rss_mb", "MB", "lower"},
}

// demoted are the end-to-end metrics the issue named that do not repeat
// within a tenth on the CPU-bound workloads (README, Calibration), so
// BENCHMARK.json carries them as per-layer rows, without a bound, under the
// same names. The timed run measures them all the same, tracing off, and
// prints them in its table.
var demoted = []def{
	{"txn_per_s", "1/s", "higher"},
	{"ro_p50_ms", "ms", "lower"},
	{"ro_p99_ms", "ms", "lower"},
	{"upd_p50_ms", "ms", "lower"},
	{"upd_p99_ms", "ms", "lower"},
	{"server_cpu_us_per_txn", "us", "lower"},
	{"error_ratio", "ratio", "lower"},
}

// result is one workload run: the end-to-end metrics of a timed run, or the
// per-layer metrics of a traced run.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Values    map[string]float64 `json:"values"`
	Samples   map[string]int     `json:"samples,omitempty"`
}

// defs are the metrics of the run's contract line.
func (r *result) defs() []def {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// absorb folds one phase's tallies into the attempted/failed counts.
func (r *result) absorb(tallies []tally) {
	for _, t := range tallies {
		r.Attempted += t.completed() + t.aborts + t.failed
		r.Failed += t.failed
		if t.firstErr != nil {
			r.problem("%v", t.firstErr)
		}
	}
}

// runSeconds is the measured window, BENCHMARK.json's run_seconds, and a
// constant of the benchmark: the longest that keeps the contract's 92 runs of
// four workloads, each with its set-up of four to six seconds, inside the
// contract's total time. Figures from windows of another length are not
// comparable (hot-longro's decay alone sees to that), so --seconds, which the
// contract's command line carries, is accepted only with this value.
const runSeconds = 25

type workloadFlag []string

func (w *workloadFlag) String() string     { return fmt.Sprint(*w) }
func (w *workloadFlag) Set(s string) error { *w = append(*w, s); return nil }

func main() {
	if os.Getenv(spinEnv) != "" {
		spin()
	}
	var names workloadFlag
	flag.Var(&names, "workload", "workload to run (repeatable; default: all four)")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same requests")
	seconds := flag.Int("seconds", runSeconds, "length of the measured window; a constant of the benchmark, so no other value is accepted")
	trace := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics and probes")
	selfcheck := flag.Bool("selfcheck", false, "run two alternating sets of three timed runs per workload and fail if the medians of any end-to-end metric differ by more than its BENCHMARK.json bound")
	jsonOut := flag.String("json", "", "also write every result, with sample counts, to this file")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *seconds != runSeconds {
		fmt.Fprintf(os.Stderr, "--seconds %d: the window is a constant of the benchmark, %d s (BENCHMARK.json run_seconds)\n", *seconds, runSeconds)
		os.Exit(2)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(130)
	}()
	live.Lock()
	live.spinners = startSpinners()
	live.Unlock()
	code := run(names, *seed, *trace == 1, *selfcheck, *jsonOut)
	cleanup()
	os.Exit(code)
}

func run(names []string, seed int64, traced, selfcheck bool, jsonOut string) int {
	if len(names) == 0 {
		for _, s := range workloads {
			names = append(names, s.name)
		}
	}
	var specs []spec
	for _, n := range names {
		s, ok := findSpec(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", n)
			return 2
		}
		specs = append(specs, s)
	}
	if _, err := os.Stat(serverBin); err != nil {
		fmt.Fprintf(os.Stderr, "%v: start the benchmark through benchmark/run.sh from the repo root\n", err)
		return 2
	}

	// A self-check is selfcheckRuns passes for each of two sets, alternating
	// (A B A B ...) so that both sets see the same drift of the box; pass p
	// belongs to set p%2 and both sets use the same seeds.
	passes := 1
	if selfcheck {
		passes, traced = 2*selfcheckRuns, false
	}
	var results []*result
	ok := true
	for pass := 0; pass < passes; pass++ {
		for _, s := range specs {
			var r *result
			var err error
			if traced {
				r, err = tracedRun(s, seed)
			} else {
				r, err = timedRun(s, seed+int64(pass/2))
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", s.name, err)
				return 1
			}
			results = append(results, r)
			ok = ok && r.Correct
		}
	}
	// Human-readable table first, then one contract line per workload, so the
	// last line of a single-workload run is its result object.
	for _, r := range results {
		r.print()
	}
	if selfcheck {
		ok = compareSets(results, len(specs)) && ok
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", jsonOut, err)
			return 1
		}
	}
	for _, r := range results {
		if err := r.printContractLine(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// timedRun measures the end-to-end metrics with tracing off: one set-up, then
// the window on the cluster it leaves behind.
func timedRun(s spec, seed int64) (*result, error) {
	r := &result{Workload: s.name, Seed: seed, Correct: true, Values: map[string]float64{}, Samples: map[string]int{}}
	d, err := deploy(s, seed, false)
	if err != nil {
		return nil, err
	}
	r.absorb(d.warm)
	cpu0, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	tallies := d.phase(seed, phaseMeasured, 0, runSeconds*time.Second)
	cpu1, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	r.absorb(tallies)
	if err := d.alive(); err != nil {
		r.problem("%v", err)
	}
	if _, err := d.shutdown(s.durable); err != nil {
		return nil, err
	}

	w := summarize(tallies)
	var ticks uint64
	for i := range cpu0 {
		ticks += cpu1[i] - cpu0[i]
	}
	r.Values["setup_s"] = d.setupS
	r.Values["server_rss_mb"] = d.rssMB
	r.Values["txn_per_s"] = w.txnPerS
	r.Values["ro_p50_ms"] = float64(percentile(w.ro, 50)) / 1e6
	r.Values["ro_p99_ms"] = float64(percentile(w.ro, 99)) / 1e6
	r.Values["upd_p50_ms"] = float64(percentile(w.upd, 50)) / 1e6
	r.Values["upd_p99_ms"] = float64(percentile(w.upd, 99)) / 1e6
	r.Values["upd_commit_ratio"] = ratio(float64(len(w.upd)), float64(len(w.upd)+w.aborts))
	r.Values["server_cpu_us_per_txn"] = ratio(ticksToUs(ticks), float64(w.completed))
	r.Values["error_ratio"] = ratio(float64(r.Failed), float64(r.Attempted))
	r.Samples["setup_s"], r.Samples["server_rss_mb"] = 1, 1
	r.Samples["txn_per_s"], r.Samples["server_cpu_us_per_txn"] = w.completed, w.completed
	r.Samples["ro_p50_ms"], r.Samples["ro_p99_ms"] = len(w.ro), len(w.ro)
	r.Samples["upd_p50_ms"], r.Samples["upd_p99_ms"] = len(w.upd), len(w.upd)
	r.Samples["upd_commit_ratio"] = len(w.upd) + w.aborts
	return r, nil
}

// windowSummary merges the clients' tallies of one window.
type windowSummary struct {
	ro, upd   []int64 // sorted latencies, ns
	aborts    int
	completed int
	txnPerS   float64
}

func summarize(tallies []tally) windowSummary {
	var w windowSummary
	for _, t := range tallies {
		w.ro = append(w.ro, t.roNs...)
		w.upd = append(w.upd, t.updNs...)
		w.aborts += t.aborts
		// Each client's rate over its own elapsed time: the loop is closed,
		// so a client's last transaction may end just past the window.
		w.txnPerS += ratio(float64(t.completed()), t.elapsed.Seconds())
	}
	slices.Sort(w.ro)
	slices.Sort(w.upd)
	w.completed = len(w.ro) + len(w.upd)
	return w
}

func (r *result) print() {
	kind := "timed"
	if r.Traced {
		kind = "traced"
	}
	fmt.Printf("== %s (%s run, seed %d): attempted %d, failed %d\n", r.Workload, kind, r.Seed, r.Attempted, r.Failed)
	if s, ok := findSpec(r.Workload); ok {
		fmt.Printf("   %s\n", s.rationale)
	}
	defs := r.defs()
	if !r.Traced {
		defs = append(slices.Clone(defs), demoted...)
	}
	for _, d := range defs {
		v, ok := r.Values[d.name]
		if !ok {
			continue // reported as an error by printContractLine
		}
		line := fmt.Sprintf("%-16s %-36s %14.4f %-6s", r.Workload, d.name, v, d.unit)
		if n, ok := r.Samples[d.name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Println(line)
	}
	for _, p := range r.Problems {
		fmt.Printf("%-16s PROBLEM %s\n", r.Workload, p)
	}
}

// printContractLine prints the one-line JSON object the driver reads: exactly
// the keys correct, attempted, failed and metrics.
func (r *result) printContractLine() error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range r.defs() {
		v, ok := r.Values[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// benchmarkFile is the part of BENCHMARK.json the driver reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// selfcheckRuns is how many runs of each workload make one set of a
// self-check. BENCHMARK.json's bounds are bounds on the median of repeated
// runs (the contract's driver compares medians of ten); a single run of a
// CPU-bound workload strays further than that on a shared machine (README,
// Calibration), so a set of one would fail on identical code.
const selfcheckRuns = 3

// compareSets is the self-check: results holds alternating passes over
// perPass workloads, even passes forming one set and odd passes the other.
// The two sets' medians of every end-to-end metric must agree within its
// bound, whichever of the two is taken as the base.
func compareSets(results []*result, perPass int) bool {
	f, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return false
	}
	ok := true
	for w := 0; w < perPass; w++ {
		for _, m := range f.EndToEnd {
			var sets [2][]float64
			for i := w; i < len(results); i += perPass {
				pass := i / perPass
				sets[pass%2] = append(sets[pass%2], results[i].Values[m.Name])
			}
			x, y := median(sets[0]), median(sets[1])
			worse := max(worseBy(x, y, m.Better), worseBy(y, x, m.Better))
			verdict := "ok"
			if worse > m.Bound {
				verdict, ok = "OUTSIDE BOUND", false
			}
			fmt.Printf("selfcheck %-16s %-24s %12.4f %12.4f  differ %5.1f%%  bound %4.1f%%  %s\n",
				results[w].Workload, m.Name, x, y, worse*100, m.Bound*100, verdict)
		}
	}
	return ok
}
