package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/sss-paper/sss/client"
	"github.com/sss-paper/sss/internal/checker"
	"github.com/sss-paper/sss/internal/harness"
	"github.com/sss-paper/sss/internal/obs"
)

// Paths are relative to the checkout root, where run.sh starts the driver.
// Everything a run writes lives under buildDir or outDir.
const (
	buildDir  = ".bench_build"
	serverBin = buildDir + "/sss-server"
	outDir    = "benchmark/out"
)

// live tracks what must not outlive the process: the running cluster, its
// work directory and the idle spinners. The signal handler and every exit
// path go through cleanup.
var live struct {
	sync.Mutex
	cluster  *harness.Cluster
	dir      string
	spinners []*exec.Cmd
}

// trackDir makes dir the directory cleanup removes.
func trackDir(dir string) {
	live.Lock()
	live.dir = dir
	live.Unlock()
}

// stopCluster stops the running cluster and removes its work directory.
func stopCluster() {
	live.Lock()
	defer live.Unlock()
	if live.cluster != nil {
		_ = live.cluster.Stop() // a node that ignores SIGTERM is SIGKILLed by Stop itself
		live.cluster = nil
	}
	if live.dir != "" {
		_ = os.RemoveAll(live.dir)
		live.dir = ""
	}
}

// cleanup leaves nothing behind: no server, no directory, no spinner.
func cleanup() {
	stopCluster()
	live.Lock()
	defer live.Unlock()
	stopSpinners(live.spinners)
	live.spinners = nil
}

// makeWorkDir creates a fresh directory for a cluster's logs and data. The
// durable workload wants a tmpfs, so the WAL's real fsync under the injected
// delay does not add the disk's jitter; without a usable /dev/shm it falls
// back to the checkout like everything else (wal.dir_tmpfs says which).
func makeWorkDir(preferTmpfs bool, pattern string) (string, error) {
	if preferTmpfs {
		if dir, err := os.MkdirTemp("/dev/shm", "sss-benchmark-"+pattern); err == nil {
			return dir, nil
		}
	}
	return os.MkdirTemp(buildDir, pattern)
}

// deployment is one booted cluster with its two pinned clients.
type deployment struct {
	hc      *harness.Cluster
	workers []*worker
	pids    []int // server process of node i

	bootMs, preloadS, warmupS, setupS float64
	warm                              []tally
	rssMB                             float64                // Σ server RSS at the end of set-up
	preloadObs                        []checker.ClientTxnObs // the preload's transactions, for the checked run
}

// deploy performs one complete set-up: boot, readiness, dial, preload, peer
// delay and the workload's fixed-count warm-up. The clock starts at harness.Start and
// stops when the last warm-up transaction returns.
func deploy(s spec, seed int64, checked bool) (*deployment, error) {
	dir, err := makeWorkDir(s.durable, "run-*")
	if err != nil {
		return nil, err
	}
	trackDir(dir)
	cfg := harness.Config{
		Nodes: nodes, Replication: replication, BinPath: serverBin, Dir: dir,
		PeerLinkControl: s.delayed, Durable: s.durable,
	}
	if s.durable {
		// The fault spec is inherited by the servers; pointing the trigger at
		// a file that always exists arms it from the first sync.
		abs, err := filepath.Abs(serverBin)
		if err != nil {
			return nil, err
		}
		os.Setenv("SSS_WAL_FAULT", walFault)
		os.Setenv("SSS_WAL_FAULT_TRIGGER", abs)
	} else {
		os.Unsetenv("SSS_WAL_FAULT")
	}

	// The harness reserves ports by listening and closing, so now and then a
	// server loses its port to a relay or a stranger and the boot fails at
	// once; that is the harness's race, not the program's, so boot again. The
	// set-up clock restarts with the attempt that succeeds.
	d := &deployment{}
	var t0 time.Time
	for attempt := 1; ; attempt++ {
		t0 = time.Now()
		if d.hc, err = harness.Start(cfg); err == nil {
			break
		}
		if attempt == 3 {
			return nil, fmt.Errorf("boot: %w", err)
		}
		fmt.Fprintf(os.Stderr, "boot attempt %d failed, retrying: %v\n", attempt, err)
	}
	live.Lock()
	live.cluster = d.hc
	live.Unlock()
	d.bootMs = time.Since(t0).Seconds() * 1e3
	for i := 0; i < numClients; i++ {
		cl, err := client.Dial(d.hc.ClientAddrs()[i], client.Options{Conns: 1})
		if err != nil {
			return nil, fmt.Errorf("dial node %d: %w", i, err)
		}
		d.workers = append(d.workers, &worker{idx: i, cl: cl, mix: s.mix, checked: checked})
	}
	t1 := time.Now()
	if d.preloadObs, err = preload(d.workers[0].cl, s.mix.Keys); err != nil {
		return nil, err
	}
	d.preloadS = time.Since(t1).Seconds()
	// The peer delay goes on after the preload: 25 bulk commits through
	// delayed links would be most of set-up and are not what this workload
	// studies. The warm-up already runs behind it.
	if s.delayed {
		for from := 0; from < nodes; from++ {
			for to := 0; to < nodes; to++ {
				if from != to {
					if err := d.hc.SetLinkDelay(from, to, peerDelay); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	t2 := time.Now()
	d.warm = d.phase(seed, phaseWarmup, s.warmup/numClients, 0)
	d.warmupS = time.Since(t2).Seconds()
	d.setupS = time.Since(t0).Seconds()

	if d.pids, err = serverPids(os.Getpid()); err != nil {
		return nil, err
	}
	if d.rssMB, err = d.rssMBNow(); err != nil {
		return nil, err
	}
	return d, nil
}

// rssMBNow is the servers' summed resident set size.
func (d *deployment) rssMBNow() (float64, error) {
	var total float64
	for _, pid := range d.pids {
		st, err := readProcStat(pid)
		if err != nil {
			return 0, err
		}
		total += st.rssMB()
	}
	return total, nil
}

// cpuTicks is each server's user + system CPU time so far, in clock ticks.
func (d *deployment) cpuTicks() ([]uint64, error) {
	ticks := make([]uint64, len(d.pids))
	for i, pid := range d.pids {
		st, err := readProcStat(pid)
		if err != nil {
			return nil, err
		}
		ticks[i] = st.utime + st.stime
	}
	return ticks, nil
}

// phase runs every client for count transactions (count > 0) or for window,
// concurrently, and returns their tallies in client order.
func (d *deployment) phase(seed int64, phase, count int, window time.Duration) []tally {
	out := make([]tally, len(d.workers))
	var wg sync.WaitGroup
	for i, w := range d.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = w.run(seed, phase, count, window)
		}()
	}
	wg.Wait()
	return out
}

// scrape fetches every node's /metrics page and merges them cluster-wide.
func (d *deployment) scrape() (*obs.Page, error) {
	var pages []*obs.Page
	for i, addr := range d.hc.MetricsAddrs() {
		p, err := obs.Fetch(nil, addr)
		if err != nil {
			return nil, fmt.Errorf("scrape node %d: %w", i, err)
		}
		pages = append(pages, p)
	}
	return obs.MergePages(pages), nil
}

// alive reports the first node whose process is gone, or nil.
func (d *deployment) alive() error {
	for i := 0; i < nodes; i++ {
		if !d.hc.Alive(i) {
			return fmt.Errorf("node %d died:\n%s", i, d.hc.LogTail(i, 2048))
		}
	}
	return nil
}

// nodeDump is what one server logged about its whole life on SIGTERM.
type nodeDump struct {
	transport  transportDump
	durability durabilityDump // zero on a volatile node, which logs none
}

// shutdown SIGTERMs the servers and returns each node's final dump lines
// (the live sss_transport_* page is frozen at start-up, see the README), then
// removes the work directory.
func (d *deployment) shutdown(durable bool) ([]nodeDump, error) {
	for _, w := range d.workers {
		_ = w.cl.Close() // the servers are about to exit anyway
	}
	err := d.hc.Shutdown()
	var dumps []nodeDump
	for i := 0; i < nodes && err == nil; i++ {
		log := d.hc.LogTail(i, 16<<10)
		var nd nodeDump
		if nd.transport, err = parseTransportDump(log); err == nil && durable {
			nd.durability, err = parseDurabilityDump(log)
		}
		dumps = append(dumps, nd)
	}
	stopCluster()
	return dumps, err
}

// procStat is the slice of /proc/<pid>/stat the benchmark uses.
type procStat struct {
	comm         string
	state        byte // 'Z' once exited and not yet reaped
	ppid         int
	utime, stime uint64 // clock ticks
	rssPages     int64
}

const clockTick = 100 // USER_HZ: fixed at 100 on every Linux ABI Go supports

func (p procStat) rssMB() float64 { return float64(p.rssPages) * float64(os.Getpagesize()) / (1 << 20) }

func ticksToUs(ticks uint64) float64 { return float64(ticks) * 1e6 / clockTick }

// parseProcStat parses one /proc/<pid>/stat line. The comm field is wrapped
// in parentheses and may itself contain spaces and ')', so fields are counted
// from the last ')'.
func parseProcStat(line string) (procStat, error) {
	open, shut := strings.IndexByte(line, '('), strings.LastIndexByte(line, ')')
	if open < 0 || shut < open {
		return procStat{}, fmt.Errorf("proc stat: no comm field in %q", line)
	}
	f := strings.Fields(line[shut+1:]) // f[0] is field 3 (state)
	if len(f) < 22 {
		return procStat{}, fmt.Errorf("proc stat: %d fields after comm, want >= 22", len(f))
	}
	st := procStat{comm: line[open+1 : shut], state: f[0][0]}
	var err1, err2, err3, err4 error
	st.ppid, err1 = strconv.Atoi(f[1])
	st.utime, err2 = strconv.ParseUint(f[11], 10, 64)
	st.stime, err3 = strconv.ParseUint(f[12], 10, 64)
	st.rssPages, err4 = strconv.ParseInt(f[21], 10, 64)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return procStat{}, fmt.Errorf("proc stat: %w", err)
	}
	return st, nil
}

func readProcStat(pid int) (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(string(b))
}

// serverPids finds the sss-server children of parent, indexed by their -id
// argument; the harness exposes no pids.
func serverPids(parent int) ([]int, error) {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	pids := make([]int, nodes)
	found := 0
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		st, err := readProcStat(pid)
		if err != nil || st.ppid != parent || st.comm != "sss-server" {
			continue // not ours, or gone between ReadDir and the read
		}
		cmdline, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
		if err != nil {
			return nil, err
		}
		args := bytes.Split(cmdline, []byte{0})
		for i := 0; i+1 < len(args); i++ {
			if string(args[i]) == "-id" {
				id, err := strconv.Atoi(string(args[i+1]))
				if err != nil || id < 0 || id >= nodes {
					return nil, fmt.Errorf("pid %d: bad -id %q", pid, args[i+1])
				}
				pids[id] = pid
				found++
			}
		}
	}
	if found != nodes {
		return nil, fmt.Errorf("found %d sss-server children of pid %d, want %d", found, parent, nodes)
	}
	return pids, nil
}
