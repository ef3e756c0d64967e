// Package harness spawns, monitors and tears down real multi-process SSS
// clusters — N sss-server processes on loopback TCP — for end-to-end tests
// and the benchmark/ driver.
//
// The harness owns the whole process lifecycle: it allocates free ports for
// the inter-node transport and the client protocol, starts one sss-server
// per node with its stdout/stderr captured to per-node log files, probes
// readiness through the binary client protocol (Ping), and shuts the
// cluster down SIGTERM-first so servers drain sessions and abort open
// transactions before exiting.
package harness

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/sss-paper/sss/client"
)

// Config describes the cluster to start.
type Config struct {
	// Nodes is the cluster size (required, >= 1).
	Nodes int
	// Replication is the replication degree (default 2).
	Replication int
	// BinPath is the sss-server binary. Required: build it once with
	// BuildServer (tests) or `go build ./cmd/sss-server` (scripts), so a
	// multi-point benchmark never pays a rebuild per cluster.
	BinPath string
	// Dir receives per-node log files (and any server artifacts). Empty =
	// a fresh temp dir, removed on Stop.
	Dir string
	// ExtraArgs are appended to every server's command line.
	ExtraArgs []string
	// Durable gives every node a data directory (data<i> under Dir) and
	// starts servers with -data-dir, enabling the WAL and crash recovery.
	// The directories survive Kill/Restart, so a restarted node replays its
	// log and rejoins with its pre-crash state.
	Durable bool
	// StartTimeout bounds the wait for every node's readiness probe
	// (default 30s).
	StartTimeout time.Duration
	// PeerLinkControl routes every directed inter-node link through its own
	// controllable relay (see linkrelay.go), enabling SetLinkDelay /
	// IsolateNode / HealLinks — the partition and asymmetric-delay nemeses.
	// Adds one local TCP hop to peer traffic, so leave it off for
	// latency-sensitive benchmarks.
	PeerLinkControl bool
}

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.StartTimeout <= 0 {
		c.StartTimeout = 30 * time.Second
	}
	return c
}

// Cluster is a running multi-process deployment.
type Cluster struct {
	cfg          Config
	dir          string
	removeDir    bool
	peerAddrs    []string
	clientAddrs  []string
	metricsAddrs []string
	procs        []*proc
	links        [][]*linkRelay // [from][to] peer-link relays; nil without PeerLinkControl
}

// proc is one monitored server process.
type proc struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when Wait returns
	err  error         // exit status, once done
}

// BuildServer builds the sss-server binary into dir and returns its path.
// The go build cache makes repeat builds cheap; tests share one binary per
// run.
func BuildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "sss-server")
	cmd := exec.Command("go", "build", "-o", bin, "github.com/sss-paper/sss/cmd/sss-server")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("harness: build sss-server: %v\n%s", err, out)
	}
	return bin, nil
}

// Start boots the cluster and waits for every node to answer a client-
// protocol Ping. On any failure the already-started processes are killed.
func Start(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("harness: Nodes must be >= 1, got %d", cfg.Nodes)
	}
	if cfg.BinPath == "" {
		return nil, errors.New("harness: BinPath required (see BuildServer)")
	}
	c := &Cluster{cfg: cfg, dir: cfg.Dir}
	if c.dir == "" {
		dir, err := os.MkdirTemp("", "sss-harness-*")
		if err != nil {
			return nil, err
		}
		c.dir = dir
		c.removeDir = true
	}

	if err := c.reserve(); err != nil {
		c.cleanupDir()
		return nil, err
	}
	c.procs = make([]*proc, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		if err := c.spawn(i); err != nil {
			_ = c.Stop()
			return nil, err
		}
	}
	if err := c.waitReady(cfg.StartTimeout); err != nil {
		_ = c.Stop()
		return nil, err
	}
	return c, nil
}

// reserve opens every listener the cluster needs — 3N server ports plus one
// per relay — while holding all of them, so the kernel cannot hand a server's
// port to a relay (or a peer port back out as a client or metrics port).
// Relays adopt their listeners still open; only the server ports are closed,
// for the sss-server processes to bind. The usual tiny race (a stranger
// grabbing a server port between that close and the server's listen) is
// acceptable for tests and benchmarks.
func (c *Cluster) reserve() error {
	n := c.cfg.Nodes
	total := 3 * n
	if c.cfg.PeerLinkControl {
		total += n * (n - 1)
	}
	lns := make([]net.Listener, 0, total)
	for len(lns) < total {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, ln := range lns {
				_ = ln.Close()
			}
			return err
		}
		lns = append(lns, ln)
	}
	addrs := make([]string, 3*n)
	for i := range addrs {
		addrs[i] = lns[i].Addr().String()
	}
	c.peerAddrs, c.clientAddrs, c.metricsAddrs = addrs[:n], addrs[n:2*n], addrs[2*n:]

	if c.cfg.PeerLinkControl {
		relayLns := lns[3*n:]
		c.links = make([][]*linkRelay, n)
		for i := range c.links {
			c.links[i] = make([]*linkRelay, n)
			for j := range c.links[i] {
				if j != i {
					c.links[i][j] = startLinkRelay(relayLns[0], c.peerAddrs[j])
					relayLns = relayLns[1:]
				}
			}
		}
	}
	for _, ln := range lns[:3*n] {
		_ = ln.Close()
	}
	return nil
}

// spawn starts node i with captured logs and a monitor goroutine. Logs are
// opened append-mode so a restarted incarnation continues the same file.
func (c *Cluster) spawn(i int) error {
	logPath := filepath.Join(c.dir, fmt.Sprintf("node%d.log", i))
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	// Under PeerLinkControl node i's address book points every outbound
	// link at its own relay row; slot i stays the real address because that
	// is where the node itself listens.
	peers := c.peerAddrs
	if c.links != nil {
		peers = make([]string, len(c.peerAddrs))
		for j := range peers {
			if j == i {
				peers[j] = c.peerAddrs[j]
			} else {
				peers[j] = c.links[i][j].Addr()
			}
		}
	}
	args := []string{
		"-id", fmt.Sprint(i),
		"-peers", strings.Join(peers, ","),
		"-client-addr", c.clientAddrs[i],
		"-metrics-addr", c.metricsAddrs[i],
		"-replication", fmt.Sprint(c.cfg.Replication),
	}
	if c.cfg.Durable {
		dataDir := filepath.Join(c.dir, fmt.Sprintf("data%d", i))
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			_ = logf.Close()
			return err
		}
		args = append(args, "-data-dir", dataDir)
	}
	args = append(args, c.cfg.ExtraArgs...)
	cmd := exec.Command(c.cfg.BinPath, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return fmt.Errorf("harness: start node %d: %w", i, err)
	}
	p := &proc{cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	c.procs[i] = p
	return nil
}

// Kill SIGKILLs node i — the unclean crash the WAL exists for — and waits
// for the process to exit. Its data directory and log survive; Restart
// brings the node back on the same addresses.
func (c *Cluster) Kill(i int) error {
	p := c.procs[i]
	if p == nil {
		return fmt.Errorf("harness: kill node %d: never started", i)
	}
	select {
	case <-p.done:
	default:
		if err := p.cmd.Process.Kill(); err != nil {
			return fmt.Errorf("harness: kill node %d: %w", i, err)
		}
	}
	<-p.done
	_ = p.log.Close()
	return nil
}

// Restart respawns a killed (or otherwise exited) node i on its original
// peer and client addresses and waits until it answers a Ping again — i.e.
// until recovery finished, since the server opens its client listener only
// after Recover returns.
func (c *Cluster) Restart(i int) error {
	if p := c.procs[i]; p != nil {
		select {
		case <-p.done:
		default:
			return fmt.Errorf("harness: restart node %d: still running (Kill it first)", i)
		}
	}
	if err := c.spawn(i); err != nil {
		return err
	}
	return c.waitNode(i, time.Now().Add(c.cfg.StartTimeout))
}

// Pause SIGSTOPs node i: the process keeps all state but stops scheduling,
// which exercises every timeout path without losing a byte. Resume
// continues it.
func (c *Cluster) Pause(i int) error {
	if !c.Alive(i) {
		return fmt.Errorf("harness: pause node %d: not running", i)
	}
	return c.procs[i].cmd.Process.Signal(syscall.SIGSTOP)
}

// Resume SIGCONTs a paused node i.
func (c *Cluster) Resume(i int) error {
	if !c.Alive(i) {
		return fmt.Errorf("harness: resume node %d: not running", i)
	}
	return c.procs[i].cmd.Process.Signal(syscall.SIGCONT)
}

// link returns the from→to relay, or an error when link control is off.
func (c *Cluster) link(from, to int) (*linkRelay, error) {
	if c.links == nil {
		return nil, errors.New("harness: peer-link control not enabled (Config.PeerLinkControl)")
	}
	if from < 0 || from >= len(c.links) || to < 0 || to >= len(c.links) || from == to {
		return nil, fmt.Errorf("harness: no link %d->%d", from, to)
	}
	return c.links[from][to], nil
}

// SetLinkDelay sets the one-way delay on the directed peer link from→to.
func (c *Cluster) SetLinkDelay(from, to int, d time.Duration) error {
	r, err := c.link(from, to)
	if err != nil {
		return err
	}
	r.setDelay(d)
	return nil
}

// IsolateNode blocks every peer link to and from node i — a full partition
// of one node. Client connections are untouched: an isolated node still
// takes client traffic, which is exactly the scenario worth checking.
func (c *Cluster) IsolateNode(i int) error {
	if c.links == nil {
		return errors.New("harness: peer-link control not enabled (Config.PeerLinkControl)")
	}
	for j := range c.links {
		if j == i {
			continue
		}
		c.links[i][j].setBlocked(true)
		c.links[j][i].setBlocked(true)
	}
	return nil
}

// HealLinks unblocks every peer link and removes all link delays.
func (c *Cluster) HealLinks() error {
	if c.links == nil {
		return errors.New("harness: peer-link control not enabled (Config.PeerLinkControl)")
	}
	for i := range c.links {
		for j, r := range c.links[i] {
			if j == i {
				continue
			}
			r.setBlocked(false)
			r.setDelay(0)
		}
	}
	return nil
}

// DataDir returns node i's data directory (only meaningful with Durable).
func (c *Cluster) DataDir(i int) string {
	return filepath.Join(c.dir, fmt.Sprintf("data%d", i))
}

func (c *Cluster) closeLinks() {
	for _, row := range c.links {
		for _, r := range row {
			if r != nil {
				r.close()
			}
		}
	}
	c.links = nil
}

// waitReady pings every node's client port until it answers or the timeout
// expires; a node process dying early fails immediately with its log tail.
func (c *Cluster) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i := range c.clientAddrs {
		if err := c.waitNode(i, deadline); err != nil {
			return err
		}
	}
	return nil
}

// waitNode pings node i's client port until it answers or deadline passes.
func (c *Cluster) waitNode(i int, deadline time.Time) error {
	addr := c.clientAddrs[i]
	for {
		select {
		case <-c.procs[i].done:
			return fmt.Errorf("harness: node %d exited during startup (%v)\n%s",
				i, c.procs[i].err, c.LogTail(i, 2048))
		default:
		}
		cl, err := client.Dial(addr, client.Options{
			Conns:          1,
			DialTimeout:    500 * time.Millisecond,
			RequestTimeout: 2 * time.Second,
		})
		if err == nil {
			err = cl.Ping()
			_ = cl.Close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("harness: node %d (%s) not ready by deadline: %v\n%s",
				i, addr, err, c.LogTail(i, 2048))
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// ClientAddrs returns the per-node client-protocol addresses.
func (c *Cluster) ClientAddrs() []string { return append([]string(nil), c.clientAddrs...) }

// MetricsAddrs returns the per-node Prometheus /metrics endpoint addresses
// (every harness node is started with -metrics-addr).
func (c *Cluster) MetricsAddrs() []string { return append([]string(nil), c.metricsAddrs...) }

// Dir returns the directory holding the per-node logs.
func (c *Cluster) Dir() string { return c.dir }

// LogPath returns node i's log file path.
func (c *Cluster) LogPath(i int) string {
	return filepath.Join(c.dir, fmt.Sprintf("node%d.log", i))
}

// LogTail returns up to n trailing bytes of node i's log, for diagnostics.
func (c *Cluster) LogTail(i, n int) string {
	b, err := os.ReadFile(c.LogPath(i))
	if err != nil {
		return fmt.Sprintf("(no log: %v)", err)
	}
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}

// Alive reports whether node i's process is still running.
func (c *Cluster) Alive(i int) bool {
	if c.procs[i] == nil {
		return false
	}
	select {
	case <-c.procs[i].done:
		return false
	default:
		return true
	}
}

// Shutdown SIGTERMs every node (graceful session drain) and waits for the
// processes to exit — SIGKILL after 10s — but keeps log files and data
// directories in place, so callers can still read LogTail (the servers'
// shutdown dumps, e.g. the durability counters, land there). Stop remains
// responsible for cleanup and is safe to call afterwards.
func (c *Cluster) Shutdown() error {
	var firstErr error
	c.closeLinks()
	for _, p := range c.procs {
		if p == nil {
			continue
		}
		select {
		case <-p.done:
			continue
		default:
		}
		// A paused node cannot act on SIGTERM; continue it first.
		_ = p.cmd.Process.Signal(syscall.SIGCONT)
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for i, p := range c.procs {
		if p == nil {
			continue
		}
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
			if firstErr == nil {
				firstErr = fmt.Errorf("harness: node %d ignored SIGTERM, killed", i)
			}
		}
	}
	return firstErr
}

// Stop shuts the cluster down: SIGTERM to every process (graceful session
// drain), SIGKILL after 10s, then log files close and the work directory is
// removed. Safe to call twice, and after Shutdown.
func (c *Cluster) Stop() error {
	firstErr := c.Shutdown()
	for _, p := range c.procs {
		if p == nil {
			continue
		}
		_ = p.log.Close()
	}
	c.procs = nil
	c.cleanupDir()
	return firstErr
}

func (c *Cluster) cleanupDir() {
	if c.removeDir {
		_ = os.RemoveAll(c.dir)
		c.removeDir = false
	}
}
