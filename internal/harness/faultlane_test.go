package harness

import (
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/sss-paper/sss/client"
)

// The fault lanes: Jepsen-style end-to-end checks. Each lane runs a real
// 3-node cluster, keeps a client-history workload going, drives one fault
// shape through the nemesis scheduler, and then demands two things:
//
//  1. The client-observed history is externally consistent (clean
//     ClientHistory.Check verdict) — no fault may leak a stale read, lost
//     update, dirty read, or real-time inversion to any client.
//  2. The cluster converges after the fault lifts: every node commits a
//     fresh update transaction.
//
// TestPartitionHealSmoke is the fast lane and rides the regular e2e suite;
// the per-fault-family lanes are stress-gated (SSS_STRESS=1) and run in the
// weekly CI stress job.

// faultLane describes one lane run by runFaultLane.
type faultLane struct {
	fault  Nemesis
	rounds int
	hold   time.Duration
	gap    time.Duration
	// walFault, when set, is exported as SSS_WAL_FAULT so every server
	// installs the (dormant) WAL injector; it implies a durable cluster.
	walFault string
	durable  bool
	// linkControl routes peer links through relays (partition/delay lanes).
	linkControl bool
	shape       WorkloadConfig
	// minCommitted guards against a vacuous run where every transaction
	// aborted and the checker had nothing to verify.
	minCommitted int
}

func runFaultLane(t *testing.T, lane faultLane) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-process e2e (use -short to skip)")
	}
	bin, err := serverBin()
	if err != nil {
		t.Fatal(err)
	}
	if lane.walFault != "" {
		// Spawned servers inherit the harness process environment; the
		// spec stays dormant per node until the nemesis touches the
		// trigger file in that node's data directory.
		t.Setenv("SSS_WAL_FAULT", lane.walFault)
		lane.durable = true
	}
	// Short 2PC budgets keep fault-window stalls inside the lane's
	// runtime; the read-budget split (engine/txn.go) is what lets
	// reads fall back to live replicas within one vote slice.
	extraArgs := []string{"-vote-timeout", "250ms", "-drain-timeout", "3s"}
	c, err := Start(Config{
		Nodes:           3,
		Replication:     2,
		BinPath:         bin,
		Durable:         lane.durable,
		PeerLinkControl: lane.linkControl,
		ExtraArgs:       extraArgs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Stop() }()

	shape := lane.shape
	if shape.RequestTimeout <= 0 {
		shape.RequestTimeout = 5 * time.Second
	}
	w, err := StartWorkload(c, shape)
	if err != nil {
		t.Fatalf("start workload: %v", err)
	}
	time.Sleep(500 * time.Millisecond) // healthy traffic before the first fault

	if err := c.RunSchedule(Schedule{
		Faults: []Nemesis{lane.fault},
		Rounds: lane.rounds,
		Hold:   lane.hold,
		Gap:    lane.gap,
		Logf:   t.Logf,
	}); err != nil {
		for i := 0; i < 3; i++ {
			t.Logf("node %d log tail:\n%s", i, c.LogTail(i, 2048))
		}
		t.Fatalf("nemesis schedule: %v", err)
	}
	time.Sleep(500 * time.Millisecond) // healthy traffic after the last heal

	hist := w.Stop()
	committed, aborted, unknown := hist.Counts()
	t.Logf("history: %d committed, %d aborted, %d unknown (%d attempts)",
		committed, aborted, unknown, hist.Len())
	if committed < lane.minCommitted {
		t.Fatalf("vacuous lane: only %d committed transactions (want >= %d)", committed, lane.minCommitted)
	}
	if err := hist.Check(); err != nil {
		for i := 0; i < 3; i++ {
			t.Logf("node %d log tail:\n%s", i, c.LogTail(i, 4096))
		}
		t.Fatalf("client history check: %v", err)
	}

	// Convergence: after the faults lift, every node must coordinate a
	// fresh update commit — partitions healed, paused nodes resumed,
	// poisoned WALs restarted into working replicas.
	for i, addr := range c.ClientAddrs() {
		if err := commitProbe(addr, fmt.Sprintf("conv%d", i), 20*time.Second); err != nil {
			t.Logf("node %d log tail:\n%s", i, c.LogTail(i, 2048))
			t.Fatalf("node %d did not converge: %v", i, err)
		}
	}
}

// commitProbe retries a full update transaction through addr until it
// commits or the deadline passes.
func commitProbe(addr, key string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		lastErr = func() error {
			cl, err := client.Dial(addr, client.Options{
				Conns: 1, DialTimeout: time.Second, RequestTimeout: 5 * time.Second,
			})
			if err != nil {
				return err
			}
			defer func() { _ = cl.Close() }()
			tx := cl.Begin(false)
			if _, _, err := tx.Read(key); err != nil {
				return err
			}
			if err := tx.Write(key, []byte("converged")); err != nil {
				return err
			}
			return tx.Commit()
		}()
		if lastErr == nil {
			return nil
		}
		time.Sleep(250 * time.Millisecond)
	}
	return lastErr
}

// TestPartitionHealSmoke is the fast partition point in the regular e2e
// suite: one full isolate→heal round under client load, clean checker
// verdict, cluster-wide convergence. The stress lanes below widen this to
// every fault family.
func TestPartitionHealSmoke(t *testing.T) {
	runFaultLane(t, faultLane{
		fault:        &Partition{},
		rounds:       1,
		hold:         time.Second,
		gap:          1500 * time.Millisecond,
		linkControl:  true,
		minCommitted: 10,
	})
}

// stressLane skips unless the stress gate is set; these lanes run minutes,
// not seconds, and belong to the weekly CI stress job.
func stressLane(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-process e2e (use -short to skip)")
	}
	if os.Getenv("SSS_STRESS") == "" {
		t.Skip("stress lane (set SSS_STRESS=1 to run)")
	}
}

func TestFaultLanePartition(t *testing.T) {
	stressLane(t)
	runFaultLane(t, faultLane{
		fault:        &Partition{},
		rounds:       3,
		hold:         1500 * time.Millisecond,
		linkControl:  true,
		shape:        ShapeZipfHot(),
		minCommitted: 20,
	})
}

func TestFaultLaneAsymmetricDelay(t *testing.T) {
	stressLane(t)
	runFaultLane(t, faultLane{
		fault:        &AsymmetricDelay{Delay: 150 * time.Millisecond},
		rounds:       3,
		hold:         1500 * time.Millisecond,
		linkControl:  true,
		shape:        ShapeLongTxns(),
		minCommitted: 20,
	})
}

func TestFaultLanePause(t *testing.T) {
	stressLane(t)
	runFaultLane(t, faultLane{
		fault:        &Pause{},
		rounds:       3,
		hold:         time.Second,
		shape:        ShapeRMWHeavy(),
		minCommitted: 20,
	})
}

func TestFaultLaneSlowFsync(t *testing.T) {
	stressLane(t)
	runFaultLane(t, faultLane{
		fault:        &WALFault{Mode: "slow-fsync"},
		rounds:       3,
		hold:         1500 * time.Millisecond,
		walFault:     "slow-fsync:delay=40ms",
		shape:        ShapeLargeValues(),
		minCommitted: 20,
	})
}

func TestFaultLaneDiskFull(t *testing.T) {
	stressLane(t)
	runFaultLane(t, faultLane{
		fault:        &WALFault{Mode: "disk-full"},
		rounds:       3,
		hold:         1500 * time.Millisecond,
		walFault:     "disk-full",
		minCommitted: 20,
	})
}

// TestFaultLaneRestartStorm is the restart-storm lane: SIGKILL-and-restart
// every durable node round-robin under the client-history workload. Each
// kill strands the victim's in-flight peer batches (the one-lost-batch
// window per stale TCP conn) and may leave client-acked freezes queued for
// redelivery; the checker demands the history stays externally consistent
// anyway — the retained-frame resend and the freeze-ack discipline are what
// close those windows, and this lane holds them to zero tolerated cycles.
func TestFaultLaneRestartStorm(t *testing.T) {
	stressLane(t)
	runFaultLane(t, faultLane{
		fault:        &KillRestart{},
		rounds:       3,
		hold:         time.Second,
		gap:          2 * time.Second,
		durable:      true,
		shape:        ShapeZipfHot(),
		minCommitted: 20,
	})
}

func TestFaultLaneTornWrite(t *testing.T) {
	stressLane(t)
	runFaultLane(t, faultLane{
		fault:        &WALFault{Mode: "torn-write"},
		rounds:       3,
		hold:         1500 * time.Millisecond,
		walFault:     "torn-write",
		minCommitted: 20,
	})
}
