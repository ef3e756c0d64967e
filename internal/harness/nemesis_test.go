package harness

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// fakeNemesis records its inject/heal calls; it never touches the cluster,
// so scheduler tests run on a nil *Cluster with no processes at all.
type fakeNemesis struct {
	name   string
	events *[]string
	times  *[]time.Time
	failAt int // inject fails on this round (-1 = never)
}

func (f *fakeNemesis) Name() string { return f.name }

func (f *fakeNemesis) Inject(c *Cluster, round int) error {
	if round == f.failAt {
		return errors.New("boom")
	}
	*f.events = append(*f.events, fmt.Sprintf("inject:%s:%d", f.name, round))
	*f.times = append(*f.times, time.Now())
	return nil
}

func (f *fakeNemesis) Heal(c *Cluster, round int) error {
	*f.events = append(*f.events, fmt.Sprintf("heal:%s:%d", f.name, round))
	*f.times = append(*f.times, time.Now())
	return nil
}

func TestScheduleRoundRobinOrder(t *testing.T) {
	var events []string
	var times []time.Time
	a := &fakeNemesis{name: "a", events: &events, times: &times, failAt: -1}
	b := &fakeNemesis{name: "b", events: &events, times: &times, failAt: -1}
	var c *Cluster // the fakes never dereference it
	err := c.RunSchedule(Schedule{
		Faults: []Nemesis{a, b},
		Rounds: 5,
		Hold:   30 * time.Millisecond,
		Gap:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"inject:a:0", "heal:a:0",
		"inject:b:1", "heal:b:1",
		"inject:a:2", "heal:a:2",
		"inject:b:3", "heal:b:3",
		"inject:a:4", "heal:a:4",
	}
	if strings.Join(events, " ") != strings.Join(want, " ") {
		t.Fatalf("schedule order:\n got %v\nwant %v", events, want)
	}
	// Each fault must be held for at least Hold between inject and heal.
	for i := 0; i+1 < len(times); i += 2 {
		if d := times[i+1].Sub(times[i]); d < 30*time.Millisecond {
			t.Fatalf("round %d held only %v, want >= 30ms", i/2, d)
		}
	}
}

func TestScheduleDefaultsOneRoundPerFault(t *testing.T) {
	var events []string
	var times []time.Time
	a := &fakeNemesis{name: "a", events: &events, times: &times, failAt: -1}
	b := &fakeNemesis{name: "b", events: &events, times: &times, failAt: -1}
	var c *Cluster
	err := c.RunSchedule(Schedule{Faults: []Nemesis{a, b}, Hold: time.Millisecond, Gap: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 { // two faults, one inject+heal each
		t.Fatalf("default rounds ran %v, want one inject+heal per fault", events)
	}
}

func TestScheduleStopsOnFirstError(t *testing.T) {
	var events []string
	var times []time.Time
	a := &fakeNemesis{name: "a", events: &events, times: &times, failAt: 2}
	var c *Cluster
	err := c.RunSchedule(Schedule{Faults: []Nemesis{a}, Rounds: 5, Hold: time.Millisecond, Gap: time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "round 3") {
		t.Fatalf("want round-3 inject error, got %v", err)
	}
	if len(events) != 4 { // rounds 0 and 1 completed, round 2 recorded nothing
		t.Fatalf("events after failing round: %v", events)
	}
}

func TestVictimSelection(t *testing.T) {
	c := &Cluster{cfg: Config{Nodes: 3}}
	// Empty victims: all nodes round-robin.
	for round, want := range []int{0, 1, 2, 0, 1} {
		if got := victim(c, nil, round); got != want {
			t.Fatalf("victim(nil, %d) = %d, want %d", round, got, want)
		}
	}
	// Restricted victims cycle within the set.
	for round, want := range []int{2, 1, 2, 1} {
		if got := victim(c, []int{2, 1}, round); got != want {
			t.Fatalf("victim([2 1], %d) = %d, want %d", round, got, want)
		}
	}
}

// procState reads the single-letter scheduler state of pid from /proc
// (R running, S sleeping, T stopped, ...).
func procState(t *testing.T, pid int) byte {
	t.Helper()
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		t.Fatalf("read proc stat: %v", err)
	}
	// State is the first field after the parenthesized comm.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 || i+2 >= len(s) {
		t.Fatalf("unparseable stat: %q", s)
	}
	return s[i+2]
}

// TestPauseStopsProcess verifies the SIGSTOP nemesis mechanics on a real
// process: Pause must actually stop it (state T) and Resume must let it
// run again.
func TestPauseStopsProcess(t *testing.T) {
	cmd := exec.Command("sleep", "60")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() { p.err = cmd.Wait(); close(p.done) }()
	defer func() { _ = cmd.Process.Kill(); <-p.done }()
	c := &Cluster{cfg: Config{Nodes: 1}, procs: []*proc{p}}

	if err := c.Pause(0); err != nil {
		t.Fatalf("pause: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for procState(t, cmd.Process.Pid) != 'T' {
		if time.Now().After(deadline) {
			t.Fatalf("process never stopped; state %c", procState(t, cmd.Process.Pid))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Resume(0); err != nil {
		t.Fatalf("resume: %v", err)
	}
	for procState(t, cmd.Process.Pid) == 'T' {
		if time.Now().After(deadline) {
			t.Fatal("process never resumed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPartitionMatrixSymmetry checks IsolateNode/HealLinks against the
// relay matrix directly: isolation must block exactly the victim's row and
// column, both directions, and healing must clear every block and delay.
func TestPartitionMatrixSymmetry(t *testing.T) {
	const n = 3
	c := &Cluster{cfg: Config{Nodes: n}}
	c.links = make([][]*linkRelay, n)
	for i := range c.links {
		c.links[i] = make([]*linkRelay, n)
		for j := range c.links[i] {
			if j == i {
				continue
			}
			c.links[i][j] = testRelay(t, "127.0.0.1:1", 0) // never dialed here
		}
	}
	defer c.closeLinks()

	blocked := func(i, j int) bool {
		r := c.links[i][j]
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.blocked
	}

	if err := c.IsolateNode(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			want := i == 1 || j == 1
			if got := blocked(i, j); got != want {
				t.Fatalf("after IsolateNode(1): link %d->%d blocked=%v, want %v", i, j, got, want)
			}
		}
	}

	_ = c.SetLinkDelay(0, 2, 50*time.Millisecond)
	if err := c.HealLinks(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if blocked(i, j) {
				t.Fatalf("after HealLinks: link %d->%d still blocked", i, j)
			}
			if d := c.links[i][j].delay(); d != 0 {
				t.Fatalf("after HealLinks: link %d->%d keeps delay %v", i, j, d)
			}
		}
	}
}
