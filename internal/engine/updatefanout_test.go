package engine

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// These suites pin an update transaction's read fan-out: the keys this node
// replicates are served inline with no message, each remote replica gets
// one UpdateRead carrying all of its keys, every leg is out before a reply
// is read, and the transaction comes out exactly as from sequential Reads.

// spyNet is an in-process network that records every message a node sends,
// self-sends included (the InProc filter sees only remote ones), and can
// hold update-read replies at their coordinator until enough legs are out.
type spyNet struct {
	*transport.InProc

	mu    sync.Mutex
	cond  *sync.Cond
	sends []spySend
	// holdAt, when ≥ 0, is a coordinator whose UpdateReadReply deliveries
	// wait until holdLegs UpdateReads have left it (or holdMax passes).
	holdAt   wire.NodeID
	holdLegs int
	held     bool // a reply had to be released by holdMax, not by the legs
}

type spySend struct {
	from, to wire.NodeID
	msg      wire.Msg
}

const holdMax = 2 * time.Second

func newSpyNet() *spyNet {
	s := &spyNet{InProc: transport.NewInProc(transport.InProcConfig{DisableLatency: true}), holdAt: -1}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *spyNet) Join(id wire.NodeID, h transport.Handler) (transport.Endpoint, error) {
	ep, err := s.InProc.Join(id, func(env wire.Envelope) {
		if _, ok := env.Msg.(*wire.UpdateReadReply); ok {
			s.hold(id)
		}
		h(env)
	})
	if err != nil {
		return nil, err
	}
	return &spyEndpoint{Endpoint: ep, s: s}, nil
}

func (s *spyNet) hold(at wire.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	deadline := time.Now().Add(holdMax)
	for at == s.holdAt && s.legsLocked(at) < s.holdLegs {
		if time.Now().After(deadline) {
			s.held = true
			return
		}
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
		s.mu.Lock()
	}
}

func (s *spyNet) legsLocked(from wire.NodeID) int {
	n := 0
	for _, e := range s.sends {
		if _, ok := e.msg.(*wire.UpdateRead); ok && e.from == from {
			n++
		}
	}
	return n
}

// reset forgets what was recorded so far.
func (s *spyNet) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sends = nil
}

// sent returns the messages recorded so far.
func (s *spyNet) sent() []spySend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.sends)
}

type spyEndpoint struct {
	transport.Endpoint
	s *spyNet
}

func (e *spyEndpoint) Send(to wire.NodeID, env wire.Envelope) error {
	e.s.mu.Lock()
	e.s.sends = append(e.s.sends, spySend{from: e.ID(), to: to, msg: env.Msg})
	e.s.mu.Unlock()
	return e.Endpoint.Send(to, env)
}

// newSpyCluster assembles n SSS nodes over a spyNet.
func newSpyCluster(t *testing.T, n, degree int, cfg Config) ([]*Node, *spyNet) {
	t.Helper()
	net := newSpyNet()
	lookup := cluster.NewLookup(n, degree)
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := New(net, wire.NodeID(i), n, lookup, cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = nd
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
		_ = net.Close()
	})
	return nodes, net
}

// keysBy returns count keys whose replica set is exactly replicas.
func keysBy(t *testing.T, lookup cluster.Lookup, replicas []wire.NodeID, prefix string, count int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < count && i < 10000; i++ {
		k := fmt.Sprintf("%s%d", prefix, i)
		if slices.Equal(lookup.Replicas(k), replicas) {
			out = append(out, k)
		}
	}
	if len(out) < count {
		t.Fatalf("found %d keys replicated at %v, want %d", len(out), replicas, count)
	}
	return out
}

// TestUpdateMultiReadFansOut reads keys spread over all three replica sets
// of a 3-node, replication-2 cluster from node 0: the keys node 0
// replicates are served inline — no envelope, not even to itself — and the
// keys it does not replicate go out as one UpdateRead to the one replica
// the transaction picks, in key order.
func TestUpdateMultiReadFansOut(t *testing.T) {
	nodes, net := newSpyCluster(t, 3, 2, Config{})
	lookup := cluster.NewLookup(3, 2)
	local := append(keysBy(t, lookup, []wire.NodeID{0, 1}, "a", 2), keysBy(t, lookup, []wire.NodeID{2, 0}, "b", 2)...)
	remote := keysBy(t, lookup, []wire.NodeID{1, 2}, "c", 3)
	keys := []string{remote[0], local[0], local[1], remote[1], local[2], local[3], remote[2], remote[0]}
	vals := make(map[string]string)
	for _, k := range keys {
		vals[k] = "v-" + k
	}
	preload(nodes, vals)

	net.reset()
	tx := nodes[0].Begin(false)
	res, err := tx.MultiRead(keys)
	if err != nil {
		t.Fatalf("multi-read: %v", err)
	}
	for i, k := range keys {
		if !res[i].Exists || string(res[i].Val) != vals[k] {
			t.Fatalf("result %d (%s): %+v", i, k, res[i])
		}
	}
	var legs []spySend
	for _, e := range net.sent() {
		switch e.msg.(type) {
		case *wire.UpdateRead:
			legs = append(legs, e)
		case *wire.ReadRequest:
			t.Fatalf("update read sent a read-only ReadRequest to %d", e.to)
		}
	}
	if len(legs) != 1 || legs[0].from != 0 || legs[0].to == 0 {
		t.Fatalf("update-read legs %+v, want one from node 0 to a remote replica", legs)
	}
	want := []string{remote[0], remote[1], remote[2], remote[0]}
	if got := legs[0].msg.(*wire.UpdateRead).Keys; !slices.Equal(got, want) {
		t.Fatalf("remote leg carried %q, want %q", got, want)
	}
	if want := []string{remote[0], local[0], local[1], remote[1], local[2], local[3], remote[2]}; !slices.Equal(tx.rsOrder, want) {
		t.Fatalf("read set order %q, want %q", tx.rsOrder, want)
	}
	_ = tx.Abort()
}

// TestUpdateMultiReadLegsOutBeforeReplies reads keys held only by node 1 and
// only by node 2 (replication 1) from node 0: one leg per replica, and the
// network holds every update-read reply at node 0 until both legs are out,
// so a read that waited on one leg before sending the next would stall
// there.
func TestUpdateMultiReadLegsOutBeforeReplies(t *testing.T) {
	nodes, net := newSpyCluster(t, 3, 1, Config{})
	lookup := cluster.NewLookup(3, 1)
	keys := []string{}
	at1 := keysBy(t, lookup, []wire.NodeID{1}, "p", 2)
	at2 := keysBy(t, lookup, []wire.NodeID{2}, "q", 2)
	keys = append(keys, at1[0], at2[0], at1[1], at2[1])
	vals := make(map[string]string)
	for _, k := range keys {
		vals[k] = "v-" + k
	}
	preload(nodes, vals)

	net.mu.Lock()
	net.holdAt, net.holdLegs = 0, 2
	net.mu.Unlock()
	net.reset()
	tx := nodes[0].Begin(false)
	res, err := tx.MultiRead(keys)
	if err != nil {
		t.Fatalf("multi-read: %v", err)
	}
	for i, k := range keys {
		if string(res[i].Val) != vals[k] {
			t.Fatalf("result %d (%s): %+v", i, k, res[i])
		}
	}
	net.mu.Lock()
	held := net.held
	legs := net.legsLocked(0)
	net.mu.Unlock()
	if held || legs != 2 {
		t.Fatalf("legs sent: %d (a reply released by timeout: %v), want both out before any reply", legs, held)
	}
	for _, e := range net.sent() {
		if m, ok := e.msg.(*wire.UpdateRead); ok {
			want := at1
			if e.to == 2 {
				want = at2
			}
			if !slices.Equal(m.Keys, want) {
				t.Fatalf("leg to %d carried %q, want %q", e.to, m.Keys, want)
			}
		}
	}
	_ = tx.Abort()
}

// updateRun is what a coordinator sent for one update transaction: its
// prepare and its commit clock.
type updateRun struct {
	prepare  *wire.Prepare
	commitVC []uint64
	vals     []kv.ReadResult
}

// runUpdate builds a fresh 3-node, replication-2 cluster, commits the same
// history on it, then has node 0 read keys — with one MultiRead or with
// sequential Reads — write, and commit.
func runUpdate(t *testing.T, keys []string, multi bool) updateRun {
	t.Helper()
	nodes, net := newSpyCluster(t, 3, 2, Config{})
	for i, k := range keys {
		// Real writers, so the versions read carry writers and clocks.
		writeKey(t, nodes[i%3], k, "w-"+k)
	}
	waitUntil(t, "quiescence", func() bool {
		for _, nd := range nodes {
			if nd.parkedCount() != 0 || nd.inflightCount() != 0 {
				return false
			}
		}
		return true
	})
	net.reset()
	tx := nodes[0].Begin(false)
	if err := tx.Write(keys[1], []byte("own")); err != nil {
		t.Fatal(err)
	}
	var run updateRun
	if multi {
		res, err := tx.MultiRead(keys)
		if err != nil {
			t.Fatalf("multi-read: %v", err)
		}
		run.vals = res
	} else {
		for _, k := range keys {
			v, ok, err := tx.Read(k)
			if err != nil {
				t.Fatalf("read %s: %v", k, err)
			}
			run.vals = append(run.vals, kv.ReadResult{Val: v, Exists: ok})
		}
	}
	for _, k := range keys[:3] {
		if err := tx.Write(k, []byte("T")); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	for _, e := range net.sent() {
		switch m := e.msg.(type) {
		case *wire.Prepare:
			if m.Txn == tx.ID() && run.prepare == nil {
				run.prepare = m
			}
		case *wire.Decide:
			if m.Txn == tx.ID() && m.Commit && run.commitVC == nil {
				run.commitVC = m.VC
			}
		}
	}
	if run.prepare == nil || run.commitVC == nil {
		t.Fatalf("no prepare or decide recorded for %v", tx.ID())
	}
	return run
}

// TestUpdateMultiReadMatchesSequentialReads runs the same transaction on two
// identical quiescent clusters, once reading with one MultiRead and once
// with sequential Reads: the prepares carry the same read keys, read-from
// writers and dependencies, the commit clocks agree, and so do the values.
func TestUpdateMultiReadMatchesSequentialReads(t *testing.T) {
	lookup := cluster.NewLookup(3, 2)
	keys := []string{
		keysBy(t, lookup, []wire.NodeID{1, 2}, "m", 1)[0],
		keysBy(t, lookup, []wire.NodeID{0, 1}, "n", 1)[0],
		keysBy(t, lookup, []wire.NodeID{2, 0}, "o", 1)[0],
		keysBy(t, lookup, []wire.NodeID{1, 2}, "r", 1)[0],
	}
	keys = append(keys, keys[0]) // a duplicate
	seq := runUpdate(t, keys, false)
	multi := runUpdate(t, keys, true)
	if !reflect.DeepEqual(multi.vals, seq.vals) {
		t.Fatalf("values: multi %+v, sequential %+v", multi.vals, seq.vals)
	}
	if !slices.Equal(multi.prepare.ReadKeys, seq.prepare.ReadKeys) {
		t.Fatalf("ReadKeys: multi %q, sequential %q", multi.prepare.ReadKeys, seq.prepare.ReadKeys)
	}
	if !slices.Equal(multi.prepare.ReadFrom, seq.prepare.ReadFrom) {
		t.Fatalf("ReadFrom: multi %v, sequential %v", multi.prepare.ReadFrom, seq.prepare.ReadFrom)
	}
	if !reflect.DeepEqual(multi.prepare.Deps, seq.prepare.Deps) {
		t.Fatalf("Deps: multi %v, sequential %v", multi.prepare.Deps, seq.prepare.Deps)
	}
	if !slices.Equal(multi.commitVC, seq.commitVC) {
		t.Fatalf("commit clock: multi %v, sequential %v", multi.commitVC, seq.commitVC)
	}
	if len(seq.prepare.ReadKeys) != 3 {
		t.Fatalf("ReadKeys %q: want the three keys not written before the read", seq.prepare.ReadKeys)
	}
}

// TestUpdateReadOnClosedCoordinatorFallsBack: a coordinator that is closing
// or recovering serves nothing, so an update read of a key it replicates
// goes to the key's other replica at once, as if the preferred replica were
// unreachable, and returns that replica's version.
func TestUpdateReadOnClosedCoordinatorFallsBack(t *testing.T) {
	for _, flag := range []string{"closed", "recovering"} {
		t.Run(flag, func(t *testing.T) {
			const voteTimeout = 5 * time.Second
			nodes, net := newSpyCluster(t, 3, 2, Config{VoteTimeout: voteTimeout})
			lookup := cluster.NewLookup(3, 2)
			k := keysBy(t, lookup, []wire.NodeID{0, 1}, "z", 1)[0]
			preload(nodes[1:2], map[string]string{k: "at-1"})
			preload(nodes[:1], map[string]string{k: "at-0"})

			gate := &nodes[0].closed
			if flag == "recovering" {
				gate = &nodes[0].recovering
			}
			gate.Store(true)
			defer gate.Store(false) // Close must still run its shutdown
			net.reset()
			tx := nodes[0].Begin(false)
			start := time.Now()
			v, ok, err := tx.Read(k)
			if err != nil || !ok || string(v) != "at-1" {
				t.Fatalf("read on a %s coordinator: %q %v %v", flag, v, ok, err)
			}
			if d := time.Since(start); d >= voteTimeout {
				t.Fatalf("read took %v: it waited for the %s node instead of falling back", d, flag)
			}
			for _, e := range net.sent() {
				if _, ok := e.msg.(*wire.UpdateRead); ok && e.to != 1 {
					t.Fatalf("update read sent to %d, want only the other replica 1", e.to)
				}
			}
			_ = tx.Abort()
		})
	}
}

// TestUpdateReadReplyBoundedBySize reads three 768 KiB values held only by
// node 1 (replication 1) from node 0: node 1 stops serving once its reply
// holds updateReadReplyBytes (1 MiB) of values, so its first reply answers
// the first two keys, and node 0 sends the third to it again in a second
// leg.
func TestUpdateReadReplyBoundedBySize(t *testing.T) {
	nodes, net := newSpyCluster(t, 3, 1, Config{})
	lookup := cluster.NewLookup(3, 1)
	keys := keysBy(t, lookup, []wire.NodeID{1}, "big", 3)
	for i, k := range keys {
		val := make([]byte, 768<<10)
		val[0] = byte(i)
		nodes[1].Preload(k, val)
	}

	net.reset()
	tx := nodes[0].Begin(false)
	res, err := tx.MultiRead(keys)
	if err != nil {
		t.Fatalf("multi-read: %v", err)
	}
	for i, k := range keys {
		if !res[i].Exists || len(res[i].Val) != 768<<10 || res[i].Val[0] != byte(i) {
			t.Fatalf("result %d (%s): exists=%v len=%d", i, k, res[i].Exists, len(res[i].Val))
		}
	}
	var legs [][]string
	for _, e := range net.sent() {
		if m, ok := e.msg.(*wire.UpdateRead); ok {
			if e.from != 0 || e.to != 1 {
				t.Fatalf("update read from %d to %d, want from 0 to 1", e.from, e.to)
			}
			legs = append(legs, m.Keys)
		}
		if m, ok := e.msg.(*wire.UpdateReadReply); ok {
			size := 0
			for _, r := range m.Results {
				size += len(r.Val)
			}
			if size > updateReadReplyBytes+768<<10 {
				t.Fatalf("a reply carried %d bytes of values", size)
			}
		}
	}
	if want := [][]string{keys, keys[2:]}; !reflect.DeepEqual(legs, want) {
		t.Fatalf("legs %q, want %q", legs, want)
	}
	if !slices.Equal(tx.rsOrder, keys) {
		t.Fatalf("read set order %q, want %q", tx.rsOrder, keys)
	}
	_ = tx.Abort()
}
