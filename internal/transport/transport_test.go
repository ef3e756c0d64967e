package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/wire"
)

func TestInProcDelivery(t *testing.T) {
	nw := NewInProc(InProcConfig{DisableLatency: true})
	defer func() { _ = nw.Close() }()

	got := make(chan wire.Envelope, 1)
	_, err := nw.Join(1, func(env wire.Envelope) { got <- env })
	if err != nil {
		t.Fatal(err)
	}
	ep0, err := nw.Join(0, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}

	msg := &wire.Remove{Txn: wire.TxnID{Node: 0, Seq: 1}}
	if err := ep0.Send(1, wire.Envelope{Msg: msg}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-got:
		if env.From != 0 {
			t.Fatalf("From = %d, want 0", env.From)
		}
		if env.Msg.(*wire.Remove).Txn.Seq != 1 {
			t.Fatal("message corrupted")
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestInProcDuplicateJoin(t *testing.T) {
	nw := NewInProc(InProcConfig{DisableLatency: true})
	defer func() { _ = nw.Close() }()
	if _, err := nw.Join(1, func(wire.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Join(1, func(wire.Envelope) {}); err == nil {
		t.Fatal("duplicate Join should fail")
	}
	if _, err := nw.Join(2, nil); err == nil {
		t.Fatal("nil handler should fail")
	}
}

func TestInProcUnknownDestination(t *testing.T) {
	nw := NewInProc(InProcConfig{DisableLatency: true})
	defer func() { _ = nw.Close() }()
	ep, err := nw.Join(0, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	err = ep.Send(9, wire.Envelope{Msg: &wire.Remove{}})
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestInProcLatency(t *testing.T) {
	const lat = 2 * time.Millisecond
	nw := NewInProc(InProcConfig{Latency: lat})
	defer func() { _ = nw.Close() }()

	done := make(chan time.Time, 1)
	if _, err := nw.Join(1, func(wire.Envelope) { done <- time.Now() }); err != nil {
		t.Fatal(err)
	}
	ep0, err := nw.Join(0, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := ep0.Send(1, wire.Envelope{Msg: &wire.Remove{}}); err != nil {
		t.Fatal(err)
	}
	arrived := <-done
	if d := arrived.Sub(start); d < lat {
		t.Fatalf("delivered after %v, want >= %v", d, lat)
	}
}

func TestInProcSelfSendSkipsLatency(t *testing.T) {
	nw := NewInProc(InProcConfig{Latency: 50 * time.Millisecond})
	defer func() { _ = nw.Close() }()
	done := make(chan struct{}, 1)
	ep, err := nw.Join(0, func(wire.Envelope) { done <- struct{}{} })
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := ep.Send(0, wire.Envelope{Msg: &wire.Remove{}}); err != nil {
		t.Fatal(err)
	}
	<-done
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("self-send took %v, should skip latency", d)
	}
}

func TestInProcCloseStopsDelivery(t *testing.T) {
	nw := NewInProc(InProcConfig{DisableLatency: true})
	var count atomic.Int32
	if _, err := nw.Join(1, func(wire.Envelope) { count.Add(1) }); err != nil {
		t.Fatal(err)
	}
	ep0, err := nw.Join(0, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ep0.Send(1, wire.Envelope{Msg: &wire.Remove{}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
}

// TestTCPOneConnectionPerPeer pins the link shape: a Remove, a 2PC message
// and a read sent to one peer share one connection — every message kind
// travels the same ordered stream, as it does over an in-process pipe.
func TestTCPOneConnectionPerPeer(t *testing.T) {
	addrs := freePorts(t, 2)
	nw := NewTCP(map[wire.NodeID]string{0: addrs[0], 1: addrs[1]})
	defer func() { _ = nw.Close() }()
	got := make(chan wire.MsgType, 3)
	if _, err := nw.Join(1, func(env wire.Envelope) { got <- env.Msg.Type() }); err != nil {
		t.Fatal(err)
	}
	ep0, err := nw.Join(0, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	sent := []wire.Msg{
		&wire.Remove{Txn: wire.TxnID{Node: 0, Seq: 1}},
		&wire.Prepare{Txn: wire.TxnID{Node: 0, Seq: 2}},
		&wire.ReadRequest{Key: "k"},
	}
	for _, m := range sent {
		if err := ep0.Send(1, wire.Envelope{Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	arrived := make(map[wire.MsgType]bool)
	for range sent {
		select {
		case mt := <-got:
			arrived[mt] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d messages arrived", len(arrived), len(sent))
		}
	}
	for _, m := range sent {
		if !arrived[m.Type()] {
			t.Fatalf("message type %d never arrived (got %v)", m.Type(), arrived)
		}
	}
	if d := nw.Metrics().Dials.Load(); d != 1 {
		t.Fatalf("Dials = %d, want 1: one connection carries every message kind to a peer", d)
	}
}

// TestTCPSplitsOversizedBatch sends five 14 MiB read replies to one peer in
// one flush: encoded together they pass maxFrame, on which the receiver
// hangs up, so the batch must go out as smaller frames over the one
// connection. An envelope past maxFrame on its own is dropped and counted.
func TestTCPSplitsOversizedBatch(t *testing.T) {
	addrs := freePorts(t, 2)
	nw := NewTCP(map[wire.NodeID]string{0: addrs[0], 1: addrs[1]})
	defer func() { _ = nw.Close() }()
	got := make(chan int, 8)
	if _, err := nw.Join(1, func(env wire.Envelope) { got <- len(env.Msg.(*wire.ReadReturn).Val) }); err != nil {
		t.Fatal(err)
	}
	ep0, err := nw.Join(0, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	// A peer link driven by hand, without its sender goroutine, so the five
	// envelopes reach flush as one batch.
	p := &tcpPeer{e: ep0.(*tcpEndpoint), to: 1, addr: addrs[1]}
	const size = 14 << 20
	batch := make([]wire.Envelope, 5)
	for i := range batch {
		batch[i] = wire.Envelope{From: 0, RID: uint64(i + 1), Msg: &wire.ReadReturn{Val: make([]byte, size), Exists: true}}
	}
	p.flush(batch)
	for i := range batch {
		select {
		case n := <-got:
			if n != size {
				t.Fatalf("reply %d carries %d bytes, want %d", i, n, size)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("only %d of %d replies arrived", i, len(batch))
		}
	}
	if d := p.stats.Dials.Load(); d != 1 {
		t.Fatalf("Dials = %d, want 1: no frame may make the receiver hang up", d)
	}

	p.flush([]wire.Envelope{{From: 0, Msg: &wire.ReadReturn{Val: make([]byte, maxFrame), Exists: true}}})
	if lost := p.stats.LostBatches.Load(); lost != 1 {
		t.Fatalf("LostBatches = %d after an envelope past maxFrame, want 1", lost)
	}
	if len(p.pending) != 0 {
		t.Fatalf("%d frames pending after the oversized envelope, want 0", len(p.pending))
	}
}

// echoServer replies to every request with the same message.
func echoServer(r **RPC) ServerFunc {
	return func(from wire.NodeID, rid uint64, msg wire.Msg) {
		if rid != 0 {
			_ = (*r).Reply(from, rid, msg)
		}
	}
}

func TestRPCCallRoundTrip(t *testing.T) {
	nw := NewInProc(InProcConfig{DisableLatency: true})
	defer func() { _ = nw.Close() }()

	var srv *RPC
	srvRPC, err := NewRPC(nw, 1, echoServer(&srv))
	if err != nil {
		t.Fatal(err)
	}
	srv = srvRPC
	cli, err := NewRPC(nw, 0, func(wire.NodeID, uint64, wire.Msg) {})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := cli.Call(context.Background(), 1, &wire.DecideAck{Txn: wire.TxnID{Node: 7, Seq: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*wire.DecideAck).Txn.Seq != 9 {
		t.Fatal("response corrupted")
	}
}

func TestRPCCallTimeout(t *testing.T) {
	nw := NewInProc(InProcConfig{DisableLatency: true})
	defer func() { _ = nw.Close() }()

	// Server never replies.
	if _, err := NewRPC(nw, 1, func(wire.NodeID, uint64, wire.Msg) {}); err != nil {
		t.Fatal(err)
	}
	cli, err := NewRPC(nw, 0, func(wire.NodeID, uint64, wire.Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := cli.Call(ctx, 1, &wire.Remove{}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestRPCNotifyOneWay(t *testing.T) {
	nw := NewInProc(InProcConfig{DisableLatency: true})
	defer func() { _ = nw.Close() }()

	got := make(chan wire.Msg, 1)
	if _, err := NewRPC(nw, 1, func(_ wire.NodeID, rid uint64, msg wire.Msg) {
		if rid != 0 {
			t.Errorf("notification carried rid %d", rid)
		}
		got <- msg
	}); err != nil {
		t.Fatal(err)
	}
	cli, err := NewRPC(nw, 0, func(wire.NodeID, uint64, wire.Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Notify(1, &wire.Remove{Txn: wire.TxnID{Node: 0, Seq: 3}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.(*wire.Remove).Txn.Seq != 3 {
			t.Fatal("notification corrupted")
		}
	case <-time.After(time.Second):
		t.Fatal("notification not delivered")
	}
}

func TestRPCConcurrentCalls(t *testing.T) {
	nw := NewInProc(InProcConfig{DisableLatency: true})
	defer func() { _ = nw.Close() }()

	var srv *RPC
	srvRPC, err := NewRPC(nw, 1, echoServer(&srv))
	if err != nil {
		t.Fatal(err)
	}
	srv = srvRPC
	cli, err := NewRPC(nw, 0, func(wire.NodeID, uint64, wire.Msg) {})
	if err != nil {
		t.Fatal(err)
	}

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cli.Call(context.Background(), 1, &wire.DecideAck{Txn: wire.TxnID{Seq: uint64(i)}})
			if err != nil {
				errs <- err
				return
			}
			if got := resp.(*wire.DecideAck).Txn.Seq; got != uint64(i) {
				errs <- fmt.Errorf("call %d got response %d", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func newTCPPair(t *testing.T) (*TCP, *RPC, *RPC) {
	t.Helper()
	return newTCPPairTuned(t, tuning{})
}

func newTCPPairTuned(t *testing.T, tune tuning) (*TCP, *RPC, *RPC) {
	t.Helper()
	nw := newTCPTuned(map[wire.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}, tune)
	// Join with port 0 requires re-resolution: join node 0 first, then
	// rewrite the book with the bound address so node 1 can dial it.
	var srv *RPC
	s, err := NewRPC(nw, 0, func(from wire.NodeID, rid uint64, msg wire.Msg) {
		if rid != 0 {
			_ = srv.Reply(from, rid, msg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	srv = s
	addr0, _ := nw.Addr(0)
	nw.addrs[0] = addr0
	cli, err := NewRPC(nw, 1, func(wire.NodeID, uint64, wire.Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	addr1, _ := nw.Addr(1)
	nw.addrs[1] = addr1
	t.Cleanup(func() { _ = nw.Close() })
	return nw, s, cli
}

func TestTCPCallRoundTrip(t *testing.T) {
	_, _, cli := newTCPPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := cli.Call(ctx, 0, &wire.Vote{Txn: wire.TxnID{Node: 1, Seq: 4}, VC: nil, OK: true})
	if err != nil {
		t.Fatal(err)
	}
	v := resp.(*wire.Vote)
	if v.Txn.Seq != 4 || !v.OK {
		t.Fatalf("response corrupted: %+v", v)
	}
}

func TestTCPManyConcurrentCalls(t *testing.T) {
	_, _, cli := newTCPPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const n = 100
	var wg sync.WaitGroup
	var failures atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cli.Call(ctx, 0, &wire.DecideAck{Txn: wire.TxnID{Seq: uint64(i)}})
			if err != nil || resp.(*wire.DecideAck).Txn.Seq != uint64(i) {
				failures.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d/%d calls failed", failures.Load(), n)
	}
}

func TestTCPSelfSend(t *testing.T) {
	nw := NewTCP(map[wire.NodeID]string{0: "127.0.0.1:0"})
	defer func() { _ = nw.Close() }()
	got := make(chan wire.Msg, 1)
	ep, err := nw.Join(0, func(env wire.Envelope) { got <- env.Msg })
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(0, wire.Envelope{Msg: &wire.Remove{Txn: wire.TxnID{Seq: 8}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.(*wire.Remove).Txn.Seq != 8 {
			t.Fatal("loopback corrupted")
		}
	case <-time.After(time.Second):
		t.Fatal("loopback not delivered")
	}
}

// multiNet is a client (node 0) and three servers (nodes 1..3) on one
// network. Each server answers a request with a DecideAck naming itself
// (Txn.Node), so a reply shows which leg it belongs to, and echoing the
// request's Txn.Seq when it is a Remove, so a reply shows which message the
// leg carried; a server with a hold channel delays its answers until the
// channel is closed.
type multiNet struct {
	cli  *RPC
	hold [4]chan struct{}
}

var multiTargets = []wire.NodeID{1, 2, 3}

// forEachMultiNet runs f on a fresh multiNet, with the servers in held
// holding their answers, over the in-process back end (built from cfg) and
// over TCP.
func forEachMultiNet(t *testing.T, cfg InProcConfig, held []wire.NodeID, f func(t *testing.T, mn *multiNet)) {
	backends := []struct {
		name string
		mk   func(t *testing.T) Network
	}{
		{"inproc", func(*testing.T) Network { return NewInProc(cfg) }},
		{"tcp", func(t *testing.T) Network {
			book := make(map[wire.NodeID]string)
			for i, a := range freePorts(t, 4) {
				book[wire.NodeID(i)] = a
			}
			return NewTCP(book)
		}},
	}
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			nw := be.mk(t)
			mn := &multiNet{}
			for _, id := range held {
				mn.hold[id] = make(chan struct{})
			}
			var rpcs [4]*RPC
			t.Cleanup(func() {
				for _, id := range held {
					mn.release(id)
				}
				for _, r := range rpcs {
					if r != nil {
						_ = r.Close()
					}
				}
				_ = nw.Close()
			})
			for id := wire.NodeID(0); id < 4; id++ {
				id := id
				r, err := NewRPC(nw, id, func(from wire.NodeID, rid uint64, msg wire.Msg) {
					if rid == 0 {
						return
					}
					if ch := mn.hold[id]; ch != nil {
						<-ch
					}
					var seq uint64
					if rm, ok := msg.(*wire.Remove); ok {
						seq = rm.Txn.Seq
					}
					_ = rpcs[id].Reply(from, rid, &wire.DecideAck{Txn: wire.TxnID{Node: id, Seq: seq}})
				})
				if err != nil {
					t.Fatal(err)
				}
				rpcs[id] = r
			}
			mn.cli = rpcs[0]
			f(t, mn)
		})
	}
}

// release lets held server id answer; it is idempotent.
func (mn *multiNet) release(id wire.NodeID) {
	select {
	case <-mn.hold[id]:
	default:
		close(mn.hold[id])
	}
}

// collect reads m to exhaustion and checks every reply sits on the leg of
// the server that sent it, one reply per leg.
func collect(t *testing.T, m *Multi, targets []wire.NodeID) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	seen := make(map[int]bool)
	for {
		leg, resp, err := m.Next(deadline)
		if err != nil {
			if errors.Is(err, ErrTimeout) {
				t.Fatalf("multi-call stalled after %d replies", len(seen))
			}
			return len(seen)
		}
		if seen[leg] {
			t.Fatalf("leg %d answered twice", leg)
		}
		seen[leg] = true
		if from := resp.(*wire.DecideAck).Txn.Node; from != targets[leg] {
			t.Fatalf("leg %d (node %d) carries node %d's reply", leg, targets[leg], from)
		}
	}
}

// TestMultiTagsRepliesByLeg: replies come back tagged with the index of the
// target that sent them, exactly one per leg — also when the network
// delivers every request and every reply twice.
func TestMultiTagsRepliesByLeg(t *testing.T) {
	cfg := InProcConfig{DisableLatency: true, DuplicateDeliveries: true}
	forEachMultiNet(t, cfg, nil, func(t *testing.T, mn *multiNet) {
		for round := 0; round < 20; round++ {
			m := mn.cli.Multi(multiTargets, &wire.Remove{})
			if got := collect(t, m, multiTargets); got != len(multiTargets) {
				t.Fatalf("round %d: %d replies, want %d", round, got, len(multiTargets))
			}
			m.Release()
			if n := mn.cli.Pending(); n != 0 {
				t.Fatalf("round %d: %d slots left registered", round, n)
			}
		}
	})
}

// TestMultiPerLegMessages: a fan-out given one message per target sends
// msgs[i] to targets[i].
func TestMultiPerLegMessages(t *testing.T) {
	forEachMultiNet(t, InProcConfig{DisableLatency: true}, nil, func(t *testing.T, mn *multiNet) {
		m := mn.cli.Multi(multiTargets,
			&wire.Remove{Txn: wire.TxnID{Seq: 10}}, &wire.Remove{Txn: wire.TxnID{Seq: 11}}, &wire.Remove{Txn: wire.TxnID{Seq: 12}})
		defer m.Release()
		deadline := time.Now().Add(5 * time.Second)
		for range multiTargets {
			leg, resp, err := m.Next(deadline)
			if err != nil {
				t.Fatal(err)
			}
			if got := resp.(*wire.DecideAck).Txn.Seq; got != uint64(10+leg) {
				t.Fatalf("leg %d (node %d) was sent message %d, want %d", leg, multiTargets[leg], got, 10+leg)
			}
		}
	})
}

// TestMultiExpiryLeavesNothingBehind: a fan-out whose deadline passes with
// one leg unanswered returns the answered legs and deregisters the rest, and
// the straggler's late reply is not read by the next fan-out issued from the
// same goroutine (which may well reuse the reply channel).
func TestMultiExpiryLeavesNothingBehind(t *testing.T) {
	forEachMultiNet(t, InProcConfig{DisableLatency: true}, []wire.NodeID{3}, func(t *testing.T, mn *multiNet) {
		// Warm the links first so the short budget below is not spent dialing.
		warm := mn.cli.Multi(multiTargets[:2], &wire.Remove{})
		collect(t, warm, multiTargets)
		warm.Release()

		replies, first := mn.cli.Gather(200*time.Millisecond, multiTargets, &wire.Remove{}, nil)
		if replies[0] == nil || replies[1] == nil || replies[2] != nil {
			t.Fatalf("replies = %v, want the first two legs only", replies)
		}
		if first.IsZero() {
			t.Fatal("no first-reply instant with two legs answered")
		}
		if n := mn.cli.Pending(); n != 0 {
			t.Fatalf("%d slots left registered after expiry", n)
		}

		next := mn.cli.Multi(multiTargets[:2], &wire.Remove{})
		defer next.Release()
		mn.release(3) // the straggler answers now
		// Links deliver in order: once node 3 has answered this call, its
		// late reply has reached the client too.
		cctx, ccancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer ccancel()
		if _, err := mn.cli.Call(cctx, 3, &wire.Remove{}); err != nil {
			t.Fatal(err)
		}
		if got := collect(t, next, multiTargets); got != 2 {
			t.Fatalf("next fan-out read %d replies, want 2", got)
		}
	})
}

// TestMultiReleaseAfterFirstReply: a fastest-reply caller that returns on
// the first of three answers leaves no slot registered.
func TestMultiReleaseAfterFirstReply(t *testing.T) {
	forEachMultiNet(t, InProcConfig{DisableLatency: true}, []wire.NodeID{2, 3}, func(t *testing.T, mn *multiNet) {
		m := mn.cli.Multi(multiTargets, &wire.Remove{})
		if leg, _, err := m.Next(time.Now().Add(5 * time.Second)); err != nil || leg != 0 {
			t.Fatalf("first reply: leg %d, err %v; want leg 0", leg, err)
		}
		if n := mn.cli.Pending(); n != 2 {
			t.Fatalf("%d slots registered while two legs are out, want 2", n)
		}
		m.Release()
		if n := mn.cli.Pending(); n != 0 {
			t.Fatalf("%d slots left registered after release", n)
		}
	})
}

// TestRPCCloseFailsOutstandingCalls: closing the RPC ends a call parked on a
// peer that never answers, long before the call's own context would.
func TestRPCCloseFailsOutstandingCalls(t *testing.T) {
	forEachMultiNet(t, InProcConfig{DisableLatency: true}, []wire.NodeID{1}, func(t *testing.T, mn *multiNet) {
		errc := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, err := mn.cli.Call(ctx, 1, &wire.Remove{})
			errc <- err
		}()
		for mn.cli.Pending() == 0 {
			time.Sleep(time.Millisecond)
		}
		_ = mn.cli.Close()
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("err = %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("call still parked 2s after Close")
		}
	})
}
