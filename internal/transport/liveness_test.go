package transport

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/wire"
)

// TestPingDetectsDeadIdleConn drives the idle pinger with a fake clock: a
// warmed connection to a peer that dies must be probed, detected
// (PeerUnresponsive), and discarded — so the next real traffic dials fresh
// instead of dying in the dead connection's kernel buffer.
func TestPingDetectsDeadIdleConn(t *testing.T) {
	addrs := freePorts(t, 2)
	book := map[wire.NodeID]string{0: addrs[0], 1: addrs[1]}

	ticks := make(chan time.Time)
	tune := tuning{tickFn: func(time.Duration) <-chan time.Time { return ticks }}
	net0 := newTCPTuned(book, tune)
	defer func() { _ = net0.Close() }()
	var rpc0 *RPC
	rpc0, err := NewRPC(net0, 0, func(from wire.NodeID, rid uint64, msg wire.Msg) {
		if rid != 0 {
			_ = rpc0.Reply(from, rid, msg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	net1 := NewTCP(book)
	var rpc1 *RPC
	rpc1, err = NewRPC(net1, 1, func(from wire.NodeID, rid uint64, msg wire.Msg) {
		if rid != 0 {
			_ = rpc1.Reply(from, rid, msg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Warm the 0→1 link so its stream holds an established connection.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if _, err := rpc0.Call(ctx, 1, &wire.ReadRequest{Key: "k"}); err != nil {
		t.Fatalf("baseline call: %v", err)
	}
	cancel()

	// Feed ticks until the warmed stream pings (idle queues without a
	// connection consume ticks without counting).
	feed := func(pred func() bool, what string) {
		deadline := time.After(10 * time.Second)
		for !pred() {
			select {
			case ticks <- time.Now():
			case <-deadline:
				t.Fatalf("%s never happened", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	feed(func() bool { return net0.Metrics().PingsSent.Load() > 0 }, "ping on live conn")

	// Peer dies. The next ping writes may land in the dead kernel buffer,
	// but within a couple of probes the write must error: the conn is
	// counted unresponsive and discarded.
	_ = net1.Close()
	feed(func() bool { return net0.Metrics().PeerUnresponsive.Load() > 0 }, "unresponsive-peer detection")
	if net0.Metrics().DiscardedConns.Load() == 0 {
		t.Fatal("ping failure did not discard the dead connection")
	}
}

// TestWriteErrorResendsRetainedFrames kills a peer mid-stream and verifies
// the frames written into the dying connection are retained and rewritten
// on the healed link — the one-lost-batch window, closed. One-way Remove
// notifications are used so nothing retries above the transport: every
// arrival after the restart is the transport's own doing.
func TestWriteErrorResendsRetainedFrames(t *testing.T) {
	addrs := freePorts(t, 2)
	book := map[wire.NodeID]string{0: addrs[0], 1: addrs[1]}

	// Pings off: this test exercises the write-error path alone.
	net0 := newTCPTuned(book, tuning{PingInterval: -1})
	defer func() { _ = net0.Close() }()
	ep0, err := net0.Join(0, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}

	type seqSet struct {
		mu   sync.Mutex
		seen map[uint64]bool
	}
	boot1 := func() (*TCP, *seqSet) {
		got := &seqSet{seen: make(map[uint64]bool)}
		n := NewTCP(book)
		if _, err := n.Join(1, func(env wire.Envelope) {
			got.mu.Lock()
			got.seen[env.Msg.(*wire.Remove).Txn.Seq] = true
			got.mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		return n, got
	}
	has := func(s *seqSet, seqs ...uint64) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, q := range seqs {
			if !s.seen[q] {
				return false
			}
		}
		return true
	}
	send := func(seq uint64) {
		if err := ep0.Send(1, wire.Envelope{Msg: &wire.Remove{Txn: wire.TxnID{Node: 0, Seq: seq}}}); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}

	net1, got1 := boot1()
	send(1)
	deadline := time.Now().Add(5 * time.Second)
	for !has(got1, 1) {
		if time.Now().After(deadline) {
			t.Fatal("baseline delivery never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Peer dies; these frames land in a dead kernel buffer or error
	// outright. Either way they must be retained.
	_ = net1.Close()
	time.Sleep(50 * time.Millisecond)
	send(2)
	time.Sleep(10 * time.Millisecond)
	send(3)

	// Peer restarts; keep nudging the stream with fresh traffic until the
	// retained frames are rewritten and everything has arrived.
	net1b, got1b := boot1()
	defer func() { _ = net1b.Close() }()
	deadline = time.Now().Add(10 * time.Second)
	for !has(got1b, 2, 3, 4) {
		if time.Now().After(deadline) {
			got1b.mu.Lock()
			t.Fatalf("retained frames never arrived after restart: got %v", got1b.seen)
		}
		send(4)
		time.Sleep(20 * time.Millisecond)
	}
	if net0.Metrics().BatchResends.Load() == 0 {
		t.Fatal("deliveries healed without any counted batch resend")
	}
}

// TestDuplicateDeliverySeam verifies the amplifier: every remote message is
// delivered exactly twice, self-sends once.
func TestDuplicateDeliverySeam(t *testing.T) {
	nw := NewInProc(InProcConfig{DisableLatency: true, DuplicateDeliveries: true})
	defer func() { _ = nw.Close() }()
	var remote, local atomic.Int32
	if _, err := nw.Join(1, func(wire.Envelope) { remote.Add(1) }); err != nil {
		t.Fatal(err)
	}
	ep, err := nw.Join(0, func(wire.Envelope) { local.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(1, wire.Envelope{Msg: &wire.Remove{Txn: wire.TxnID{Seq: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(0, wire.Envelope{Msg: &wire.Remove{Txn: wire.TxnID{Seq: 2}}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for remote.Load() != 2 || local.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("remote=%d (want 2), local=%d (want 1)", remote.Load(), local.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // no extra copies trickle in
	if remote.Load() != 2 || local.Load() != 1 {
		t.Fatalf("late extras: remote=%d (want 2), local=%d (want 1)", remote.Load(), local.Load())
	}
}

// TestInProcFilterSeam verifies the lossy-link filter drops exactly what it
// is told to.
func TestInProcFilterSeam(t *testing.T) {
	var dropSeq2 atomic.Bool
	dropSeq2.Store(true)
	nw := NewInProc(InProcConfig{
		DisableLatency: true,
		Filter: func(from, to wire.NodeID, env wire.Envelope) bool {
			r, ok := env.Msg.(*wire.Remove)
			return !(ok && r.Txn.Seq == 2 && dropSeq2.Load())
		},
	})
	defer func() { _ = nw.Close() }()
	var mu sync.Mutex
	seen := map[uint64]bool{}
	if _, err := nw.Join(1, func(env wire.Envelope) {
		mu.Lock()
		seen[env.Msg.(*wire.Remove).Txn.Seq] = true
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	ep, err := nw.Join(0, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{1, 2, 3} {
		if err := ep.Send(1, wire.Envelope{Msg: &wire.Remove{Txn: wire.TxnID{Node: 0, Seq: seq}}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		ok13, saw2 := seen[1] && seen[3], seen[2]
		mu.Unlock()
		if saw2 {
			t.Fatal("filtered message was delivered")
		}
		if ok13 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("unfiltered messages never arrived: %v", seen)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPLargeFrameAndPingRoundTrip checks the unbuffered write path: a
// frame larger than 64 KiB goes out as one length-prefixed write and comes
// back intact, and a liveness ping written straight to a live connection
// neither errors nor disturbs the framing of the traffic after it.
func TestTCPLargeFrameAndPingRoundTrip(t *testing.T) {
	ticks := make(chan time.Time)
	nw, _, cli := newTCPPairTuned(t, tuning{tickFn: func(time.Duration) <-chan time.Time { return ticks }})
	call := func(val []byte) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		resp, err := cli.Call(ctx, 0, &wire.ReadReturn{Val: val, Exists: true})
		if err != nil {
			t.Fatalf("call with a %d B value: %v", len(val), err)
		}
		if got := resp.(*wire.ReadReturn).Val; !bytes.Equal(got, val) {
			t.Fatalf("%d B value came back as %d B, corrupted", len(val), len(got))
		}
	}
	big := make([]byte, 200<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	call(big)

	// Ping the now-live link until a ping is counted, then check it was
	// written cleanly and the next frame still parses.
	deadline := time.After(10 * time.Second)
	for nw.Metrics().PingsSent.Load() == 0 {
		select {
		case ticks <- time.Now():
		case <-deadline:
			t.Fatal("no ping on the live connection")
		}
	}
	if m := nw.Metrics(); m.PeerUnresponsive.Load() != 0 || m.DiscardedConns.Load() != 0 {
		t.Fatalf("ping on a live connection failed: unresponsive=%d discarded=%d",
			m.PeerUnresponsive.Load(), m.DiscardedConns.Load())
	}
	call(big[:100])
	call(big)
}

// TestIdlePingerRearms runs the pinger on its real, reused timer: an idle
// warmed link must be probed again and again, so the timer is re-armed
// after every tick and after every batch that interrupts the idle wait.
func TestIdlePingerRearms(t *testing.T) {
	nw, _, cli := newTCPPairTuned(t, tuning{PingInterval: 5 * time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for round := 1; round <= 3; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := cli.Call(ctx, 0, &wire.Vote{Txn: wire.TxnID{Node: 1, Seq: uint64(round)}, OK: true})
		cancel()
		if err != nil {
			t.Fatalf("call %d: %v", round, err)
		}
		want := nw.Metrics().PingsSent.Load() + 3
		for nw.Metrics().PingsSent.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d pings, want %d", round, nw.Metrics().PingsSent.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
