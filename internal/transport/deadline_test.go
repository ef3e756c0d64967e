package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/wire"
)

// TestNextDeadlinePassed: a wait whose deadline has already passed fails
// with ErrTimeout at once, deregisters its leg, and the reply that arrives
// afterwards is dropped.
func TestNextDeadlinePassed(t *testing.T) {
	forEachMultiNet(t, InProcConfig{DisableLatency: true}, []wire.NodeID{1}, func(t *testing.T, mn *multiNet) {
		m := mn.cli.Multi(multiTargets[:1], &wire.Remove{})
		start := time.Now()
		if _, _, err := m.Next(start.Add(-time.Millisecond)); !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("expired wait took %v", d)
		}
		m.Release()
		if n := mn.cli.Pending(); n != 0 {
			t.Fatalf("%d slots left registered after expiry", n)
		}
		mn.release(1) // the late reply is sent now
		// Links deliver in order: once node 1 has answered this call, its
		// late reply has reached the client and found no slot.
		if _, err := mn.cli.CallWithin(5*time.Second, 1, &wire.Remove{}); err != nil {
			t.Fatal(err)
		}
		if n := mn.cli.Pending(); n != 0 {
			t.Fatalf("%d slots registered after the late reply", n)
		}
	})
}

// TestNextZeroDeadline: a zero deadline never expires — the wait ends at
// the reply, or with ErrClosed when the RPC is closed.
func TestNextZeroDeadline(t *testing.T) {
	forEachMultiNet(t, InProcConfig{DisableLatency: true}, []wire.NodeID{1, 2}, func(t *testing.T, mn *multiNet) {
		type result struct {
			leg int
			err error
		}
		wait := func(to wire.NodeID) <-chan result {
			res := make(chan result, 1)
			go func() {
				m := mn.cli.Multi([]wire.NodeID{to}, &wire.Remove{})
				defer m.Release()
				leg, _, err := m.Next(time.Time{})
				res <- result{leg, err}
			}()
			return res
		}

		res := wait(1)
		select {
		case r := <-res:
			t.Fatalf("zero-deadline wait ended before the reply: %+v", r)
		case <-time.After(50 * time.Millisecond):
		}
		mn.release(1)
		select {
		case r := <-res:
			if r.err != nil || r.leg != 0 {
				t.Fatalf("got leg %d, err %v; want leg 0", r.leg, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no reply 5s after release")
		}

		res = wait(2)
		for mn.cli.Pending() == 0 {
			time.Sleep(time.Millisecond)
		}
		_ = mn.cli.Close()
		select {
		case r := <-res:
			if !errors.Is(r.err, ErrClosed) {
				t.Fatalf("err = %v, want ErrClosed", r.err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("zero-deadline wait still parked 2s after Close")
		}
	})
}

// TestMultiTimerReuse: a pooled Multi whose timer fired — read by Next, or
// left pending after its reply won — never times out a later fan-out that
// reuses it with a far deadline.
func TestMultiTimerReuse(t *testing.T) {
	nw := NewInProc(InProcConfig{DisableLatency: true})
	defer func() { _ = nw.Close() }()
	var echo *RPC
	echo, err := NewRPC(nw, 1, func(from wire.NodeID, rid uint64, msg wire.Msg) {
		_ = echo.Reply(from, rid, msg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRPC(nw, 2, func(wire.NodeID, uint64, wire.Msg) {}); err != nil { // never answers
		t.Fatal(err)
	}
	cli, err := NewRPC(nw, 0, func(wire.NodeID, uint64, wire.Msg) {})
	if err != nil {
		t.Fatal(err)
	}

	// Even iterations leave a fire pending, odd ones read it; every one
	// then reuses the Multi with a far deadline. A missed expiry stalls the
	// loop, so it runs under a watchdog.
	far := time.Now().Add(time.Minute)
	done := make(chan error, 1)
	go func() {
		reused := 0
		for i := 0; i < 1000; i++ {
			var fired *Multi
			if i%2 == 0 {
				// The reply (most likely) wins, and the fire is left pending.
				fired = cli.Multi([]wire.NodeID{1}, &wire.Remove{})
				deadline := time.Now().Add(time.Millisecond)
				_, _, _ = fired.Next(deadline)
				time.Sleep(time.Until(deadline) + 100*time.Microsecond)
			} else {
				// The timer fires and Next reads the fire.
				fired = cli.Multi([]wire.NodeID{2}, &wire.Remove{})
				if _, _, err := fired.Next(time.Now()); !errors.Is(err, ErrTimeout) {
					done <- fmt.Errorf("iteration %d: err = %v, want ErrTimeout", i, err)
					return
				}
			}
			fired.Release()

			m := cli.Multi([]wire.NodeID{1}, &wire.Remove{})
			if m == fired {
				reused++
			}
			_, _, err := m.Next(far)
			m.Release()
			if err != nil {
				done <- fmt.Errorf("iteration %d: reused fan-out failed: %w", i, err)
				return
			}
		}
		if reused < 100 {
			done <- fmt.Errorf("the pool handed back the fired Multi %d times of 1000; the test needs reuse", reused)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("stalled: a deadline that passed never fired")
	}
}

// BenchmarkRPCGather is one three-leg fan-out and its wait over the
// in-process transport with latency off: the RPC layer's cost per call.
func BenchmarkRPCGather(b *testing.B) {
	nw := NewInProc(InProcConfig{DisableLatency: true})
	defer func() { _ = nw.Close() }()
	targets := []wire.NodeID{1, 2, 3}
	ack := &wire.DecideAck{}
	for _, id := range targets {
		var r *RPC
		r, err := NewRPC(nw, id, func(from wire.NodeID, rid uint64, _ wire.Msg) {
			_ = r.Reply(from, rid, ack)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	cli, err := NewRPC(nw, 0, func(wire.NodeID, uint64, wire.Msg) {})
	if err != nil {
		b.Fatal(err)
	}
	msg := &wire.Remove{}
	buf := make([]wire.Msg, 0, len(targets))
	b.ReportAllocs()
	for b.Loop() {
		replies, _ := cli.Gather(time.Second, targets, msg, buf)
		for _, r := range replies {
			if r == nil {
				b.Fatal("a leg went unanswered")
			}
		}
	}
}
