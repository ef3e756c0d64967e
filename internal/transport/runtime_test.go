package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/batchq"
	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/wire"
)

// TestInboundPoolSaturationNoLoss floods an endpoint whose handlers all
// block until every message has arrived: with a tiny worker pool this
// saturates immediately, and only the spill path can deliver the rest. Run
// under -race in CI; it must neither lose messages nor deadlock.
func TestInboundPoolSaturationNoLoss(t *testing.T) {
	const total = 200
	nw := NewInProc(InProcConfig{DisableLatency: true, tuning: tuning{Workers: 2}})
	defer func() { _ = nw.Close() }()

	var arrived atomic.Int32
	release := make(chan struct{})
	done := make(chan struct{})
	_, err := nw.Join(1, func(env wire.Envelope) {
		if arrived.Add(1) == total {
			close(done)
		}
		<-release // every handler blocks until all messages were dispatched
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := nw.Join(0, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < total; i++ {
		if err := ep.Send(1, wire.Envelope{Msg: &wire.Remove{Txn: wire.TxnID{Node: 0, Seq: uint64(i + 1)}}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("deadlock: only %d/%d messages dispatched with all workers blocked", arrived.Load(), total)
	}
	close(release)
	if sp := nw.Metrics().Spills.Load(); sp == 0 {
		t.Fatal("expected pool spills with 2 workers and 200 blocking handlers")
	}
}

// TestBlockedHandlerCannotStallUnblocker models SSS's Decide drain: the
// first message's handler blocks until the second message is handled. With
// a single worker this deadlocks unless dispatch spills.
func TestBlockedHandlerCannotStallUnblocker(t *testing.T) {
	nw := NewInProc(InProcConfig{DisableLatency: true, tuning: tuning{Workers: 1}})
	defer func() { _ = nw.Close() }()

	unblock := make(chan struct{})
	finished := make(chan struct{})
	_, err := nw.Join(1, func(env wire.Envelope) {
		switch env.Msg.(*wire.Remove).Txn.Seq {
		case 1:
			<-unblock
			close(finished)
		case 2:
			close(unblock)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := nw.Join(0, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(1, wire.Envelope{Msg: &wire.Remove{Txn: wire.TxnID{Node: 0, Seq: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(1, wire.Envelope{Msg: &wire.Remove{Txn: wire.TxnID{Node: 0, Seq: 2}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("blocked handler starved its unblocker: spill path broken")
	}
}

// TestInProcCoalescesUnderBackpressure holds a latency window open and
// verifies that messages sent inside it are delivered as one batch.
func TestInProcCoalescesUnderBackpressure(t *testing.T) {
	nw := NewInProc(InProcConfig{Latency: 5 * time.Millisecond})
	defer func() { _ = nw.Close() }()
	var got atomic.Int32
	all := make(chan struct{})
	if _, err := nw.Join(1, func(wire.Envelope) {
		if got.Add(1) == 50 {
			close(all)
		}
	}); err != nil {
		t.Fatal(err)
	}
	ep, err := nw.Join(0, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := ep.Send(1, wire.Envelope{Msg: &wire.Remove{Txn: wire.TxnID{Node: 0, Seq: uint64(i + 1)}}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatal("messages lost")
	}
	// Only pipe 0→1 carries traffic, so the network-wide counters are its.
	if epf := nw.Metrics().EnvelopesPerFlush(); epf < 2 {
		t.Fatalf("EnvelopesPerFlush = %.2f, want >= 2 (50 sends inside one 5ms latency window)", epf)
	}
}

// TestTCPBatchedCallsUnderLoad drives many concurrent RPCs over TCP and
// checks correctness plus batch accounting on the sender side.
func TestTCPBatchedCallsUnderLoad(t *testing.T) {
	nw := newTCPTuned(map[wire.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}, tuning{MaxBatch: 16})
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

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 300
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
	// A sender counts a batch after flushing it, so the last responses can
	// be delivered before they are counted.
	m := nw.Metrics()
	for deadline := time.Now().Add(5 * time.Second); m.Envelopes.Load() < 2*n; m = nw.Metrics() {
		if time.Now().After(deadline) {
			t.Fatalf("Envelopes = %d, want >= %d (each call is a request + a response)", m.Envelopes.Load(), 2*n)
		}
		time.Sleep(time.Millisecond)
	}
	if m.Flushes.Load() == 0 {
		t.Fatal("no flushes recorded")
	}
}

// TestOutqDrainsOnClose verifies already-enqueued envelopes still flush
// during shutdown: a TCP stream's sender keeps draining its closed queue.
func TestOutqDrainsOnClose(t *testing.T) {
	var stats metrics.Transport
	var mu sync.Mutex
	var flushed []wire.Envelope
	blocker := make(chan struct{})
	q := batchq.New[queued]()
	done := make(chan struct{})
	go func() {
		defer close(done)
		runSender(q, tuning{}.withDefaults(), &stats, func(batch []wire.Envelope) {
			<-blocker // hold the sender so everything queues behind it
			mu.Lock()
			flushed = append(flushed, batch...)
			mu.Unlock()
		}, func() {})
	}()
	for i := 0; i < 10; i++ {
		if !q.Push(queued{env: wire.Envelope{Msg: &wire.Remove{Txn: wire.TxnID{Seq: uint64(i)}}}, at: time.Now()}) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	close(blocker)
	q.Close()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if len(flushed) != 10 {
		t.Fatalf("flushed %d/10 envelopes at close", len(flushed))
	}
	if q.Push(queued{env: wire.Envelope{Msg: &wire.Remove{}}}) {
		t.Fatal("enqueue after close should refuse")
	}
	if stats.Envelopes.Load() != 10 {
		t.Fatalf("Envelopes = %d, want 10", stats.Envelopes.Load())
	}
}
