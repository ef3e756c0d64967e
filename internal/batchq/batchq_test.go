package batchq

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestFIFOAndMaxCap(t *testing.T) {
	q := New[int]()
	for i := 0; i < 10; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d refused", i)
		}
	}
	var got []int
	for len(got) < 10 {
		batch, open := q.Take(nil, 4)
		if !open {
			t.Fatal("open queue reported closed")
		}
		if len(batch) > 4 {
			t.Fatalf("batch of %d exceeds max 4", len(batch))
		}
		got = append(got, batch...)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestCloseDrainsThenReportsClosed(t *testing.T) {
	q := New[int]()
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	q.Close()
	q.Close() // idempotent
	var got []int
	for {
		batch, open := q.Take(nil, 2)
		if open {
			t.Fatal("closed queue reported open")
		}
		if len(batch) == 0 {
			break
		}
		got = append(got, batch...)
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	if q.Push(9) {
		t.Fatal("Push after Close accepted")
	}
	if batch, _ := q.Take(nil, 2); len(batch) != 0 {
		t.Fatalf("refused push was queued: %v", batch)
	}
}

// TestTakeReleasesDrainedItems: once a burst is drained, no slot of the
// backing array still references an item that was handed out.
func TestTakeReleasesDrainedItems(t *testing.T) {
	q := New[*int]()
	for i := 0; i < 100; i++ {
		q.Push(new(int))
	}
	for n := 0; n < 100; {
		batch, _ := q.Take(nil, 7)
		n += len(batch)
	}
	q.Push(new(int))
	q.Push(new(int))
	q.Take(nil, 2)
	for i, p := range q.items[:cap(q.items)] {
		if p != nil {
			t.Fatalf("slot %d of the backing array still holds a taken item", i)
		}
	}
}

func TestWaitIdleAndReady(t *testing.T) {
	q := New[int]()
	if q.Wait(time.After(time.Millisecond)) {
		t.Fatal("Wait on an empty queue reported ready")
	}
	q.Push(1)
	if !q.Wait(time.After(time.Hour)) {
		t.Fatal("Wait on a non-empty queue timed out")
	}
	q.Take(nil, 1)
	// The push left a wake token behind; Wait must not mistake it for an
	// item.
	if q.Wait(time.After(time.Millisecond)) {
		t.Fatal("Wait woken by a stale token reported ready")
	}
	q.Close()
	if !q.Wait(nil) {
		t.Fatal("Wait on a closed queue blocked")
	}
}

// TestProducersOneConsumer runs under -race in CI: every pushed item is
// taken exactly once, each producer's items in its push order.
func TestProducersOneConsumer(t *testing.T) {
	const producers, per = 8, 500
	type item struct{ p, i int }
	q := New[item]()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if !q.Push(item{p, i}) {
					t.Error("push refused on an open queue")
					return
				}
			}
		}(p)
	}
	done := make(chan struct{})
	next := make([]int, producers)
	total := 0
	go func() {
		defer close(done)
		var batch []item
		for {
			batch, _ = q.Take(batch[:0], 16)
			if len(batch) == 0 {
				return
			}
			for _, it := range batch {
				if it.i != next[it.p] {
					t.Errorf("producer %d: got item %d, want %d", it.p, it.i, next[it.p])
				}
				next[it.p] = it.i + 1
				total++
			}
		}
	}()
	wg.Wait()
	q.Close()
	<-done
	if total != producers*per {
		t.Fatalf("took %d items, want %d", total, producers*per)
	}
}

// BenchmarkQueue is the steady-state send path: one push, one take into a
// reused batch. scripts/check_allocs.sh gates it at 0 allocs/op.
func BenchmarkQueue(b *testing.B) {
	type item struct {
		p  *int
		at time.Time
	}
	q := New[item]()
	batch := make([]item, 0, 64)
	v := new(int)
	for b.Loop() {
		q.Push(item{p: v})
		batch, _ = q.Take(batch[:0], 64)
	}
}
