package commitlog

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
)

// TestPropVisibleMaxMatchesFullHistory drives logs below their capacity
// through random interleavings of Prepare, Decide (commit and abort, write
// replica or not), RecordExternal, FoldKnowledge and Bootstrap, keeping every
// applied commit as the oracle. However much the log has dropped, VisibleMax
// joined with ExternalVC must equal the full-history scan joined with
// ExternalVC for every query shape, and the log must hold exactly the
// applied commits ExternalVC does not cover.
func TestPropVisibleMaxMatchesFullHistory(t *testing.T) {
	const histories, steps = 10000, 40
	for seed := int64(1); seed <= histories; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		self := r.Intn(n)
		l := New(self, n, 0)

		type prepared struct {
			id    wire.TxnID
			vc    vclock.VC
			write bool
		}
		var history []Entry // every applied commit and checkpoint barrier
		var pending []prepared
		// randomClock returns a clock near the log's current frontier, so
		// external folds cover some entries and miss others.
		randomClock := func() vclock.VC {
			vc := l.MostRecentVC()
			if len(history) > 0 && r.Intn(2) == 0 {
				vc = history[r.Intn(len(history))].VC.Clone()
			}
			for w := range vc {
				switch r.Intn(4) {
				case 0:
					vc[w] /= 2
				case 1:
					vc[w] += uint64(r.Intn(3))
				}
			}
			return vc
		}

		for step := 0; step < steps; step++ {
			switch op := r.Intn(10); {
			case op < 3:
				id := wire.TxnID{Node: wire.NodeID(r.Intn(n)), Seq: uint64(step + 1)}
				write := r.Intn(4) > 0
				vc := l.Prepare(id, write, func(cvc vclock.VC) {
					history = append(history, Entry{Txn: id, VC: cvc.Clone()})
				})
				pending = append(pending, prepared{id, vc, write})
			case op < 7:
				if len(pending) == 0 {
					continue
				}
				i := r.Intn(len(pending))
				p := pending[i]
				pending = append(pending[:i], pending[i+1:]...)
				// A commit clock joins every participant's proposal: at or
				// above this one's.
				final := p.vc.Clone()
				for w := range final {
					final[w] += uint64(r.Intn(3))
				}
				l.Decide(p.id, final, r.Intn(5) > 0, p.write)
			case op < 9:
				l.RecordExternal(randomClock())
			case r.Intn(2) == 0:
				l.FoldKnowledge(randomClock())
			default:
				mostRecent := randomClock()
				barrier := vclock.Max(mostRecent, l.MostRecentVC())
				l.Bootstrap(mostRecent, randomClock())
				history = append(history, Entry{VC: barrier})
			}

			ext := l.ExternalVC()
			uncovered := 0
			for _, e := range history {
				if !e.VC.LessEq(ext) {
					uncovered++
				}
			}
			if got := l.Len(); got != uncovered {
				t.Fatalf("seed %d step %d: Len = %d, want %d uncovered of %d applied",
					seed, step, got, uncovered, len(history))
			}
			for q := 0; q < 3; q++ {
				hasRead, bound, excluded := randomQuery(r, n, l.MostRecentVC(), history)
				got := l.VisibleMax(hasRead, bound, excluded)
				got.MaxInto(ext)
				want := vclock.New(n) // the genesis entry
				for _, e := range history {
					if _, ex := excluded[e.Txn]; ex && !e.Txn.IsZero() {
						continue
					}
					if visible(e.VC, hasRead, bound) {
						want.MaxInto(e.VC)
					}
				}
				want.MaxInto(ext)
				if !got.Equal(want) {
					t.Fatalf("seed %d step %d: VisibleMax(%v, %v, %v) ∨ external = %v, full history gives %v",
						seed, step, hasRead, bound, excluded, got, want)
				}
			}
		}
	}
}

// randomQuery draws a read's visibility constraint: no bound or a bound
// below, at or above the frontier on a random set of nodes, and an
// exclusion set naming applied writers and possibly one never applied.
func randomQuery(r *rand.Rand, n int, frontier vclock.VC, history []Entry) ([]bool, vclock.VC, map[wire.TxnID]struct{}) {
	var hasRead []bool
	var bound vclock.VC
	if r.Intn(3) > 0 {
		hasRead = make([]bool, n)
		bound = vclock.New(n)
		for w := 0; w < n; w++ {
			hasRead[w] = r.Intn(2) == 0
			switch r.Intn(3) {
			case 0:
				bound[w] = frontier[w] / 2
			case 1:
				bound[w] = frontier[w]
			default:
				bound[w] = frontier[w] + uint64(r.Intn(4))
			}
		}
	}
	var excluded map[wire.TxnID]struct{}
	if r.Intn(2) == 0 && len(history) > 0 {
		excluded = make(map[wire.TxnID]struct{})
		for k := 0; k < 1+r.Intn(3); k++ {
			excluded[history[r.Intn(len(history))].Txn] = struct{}{}
		}
		if r.Intn(2) == 0 {
			excluded[wire.TxnID{Node: 9, Seq: uint64(1 + r.Intn(99999))}] = struct{}{}
		}
	}
	return hasRead, bound, excluded
}

// TestVisibleMaxManyCapacities fills logs of several capacities with
// commits the external clock never covers: a full log evicts its oldest
// entry, so it holds the last capacity commits and VisibleMax is their max.
func TestVisibleMaxManyCapacities(t *testing.T) {
	for _, capacity := range []int{1, 2, 5, 8, 9, 17, 64, 65} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			l := New(0, 3, capacity)
			r := rand.New(rand.NewSource(int64(capacity)))
			var clocks []vclock.VC
			for i := 1; i <= 3*capacity+2; i++ {
				id := wire.TxnID{Node: wire.NodeID(r.Intn(3)), Seq: uint64(i)}
				final := l.Prepare(id, true, nil).Clone()
				final[1] = uint64(r.Intn(i + 1))
				final[2] = uint64(r.Intn(i + 1))
				l.Decide(id, final, true, true)
				clocks = append(clocks, final)

				kept := clocks[max(0, len(clocks)-capacity):]
				if got := l.Len(); got != len(kept) {
					t.Fatalf("after %d appends: Len = %d, want %d", i, got, len(kept))
				}
				want := vclock.New(3)
				for _, vc := range kept {
					want.MaxInto(vc)
				}
				if got := l.VisibleMax(nil, nil, nil); !got.Equal(want) {
					t.Fatalf("after %d appends: VisibleMax = %v, want %v (the last %d commits)", i, got, want, len(kept))
				}
			}
			if got := l.Applied(); got != uint64(3*capacity+2) {
				t.Fatalf("Applied = %d, want %d", got, 3*capacity+2)
			}
		})
	}
}

// TestVisibleMaxIntoFoldsDst documents VisibleMaxInto's fold contract: dst's
// existing entries participate in the max.
func TestVisibleMaxIntoFoldsDst(t *testing.T) {
	l := New(0, 2, 0)
	id := wire.TxnID{Node: 0, Seq: 1}
	vc := l.Prepare(id, true, nil)
	l.Decide(id, vc, true, true)
	dst := vclock.VC{0, 9}
	l.VisibleMaxInto(dst, nil, nil, nil)
	if dst[0] != 1 || dst[1] != 9 {
		t.Fatalf("VisibleMaxInto = %v, want [1 9]", dst)
	}
}

// TestNewAllocatesNoRing pins the footprint of an idle node's commit
// machinery: building a Log at the default capacity must not allocate for
// the capacity up front.
func TestNewAllocatesNoRing(t *testing.T) {
	const ceiling = 64 << 10
	if got := testing.Benchmark(BenchmarkNew).AllocedBytesPerOp(); got >= ceiling {
		t.Fatalf("New(0, 3, 0) allocates %d B, want < %d", got, ceiling)
	}
}

// TestWaitMostRecentWaiterRegistry exercises the per-bound waiter registry:
// many concurrent waiters at staggered bounds, woken in bound order as the
// frontier advances, with timeouts for unreachable bounds.
func TestWaitMostRecentWaiterRegistry(t *testing.T) {
	l := New(0, 1, 0)
	const waiters = 32
	results := make(chan struct {
		bound uint64
		ok    bool
	}, waiters+4)
	for i := 1; i <= waiters; i++ {
		go func(bound uint64) {
			ok := l.WaitMostRecent(bound, 5*time.Second)
			results <- struct {
				bound uint64
				ok    bool
			}{bound, ok}
		}(uint64(i))
	}
	// A few waiters on bounds that will never be reached.
	for i := 0; i < 4; i++ {
		go func() {
			ok := l.WaitMostRecent(waiters+100, 50*time.Millisecond)
			results <- struct {
				bound uint64
				ok    bool
			}{waiters + 100, ok}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	for i := 1; i <= waiters; i++ {
		id := wire.TxnID{Node: 0, Seq: uint64(i)}
		vc := l.Prepare(id, true, nil)
		l.Decide(id, vc, true, true)
	}
	for i := 0; i < waiters+4; i++ {
		res := <-results
		if res.bound <= waiters && !res.ok {
			t.Fatalf("waiter at bound %d should have been woken", res.bound)
		}
		if res.bound > waiters && res.ok {
			t.Fatalf("waiter at unreachable bound %d reported success", res.bound)
		}
	}
}
