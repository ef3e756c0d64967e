package metrics

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero histogram should report zeros")
	}
	h.Observe(100 * time.Nanosecond)
	h.Observe(200 * time.Nanosecond)
	h.Observe(300 * time.Nanosecond)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 200*time.Nanosecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Max() != 300*time.Nanosecond {
		t.Fatalf("Max = %v", h.Max())
	}
	if h.Sum() != 600*time.Nanosecond {
		t.Fatalf("Sum = %v", h.Sum())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if h.Max() != 0 {
		t.Fatalf("negative observation should clamp to 0, max=%v", h.Max())
	}
}

func TestQuantileMonotone(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 > p99 {
		t.Fatalf("p50 %v > p99 %v", p50, p99)
	}
	if p99 > h.Max() {
		t.Fatalf("p99 %v > max %v", p99, h.Max())
	}
	// log2 buckets: p50 of 1..1000µs is in [512µs, 1024µs]; loose check.
	if p50 < 256*time.Microsecond || p50 > 1100*time.Microsecond {
		t.Fatalf("p50 = %v, implausible", p50)
	}
}

func TestBucketOf(t *testing.T) {
	if bucketOf(0) != 0 {
		t.Fatal("bucketOf(0)")
	}
	if bucketOf(1) != 1 {
		t.Fatalf("bucketOf(1) = %d", bucketOf(1))
	}
	if b := bucketOf(1 << 63); b != numBuckets-1 {
		t.Fatalf("bucketOf(huge) = %d", b)
	}
	// Every bucket edge below the last bucket agrees with BucketUpperBound:
	// 2^i-1 is bucket i's inclusive bound and 2^i opens bucket i+1.
	for i := 0; i < numBuckets-1; i++ {
		ub := BucketUpperBound(i)
		if ub != 1<<uint(i)-1 {
			t.Fatalf("BucketUpperBound(%d) = %d, want 2^%d-1", i, ub, i)
		}
		if b := bucketOf(ub); b != i {
			t.Fatalf("bucketOf(2^%d-1) = %d, want %d", i, b, i)
		}
		if b := bucketOf(ub + 1); b != i+1 {
			t.Fatalf("bucketOf(2^%d) = %d, want %d", i, b, i+1)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
}

func TestSnapshotString(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 || s.String() == "" {
		t.Fatalf("Snapshot = %+v", s)
	}
}

func TestEngineAbortRate(t *testing.T) {
	var e Engine
	if e.AbortRate() != 0 {
		t.Fatal("empty engine abort rate should be 0")
	}
	e.Commits.Store(90)
	e.Aborts.Store(10)
	if got := e.AbortRate(); got != 0.1 {
		t.Fatalf("AbortRate = %v, want 0.1", got)
	}
}

// leafCount counts the metric fields of t the way a reader of the struct
// would: every atomic.Uint64, atomic.Int64 and Histogram field, nested
// structs included.
func leafCount(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		switch ft := t.Field(i).Type; ft {
		case reflect.TypeOf(atomic.Uint64{}), reflect.TypeOf(atomic.Int64{}), reflect.TypeOf(Histogram{}):
			n++
		default:
			n += leafCount(ft)
		}
	}
	return n
}

// families are the metrics structs the server registers or merges.
func families() []any {
	return []any{&Engine{}, &Transport{}, &Durability{}, &ClientNet{}, &Retained{}}
}

func TestWalkVisitsEveryLeaf(t *testing.T) {
	for _, fam := range families() {
		root := reflect.ValueOf(fam).Elem()
		seen := map[string]bool{}
		Walk(fam, func(l Leaf) {
			path := strings.Join(l.Path, ".")
			if seen[path] {
				t.Errorf("%T: %s visited twice", fam, path)
			}
			seen[path] = true
			f := root
			for _, name := range l.Path {
				f = f.FieldByName(name)
			}
			var ptrs []uintptr
			if l.Counter != nil {
				ptrs = append(ptrs, reflect.ValueOf(l.Counter).Pointer())
			}
			if l.Gauge != nil {
				ptrs = append(ptrs, reflect.ValueOf(l.Gauge).Pointer())
			}
			if l.Histogram != nil {
				ptrs = append(ptrs, reflect.ValueOf(l.Histogram).Pointer())
			}
			if len(ptrs) != 1 || ptrs[0] != f.Addr().Pointer() {
				t.Errorf("%T: leaf %s is not exactly one pointer at its field", fam, path)
			}
		})
		if want := leafCount(root.Type()); len(seen) != want {
			t.Errorf("%T: Walk visited %d leaves, the struct has %d", fam, len(seen), want)
		}
	}
	var paths []string
	Walk(&Engine{}, func(l Leaf) { paths = append(paths, strings.Join(l.Path, ".")) })
	for _, want := range []string{"Commits", "CommitRounds.DrainRounds", "Stage.Vote", "Contention.SQWaits"} {
		if !slices.Contains(paths, want) {
			t.Errorf("Engine walk lacks %s: %v", want, paths)
		}
	}
}

func TestMergeAddsEveryLeaf(t *testing.T) {
	for _, src := range families() {
		Walk(src, func(l Leaf) {
			switch {
			case l.Counter != nil:
				l.Counter.Store(1)
			case l.Gauge != nil:
				l.Gauge.Store(1)
			default:
				l.Histogram.Observe(1)
			}
		})
		dst := reflect.New(reflect.TypeOf(src).Elem()).Interface()
		Merge(dst, src) // a copy of src
		Merge(dst, src)
		Walk(dst, func(l Leaf) {
			path := strings.Join(l.Path, ".")
			switch {
			case l.Counter != nil:
				if got := l.Counter.Load(); got != 2 {
					t.Errorf("%T.%s = %d, want 2", src, path, got)
				}
			case l.Gauge != nil:
				if got := l.Gauge.Load(); got != 2 {
					t.Errorf("%T.%s = %d, want 2", src, path, got)
				}
			default:
				h := l.Histogram
				if h.Count() != 2 || h.Sum() != 2 || h.Max() != 1 {
					t.Errorf("%T.%s: count %d sum %v max %v, want 2, 2ns, 1ns", src, path, h.Count(), h.Sum(), h.Max())
				}
			}
		})
	}
}

func TestMergePanics(t *testing.T) {
	for name, merge := range map[string]func(){
		"mismatched families": func() { Merge(&Transport{}, &Contention{}) },
		"value, not pointer":  func() { Merge(Retained{}, Retained{}) },
		"unsupported field":   func() { Merge(&struct{ N int }{}, &struct{ N int }{}) },
		"unexported field":    func() { Merge(&struct{ n atomic.Uint64 }{}, &struct{ n atomic.Uint64 }{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Merge did not panic", name)
				}
			}()
			merge()
		}()
	}
}
