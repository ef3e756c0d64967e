// Package obs is the production observability surface: a dependency-free
// Prometheus text-exposition registry over the internal/metrics families,
// an HTTP handler serving it, and a parser for the same format (consumed by
// `sss-client top`, benchmark/, and the e2e scrape checks).
//
// The registry is a seam, not a catalogue: Register reflects over a metrics
// struct and exports every field — atomic.Uint64 as a counter, atomic.Int64
// as a gauge, metrics.Histogram as a cumulative-bucket histogram, nested
// structs recursively with a prefixed name. A new counter added to any
// registered family is exported by construction; a field of any other type
// panics at registration (startup) so it cannot be silently dropped.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"

	"github.com/sss-paper/sss/internal/metrics"
)

// namespace prefixes every exported series.
const namespace = "sss"

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name    string
	kind    metricKind
	counter *atomic.Uint64
	gauge   *atomic.Int64
	hist    *metrics.Histogram
	// collect, when non-nil, makes the entry a whole family gathered at
	// scrape time (RegisterFunc); name is then the family's series prefix.
	collect func() any
}

// Registry holds the registered metric families in registration order;
// rendering is deterministic (registration order, then struct field order),
// which the golden-file test relies on.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// Register walks root — a pointer to a metrics struct — and registers every
// field under sss_<subsystem>_<snake_case_field_name>. An empty subsystem
// omits the middle segment (the engine and durability families register
// there so the load-bearing series keep their canonical names:
// sss_commits_total, sss_wal_sync_failures_total). Counters gain a _total
// suffix, histograms a _seconds suffix (buckets are rendered in seconds).
// Register panics on non-pointer roots, unsupported field types, and
// duplicate series names — all misconfigurations that must fail at startup,
// not scrape time.
func (r *Registry) Register(subsystem string, root any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	walk(seriesPrefix(subsystem), structOf(subsystem, root), r.add)
}

// RegisterFunc registers a family that has no single live struct to point
// at: collect runs at every scrape and returns a pointer to a freshly
// gathered metrics struct (the TCP transport's network-wide view is a merge
// over its per-peer counters — registering one such merge would freeze the
// page at its registration-time values). Naming, field shapes and the startup
// panics are Register's; collect runs once here to claim the series names.
func (r *Registry) RegisterFunc(subsystem string, collect func() any) {
	prefix := seriesPrefix(subsystem)
	r.mu.Lock()
	defer r.mu.Unlock()
	walk(prefix, structOf(subsystem, collect()), func(m metric) { r.claim(m.name) })
	r.metrics = append(r.metrics, metric{name: prefix, collect: collect})
}

func seriesPrefix(subsystem string) string {
	if subsystem == "" {
		return namespace + "_"
	}
	return namespace + "_" + subsystem + "_"
}

func structOf(subsystem string, root any) reflect.Value {
	v := reflect.ValueOf(root)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("obs: Register(%q): root must be a pointer to a struct, got %T", subsystem, root))
	}
	return v.Elem()
}

// walk hands add one metric per field of v, recursing into nested structs.
func walk(prefix string, v reflect.Value, add func(metric)) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			panic(fmt.Sprintf("obs: unexported metric field %s.%s", t.Name(), f.Name))
		}
		name := prefix + snake(f.Name)
		switch ptr := v.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			add(metric{name: name + "_total", kind: kindCounter, counter: ptr})
		case *atomic.Int64:
			add(metric{name: name, kind: kindGauge, gauge: ptr})
		case *metrics.Histogram:
			add(metric{name: name + "_seconds", kind: kindHistogram, hist: ptr})
		default:
			if f.Type.Kind() == reflect.Struct {
				walk(name+"_", v.Field(i), add)
				continue
			}
			panic(fmt.Sprintf("obs: unsupported metric field type %s for %s.%s", f.Type, t.Name(), f.Name))
		}
	}
}

func (r *Registry) add(m metric) {
	r.claim(m.name)
	r.metrics = append(r.metrics, m)
}

func (r *Registry) claim(name string) {
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %s", name))
	}
	r.names[name] = struct{}{}
}

// snake converts a Go exported identifier to snake_case, keeping acronym
// runs together: Commits → commits, WalSyncFailures → wal_sync_failures,
// SQWaits → sq_waits.
func snake(name string) string {
	var b strings.Builder
	rs := []rune(name)
	for i, c := range rs {
		if unicode.IsUpper(c) {
			prevLower := i > 0 && !unicode.IsUpper(rs[i-1])
			nextLower := i+1 < len(rs) && unicode.IsLower(rs[i+1])
			if i > 0 && (prevLower || nextLower) {
				b.WriteByte('_')
			}
			b.WriteRune(unicode.ToLower(c))
		} else {
			b.WriteRune(c)
		}
	}
	return b.String()
}

// Render writes the registry in Prometheus text exposition format
// (version 0.0.4). Values are read with the same atomic loads the live
// counters use; a page rendered during load is per-sample consistent but
// not a point-in-time snapshot across samples (standard Prometheus
// semantics).
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	ms := r.metrics
	r.mu.Unlock()
	var buckets [metrics.NumBuckets]uint64
	var err error
	render := func(m metric) {
		if err != nil {
			return
		}
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.counter.Load())
		case kindGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", m.name, m.name, m.gauge.Load())
		case kindHistogram:
			err = renderHistogram(w, m.name, m.hist, &buckets)
		}
	}
	for _, m := range ms {
		if m.collect != nil {
			walk(m.name, reflect.ValueOf(m.collect()).Elem(), render)
		} else {
			render(m)
		}
	}
	return err
}

func renderHistogram(w io.Writer, name string, h *metrics.Histogram, scratch *[metrics.NumBuckets]uint64) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	h.Buckets(scratch[:])
	var cum uint64
	for i := 0; i < metrics.NumBuckets; i++ {
		cum += scratch[i]
		le := "+Inf"
		if i < metrics.NumBuckets-1 {
			le = formatSeconds(float64(metrics.BucketUpperBound(i)) / 1e9)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	// Count is loaded independently of the buckets; under concurrent
	// Observe calls it can trail the bucket sum by in-flight observations.
	// Report the bucket sum so count == bucket{+Inf}, the invariant
	// Prometheus clients (and our parser) check.
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatSeconds(float64(h.Sum())/1e9)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, cum)
	return err
}

func formatSeconds(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the rendered page; mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Render(w)
	})
}
