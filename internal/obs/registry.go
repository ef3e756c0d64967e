// Package obs is the production observability surface: a dependency-free
// Prometheus text-exposition registry over the internal/metrics families,
// an HTTP handler serving it, and a parser for the same format (consumed by
// `sss-client top`, benchmark/, and the e2e scrape checks).
//
// The registry is a seam, not a catalogue: Register exports every leaf that
// metrics.Walk finds in a family — a counter, a gauge or a cumulative-bucket
// histogram — so a new counter added to any registered family is exported by
// construction, and a field Walk cannot classify panics at registration
// (startup) instead of being silently dropped.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"github.com/sss-paper/sss/internal/metrics"
)

// namespace prefixes every exported series.
const namespace = "sss"

// metric is one series of the page: a leaf of a registered family under its
// exposition name.
type metric struct {
	name string
	leaf metrics.Leaf
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
	walk(seriesPrefix(subsystem), root, r.add)
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
	walk(prefix, collect(), func(m metric) { r.claim(m.name) })
	r.metrics = append(r.metrics, metric{name: prefix, collect: collect})
}

func seriesPrefix(subsystem string) string {
	if subsystem == "" {
		return namespace + "_"
	}
	return namespace + "_" + subsystem + "_"
}

// walk hands add one metric per leaf of family (metrics.Walk), named
// prefix + the field path in metrics.SnakeCase joined by underscores, with the _total suffix on counters
// and _seconds on histograms.
func walk(prefix string, family any, add func(metric)) {
	metrics.Walk(family, func(l metrics.Leaf) {
		name := prefix
		for i, f := range l.Path {
			if i > 0 {
				name += "_"
			}
			name += metrics.SnakeCase(f)
		}
		switch {
		case l.Counter != nil:
			name += "_total"
		case l.Histogram != nil:
			name += "_seconds"
		}
		add(metric{name: name, leaf: l})
	})
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
		switch l := m.leaf; {
		case l.Counter != nil:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m.name, m.name, l.Counter.Load())
		case l.Gauge != nil:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", m.name, m.name, l.Gauge.Load())
		default:
			err = renderHistogram(w, m.name, l.Histogram, &buckets)
		}
	}
	for _, m := range ms {
		if m.collect != nil {
			walk(m.name, m.collect(), render)
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
