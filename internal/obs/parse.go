package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/sss-paper/sss/internal/metrics"
)

// Hist is a parsed exposition histogram: ascending upper bounds in seconds
// (the last one +Inf) with cumulative counts, plus the _sum/_count samples.
type Hist struct {
	UpperBounds []float64
	CumCounts   []uint64
	Sum         float64
	Count       uint64
}

// Page is one parsed /metrics exposition page.
type Page struct {
	Counters map[string]float64
	Gauges   map[string]float64
	Hists    map[string]*Hist
}

// Counter returns the named counter, or 0 when absent (use Has to
// distinguish).
func (p *Page) Counter(name string) float64 { return p.Counters[name] }

// Gauge returns the named gauge, or 0 when absent.
func (p *Page) Gauge(name string) float64 { return p.Gauges[name] }

// Has reports whether the page carries a series with that name (any kind).
func (p *Page) Has(name string) bool {
	if _, ok := p.Counters[name]; ok {
		return true
	}
	if _, ok := p.Gauges[name]; ok {
		return true
	}
	_, ok := p.Hists[name]
	return ok
}

// ParsePage parses a Prometheus text exposition page produced by Registry
// (it relies on the # TYPE lines and on buckets appearing in ascending
// order, both of which Render guarantees).
func ParsePage(r io.Reader) (*Page, error) {
	p := &Page{
		Counters: make(map[string]float64),
		Gauges:   make(map[string]float64),
		Hists:    make(map[string]*Hist),
	}
	kinds := make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 4 && fields[1] == "TYPE" {
				kinds[fields[2]] = fields[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("obs: malformed sample line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad value in %q: %w", line, err)
		}
		name, labels := key, ""
		if br := strings.IndexByte(key, '{'); br >= 0 {
			name, labels = key[:br], key[br:]
		}
		switch {
		case strings.HasSuffix(name, "_bucket") && kinds[strings.TrimSuffix(name, "_bucket")] == "histogram":
			base := strings.TrimSuffix(name, "_bucket")
			le, err := parseLE(labels)
			if err != nil {
				return nil, fmt.Errorf("obs: %q: %w", line, err)
			}
			h := p.hist(base)
			h.UpperBounds = append(h.UpperBounds, le)
			h.CumCounts = append(h.CumCounts, uint64(val))
		case strings.HasSuffix(name, "_sum") && kinds[strings.TrimSuffix(name, "_sum")] == "histogram":
			p.hist(strings.TrimSuffix(name, "_sum")).Sum = val
		case strings.HasSuffix(name, "_count") && kinds[strings.TrimSuffix(name, "_count")] == "histogram":
			p.hist(strings.TrimSuffix(name, "_count")).Count = uint64(val)
		case kinds[name] == "gauge":
			p.Gauges[name] = val
		default:
			// Counters, and any kind-less samples a foreign page might carry.
			p.Counters[name] = val
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Page) hist(name string) *Hist {
	h := p.Hists[name]
	if h == nil {
		h = &Hist{}
		p.Hists[name] = h
	}
	return h
}

func parseLE(labels string) (float64, error) {
	const pre = `{le="`
	if !strings.HasPrefix(labels, pre) || !strings.HasSuffix(labels, `"}`) {
		return 0, fmt.Errorf("expected le label, got %q", labels)
	}
	s := labels[len(pre) : len(labels)-2]
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Fetch scrapes and parses one metrics endpoint. addr may be a bare
// host:port (the /metrics path and scheme are filled in) or a full URL.
func Fetch(client *http.Client, addr string) (*Page, error) {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url + "/metrics"
	}
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: %s: %s", url, resp.Status)
	}
	return ParsePage(resp.Body)
}

// Quantile estimates the q-quantile (0 < q <= 1) in seconds from the
// cumulative buckets, mirroring metrics.Histogram.Quantile: the estimate is
// the upper bound of the containing bucket; when that bucket is +Inf the
// largest finite bound is returned.
func (h *Hist) Quantile(q float64) float64 {
	if len(h.CumCounts) == 0 {
		return 0
	}
	total := h.CumCounts[len(h.CumCounts)-1]
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	for i, c := range h.CumCounts {
		if c >= target {
			if math.IsInf(h.UpperBounds[i], 1) && i > 0 {
				return h.UpperBounds[i-1]
			}
			return h.UpperBounds[i]
		}
	}
	return h.UpperBounds[len(h.UpperBounds)-1]
}

// Merge folds other into h (same bucket layout required; pages rendered by
// this package always match).
func (h *Hist) Merge(other *Hist) {
	if len(h.CumCounts) == 0 {
		h.UpperBounds = append([]float64(nil), other.UpperBounds...)
		h.CumCounts = append([]uint64(nil), other.CumCounts...)
		h.Sum, h.Count = other.Sum, other.Count
		return
	}
	for i := range other.CumCounts {
		if i < len(h.CumCounts) {
			h.CumCounts[i] += other.CumCounts[i]
		}
	}
	h.Sum += other.Sum
	h.Count += other.Count
}

// Delta returns h minus prev (both cumulative scrapes of the same series),
// for interval rates and interval quantiles.
func (h *Hist) Delta(prev *Hist) *Hist {
	d := &Hist{
		UpperBounds: append([]float64(nil), h.UpperBounds...),
		CumCounts:   append([]uint64(nil), h.CumCounts...),
		Sum:         h.Sum,
		Count:       h.Count,
	}
	if prev == nil {
		return d
	}
	for i := range d.CumCounts {
		if i < len(prev.CumCounts) && prev.CumCounts[i] <= d.CumCounts[i] {
			d.CumCounts[i] -= prev.CumCounts[i]
		}
	}
	if prev.Sum <= d.Sum {
		d.Sum -= prev.Sum
	}
	if prev.Count <= d.Count {
		d.Count -= prev.Count
	}
	return d
}

// Snapshot converts the parsed histogram into the reporting struct the
// bench JSON uses, with quantiles estimated from the buckets (Max is the
// p100 bucket bound — the true max is not recoverable from an exposition
// page).
func (h *Hist) Snapshot() metrics.HistogramSnapshot {
	s := metrics.HistogramSnapshot{Count: h.Count}
	if h.Count > 0 {
		s.Mean = secondsToDuration(h.Sum / float64(h.Count))
		s.P50 = secondsToDuration(h.Quantile(0.50))
		s.P99 = secondsToDuration(h.Quantile(0.99))
		s.Max = secondsToDuration(h.Quantile(1))
	}
	return s
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// MergePages bucket-merges the named histogram across pages and sums
// counters — the cluster-wide view `sss-client top` and benchmark/
// aggregate from per-node scrapes.
func MergePages(pages []*Page) *Page {
	out := &Page{
		Counters: make(map[string]float64),
		Gauges:   make(map[string]float64),
		Hists:    make(map[string]*Hist),
	}
	for _, p := range pages {
		if p == nil {
			continue
		}
		for k, v := range p.Counters {
			out.Counters[k] += v
		}
		for k, v := range p.Gauges {
			out.Gauges[k] += v
		}
		for k, h := range p.Hists {
			out.hist(k).Merge(h)
		}
	}
	return out
}
