package main

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/sss-paper/sss/internal/obs"
)

// percentile returns the exact p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. No interpolation, no buckets.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	// Integer arithmetic in basis points: 99% of 1000 must be rank 990, which
	// float multiplication misses by one ulp.
	bp := int(p*100 + 0.5)
	r := (n*bp + 9999) / 10000
	return min(max(r, 1), n)
}

// beyond is the number of samples strictly above the p-th percentile's rank.
// A tail percentile deserves the name only with at least ten there.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// pageDelta is the change of the cluster-wide /metrics page over a window.
type pageDelta struct{ before, after *obs.Page }

func (d pageDelta) counter(name string) float64 {
	return d.after.Counter(name) - d.before.Counter(name)
}

// hist returns the window's observation count and total seconds of a
// histogram. The pages' buckets are powers of two, so only _sum and _count
// are used: means, never bucket quantiles.
func (d pageDelta) hist(name string) (count, sumSeconds float64) {
	after := d.after.Hists[name]
	if after == nil {
		return 0, 0
	}
	h := after.Delta(d.before.Hists[name])
	return float64(h.Count), h.Sum
}

func (d pageDelta) meanMs(name string) float64 {
	count, sum := d.hist(name)
	return ratio(sum*1e3, count)
}

// transportDump is the part of a server's SIGTERM "transport:" log line the
// benchmark reads; it covers the node's whole life, not a window.
type transportDump struct {
	flushes, envelopes, spills, redials uint64
	flushMean                           time.Duration
}

var transportLine = regexp.MustCompile(
	`transport: flushes=(\d+) envelopes=(\d+) \([0-9.]+/flush\) spills=(\d+) dials=\d+ \(redials (\d+)\).* flushLat\{n=\d+ mean=(\S+) `)

// parseTransportDump finds the last "transport:" line in a server log and
// parses it against metrics.TransportSnapshot.String's shape.
func parseTransportDump(log string) (transportDump, error) {
	idx := strings.LastIndex(log, "transport: ")
	if idx < 0 {
		return transportDump{}, fmt.Errorf("no transport: dump in server log")
	}
	m := transportLine.FindStringSubmatch(log[idx:])
	if m == nil {
		return transportDump{}, fmt.Errorf("transport: dump has an unknown shape: %.200q", log[idx:])
	}
	var td transportDump
	for i, dst := range []*uint64{&td.flushes, &td.envelopes, &td.spills, &td.redials} {
		v, err := strconv.ParseUint(m[i+1], 10, 64)
		if err != nil {
			return transportDump{}, err
		}
		*dst = v
	}
	mean, err := time.ParseDuration(m[5])
	if err != nil {
		return transportDump{}, fmt.Errorf("transport: flush latency: %w", err)
	}
	td.flushMean = mean
	return td, nil
}

// durabilityDump is the part of a durable server's SIGTERM "durability:" log
// line the benchmark reads: whole-life WAL counters the /metrics deltas of
// the traced window cannot give (set-up's checkpoints, any failed sync).
type durabilityDump struct {
	appends, bytes, syncs, syncFailures, checkpoints uint64
}

var durabilityLine = regexp.MustCompile(
	`durability: walAppends=(\d+) \((\d+) B\) syncs=(\d+) \([0-9.]+ rec/sync, (\d+) failed\) .*checkpoints=(\d+) \(`)

// parseDurabilityDump finds the last "durability:" line in a server log and
// parses it against metrics.DurabilitySnapshot.String's shape.
func parseDurabilityDump(log string) (durabilityDump, error) {
	idx := strings.LastIndex(log, "durability: ")
	if idx < 0 {
		return durabilityDump{}, fmt.Errorf("no durability: dump in server log")
	}
	m := durabilityLine.FindStringSubmatch(log[idx:])
	if m == nil {
		return durabilityDump{}, fmt.Errorf("durability: dump has an unknown shape: %.200q", log[idx:])
	}
	var dd durabilityDump
	for i, dst := range []*uint64{&dd.appends, &dd.bytes, &dd.syncs, &dd.syncFailures, &dd.checkpoints} {
		v, err := strconv.ParseUint(m[i+1], 10, 64)
		if err != nil {
			return durabilityDump{}, err
		}
		*dst = v
	}
	return dd, nil
}

// worseBy is the share of base by which got is worse, negative when it is
// better; "better" is the metric's direction, "lower" or "higher".
func worseBy(base, got float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - got) / base
	}
	return (got - base) / base
}
