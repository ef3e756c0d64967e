// Package metrics provides the lightweight counters and latency histograms
// used by the benchmark harness: throughput, abort rate, commit-latency
// percentiles, and the internal-commit vs pre-commit breakdown of the
// paper's Figure 5.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode"
)

// numBuckets covers 1ns..~18s in half-decade-ish log2 buckets.
const numBuckets = 64

// Histogram is a lock-free log2-bucketed latency histogram. The zero value
// is ready to use.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	if d < 0 {
		ns = 0
	}
	b := bucketOf(ns)
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

func bucketOf(ns uint64) int {
	if b := bits.Len64(ns); b < numBuckets {
		return b
	}
	return numBuckets - 1
}

// Merge folds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := range other.buckets {
		if n := other.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	om := other.max.Load()
	for {
		cur := h.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the mean observed duration.
func (h *Histogram) Mean() time.Duration {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / c)
}

// Max returns the largest observed duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) from bucket boundaries;
// the estimate is the upper bound of the containing bucket, capped at Max.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			upper := time.Duration(uint64(1) << uint(i))
			if m := h.Max(); upper > m {
				return m
			}
			return upper
		}
	}
	return h.Max()
}

// Snapshot copies the histogram into a plain struct for reporting.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// HistogramSnapshot is a point-in-time histogram summary. Durations
// serialize as integer nanoseconds.
type HistogramSnapshot struct {
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// String renders the snapshot compactly.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v", s.Count, s.Mean, s.P50, s.P99, s.Max)
}

// NumBuckets is the number of log2 buckets every Histogram carries,
// exported for exposition layers that render the raw bucket counts.
const NumBuckets = numBuckets

// BucketUpperBound returns the inclusive upper bound of bucket i in
// nanoseconds. Bucket i holds observations in [2^(i-1), 2^i - 1] (bucket 0
// holds only 0ns, the last bucket absorbs everything larger), so the bound
// is exact: every observation in buckets 0..i is <= BucketUpperBound(i).
func BucketUpperBound(i int) uint64 {
	if i < 0 {
		i = 0
	}
	if i >= numBuckets-1 {
		return math.MaxUint64
	}
	return (uint64(1) << uint(i)) - 1
}

// Buckets copies the per-bucket observation counts (not cumulative) into
// dst, which must have length NumBuckets. It returns the number of buckets
// written. The copy is not atomic with respect to concurrent Observe calls;
// each bucket is individually consistent.
func (h *Histogram) Buckets(dst []uint64) int {
	n := len(dst)
	if n > numBuckets {
		n = numBuckets
	}
	for i := 0; i < n; i++ {
		dst[i] = h.buckets[i].Load()
	}
	return n
}

// Leaf is one metric of a family as Walk finds it: Path names the field from
// the family's root down ({"Stage", "Vote"} for Engine.Stage.Vote), and
// exactly one of Counter, Gauge and Histogram is set.
type Leaf struct {
	Path      []string
	Counter   *atomic.Uint64
	Gauge     *atomic.Int64
	Histogram *Histogram
}

// Walk hands visit every metric of family, a pointer to a metrics struct,
// in field order: atomic.Uint64 fields are counters, atomic.Int64 gauges,
// Histogram fields histograms, and nested structs are walked in place.
// Walk panics on any other field, on an unexported one and on a root that
// is not a pointer to a struct, so a family no walk can account for fails
// at its first use.
func Walk(family any, visit func(Leaf)) {
	v := reflect.ValueOf(family)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("metrics: a family must be a pointer to a struct, got %T", family))
	}
	walk(v.Elem(), nil, visit)
}

func walk(v reflect.Value, path []string, visit func(Leaf)) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			panic(fmt.Sprintf("metrics: unexported metric field %s.%s", t.Name(), f.Name))
		}
		l := Leaf{Path: append(path[:len(path):len(path)], f.Name)}
		switch ptr := v.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			l.Counter = ptr
		case *atomic.Int64:
			l.Gauge = ptr
		case *Histogram:
			l.Histogram = ptr
		default:
			if f.Type.Kind() != reflect.Struct {
				panic(fmt.Sprintf("metrics: unsupported metric field type %s for %s.%s", f.Type, t.Name(), f.Name))
			}
			walk(v.Field(i), l.Path, visit)
			continue
		}
		visit(l)
	}
}

// Merge folds every metric of src into the same metric of dst: counters and
// gauges add, histograms merge. dst and src must be pointers to the same
// metrics struct. Merge is for reports and scrapes; it reflects, so no
// transaction path calls it.
func Merge(dst, src any) {
	if reflect.TypeOf(dst) != reflect.TypeOf(src) {
		panic(fmt.Sprintf("metrics: Merge(%T, %T): not the same family", dst, src))
	}
	var from []Leaf
	Walk(src, func(l Leaf) { from = append(from, l) })
	i := 0
	Walk(dst, func(l Leaf) {
		s := from[i]
		i++
		switch {
		case l.Counter != nil:
			l.Counter.Add(s.Counter.Load())
		case l.Gauge != nil:
			l.Gauge.Add(s.Gauge.Load())
		default:
			l.Histogram.Merge(s.Histogram)
		}
	})
}

// SnakeCase is the one naming rule for a metric field outside Go: /metrics
// series and JSON reports both name a field by it. It keeps acronym runs
// together: Commits → commits, WalSyncFailures → wal_sync_failures, SQWaits
// → sq_waits.
func SnakeCase(name string) string {
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

// marshalJSON renders family as one JSON object through Walk, in field
// order: each field under its SnakeCase name, counters and gauges as numbers,
// histograms as a HistogramSnapshot and nested structs as nested objects.
func marshalJSON(family any) ([]byte, error) {
	b := []byte{'{'}
	var open []string // the nested objects the last leaf sat in
	Walk(family, func(l Leaf) {
		dir, name := l.Path[:len(l.Path)-1], l.Path[len(l.Path)-1]
		same := 0
		for same < len(open) && same < len(dir) && open[same] == dir[same] {
			same++
		}
		for ; len(open) > same; open = open[:len(open)-1] {
			b = append(b, '}')
		}
		for _, f := range dir[same:] {
			b = appendKey(b, f)
			b = append(b, '{')
			open = append(open, f)
		}
		b = appendKey(b, name)
		switch {
		case l.Counter != nil:
			b = strconv.AppendUint(b, l.Counter.Load(), 10)
		case l.Gauge != nil:
			b = strconv.AppendInt(b, l.Gauge.Load(), 10)
		default:
			// A HistogramSnapshot holds integers only: Marshal cannot fail.
			h, _ := json.Marshal(l.Histogram.Snapshot())
			b = append(b, h...)
		}
	})
	for range open {
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// appendKey appends field's JSON key, after a comma unless it opens an object.
func appendKey(b []byte, field string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	return append(strconv.AppendQuote(b, SnakeCase(field)), ':')
}

// Transport aggregates the batching/pooling counters of one messaging path
// (one peer of one endpoint, or a whole network when merged).
type Transport struct {
	// Flushes counts batch frames written (one flush = one syscall-ish
	// unit of work on the TCP path, one coalesced delivery on the
	// simulated path).
	Flushes atomic.Uint64
	// Envelopes counts envelopes carried by those flushes.
	Envelopes atomic.Uint64
	// Spills counts inbound dispatches that found every pool worker busy
	// and fell back to a dedicated goroutine (the pool saturation signal).
	Spills atomic.Uint64
	// Dials counts outbound connection establishments; Redials the subset
	// that replaced a connection previously discarded on a write error —
	// i.e. link healings after a peer death or partition.
	Dials   atomic.Uint64
	Redials atomic.Uint64
	// DiscardedConns counts outbound connections dropped after a failed
	// write; LostBatches the envelope batches lost with them (plus batches
	// dropped because the dial itself failed). Each lost batch is the
	// "one-lost-batch window" of a link transition: its envelopes surface
	// as RPC timeouts at the caller.
	DiscardedConns atomic.Uint64
	LostBatches    atomic.Uint64
	// HealedWrites counts the first successful flush on a redialed
	// connection — the moment a peer link measurably healed.
	HealedWrites atomic.Uint64
	// BatchResends counts retained batch frames rewritten on a fresh
	// connection after a write error — the at-least-once path that closes
	// the one-lost-batch window. Each resend is one frame that would have
	// been silently swallowed by a dying connection.
	BatchResends atomic.Uint64
	// PingsSent counts application-level liveness probes written on idle
	// connections; PeerUnresponsive counts probes whose write failed —
	// each one is a stale conn detected by the pinger (and discarded)
	// before a real batch paid for the discovery.
	PingsSent        atomic.Uint64
	PeerUnresponsive atomic.Uint64
	// FlushLatency observes enqueue→flush time per envelope batch: the
	// price of coalescing.
	FlushLatency Histogram
}

// MarshalJSON renders the family through Walk (marshalJSON).
func (t *Transport) MarshalJSON() ([]byte, error) { return marshalJSON(t) }

// EnvelopesPerFlush returns the mean batch size so far (0 when idle).
func (t *Transport) EnvelopesPerFlush() float64 {
	f := t.Flushes.Load()
	if f == 0 {
		return 0
	}
	return float64(t.Envelopes.Load()) / float64(f)
}

// TransportSnapshot is a point-in-time copy of a Transport for its String
// rendering. Both exist only for sss-server's `transport:` SIGTERM line, whose
// shape benchmark/stats.go parses; every other report renders the family
// through Walk.
type TransportSnapshot struct {
	Flushes           uint64
	Envelopes         uint64
	Spills            uint64
	EnvelopesPerFlush float64
	Dials             uint64
	Redials           uint64
	DiscardedConns    uint64
	LostBatches       uint64
	HealedWrites      uint64
	BatchResends      uint64
	PingsSent         uint64
	PeerUnresponsive  uint64
	FlushLatency      HistogramSnapshot
}

// Snapshot copies the counters into a plain struct.
func (t *Transport) Snapshot() TransportSnapshot {
	return TransportSnapshot{
		Flushes:           t.Flushes.Load(),
		Envelopes:         t.Envelopes.Load(),
		Spills:            t.Spills.Load(),
		EnvelopesPerFlush: t.EnvelopesPerFlush(),
		Dials:             t.Dials.Load(),
		Redials:           t.Redials.Load(),
		DiscardedConns:    t.DiscardedConns.Load(),
		LostBatches:       t.LostBatches.Load(),
		HealedWrites:      t.HealedWrites.Load(),
		BatchResends:      t.BatchResends.Load(),
		PingsSent:         t.PingsSent.Load(),
		PeerUnresponsive:  t.PeerUnresponsive.Load(),
		FlushLatency:      t.FlushLatency.Snapshot(),
	}
}

// String renders the `transport:` SIGTERM line. benchmark/stats.go parses it
// with regexes: change it only together with that parser.
func (s TransportSnapshot) String() string {
	return fmt.Sprintf("flushes=%d envelopes=%d (%.2f/flush) spills=%d dials=%d (redials %d) discardedConns=%d lostBatches=%d healedWrites=%d batchResends=%d pingsSent=%d peerUnresponsive=%d flushLat{%v}",
		s.Flushes, s.Envelopes, s.EnvelopesPerFlush, s.Spills, s.Dials, s.Redials,
		s.DiscardedConns, s.LostBatches, s.HealedWrites, s.BatchResends, s.PingsSent,
		s.PeerUnresponsive, s.FlushLatency)
}

// Contention aggregates lock- and wait-contention counters on the node hot
// path: how often the read-only read path actually blocked (vs the lock-free
// fast path) and how often pre-commit drains parked. Together with the
// -mutexprofile/-blockprofile flags of sss-bench these locate
// the serialization points the striped engine state and the commitlog
// visibility index are meant to remove.
type Contention struct {
	// LogWaits counts WaitMostRecent calls that missed the lock-free
	// frontier fast path and registered a waiter; LogWakeups counts waiters
	// released by a frontier advance; LogWaitTimeouts counts registrations
	// that expired instead.
	LogWaits        atomic.Uint64
	LogWakeups      atomic.Uint64
	LogWaitTimeouts atomic.Uint64
	// SQWaits counts snapshot-queue drains (Algorithm 4) that found the
	// queue non-empty and blocked; SQWaitTimeouts counts drains that hit
	// the safety cap.
	SQWaits        atomic.Uint64
	SQWaitTimeouts atomic.Uint64
}

// Engine aggregates the per-engine counters the evaluation reports.
type Engine struct {
	Commits       atomic.Uint64 // externally committed transactions
	Aborts        atomic.Uint64 // update-transaction validation/lock aborts
	ReadOnlyRuns  atomic.Uint64 // read-only transactions completed
	RemovesSent   atomic.Uint64
	FwdRemoves    atomic.Uint64
	PreCommitHold atomic.Uint64 // update txns that actually waited in a queue
	// DrainTimeouts counts this node's waits that hit their DrainTimeout
	// safety cap: a write replica's snapshot-queue drain of one written
	// key (pre-commit, standalone drain round, or freeze re-drain), a
	// decide waiting for its CommitQ apply, and a completion waiting for
	// a parked writer's external commit (local or WaitExternal). 0 in
	// healthy runs; an unacked decide leg is not one (it re-tightens).
	DrainTimeouts atomic.Uint64
	ExternalWaits atomic.Uint64 // completions delayed behind a parked writer
	FreezeRetries atomic.Uint64 // freeze rounds resent after a leg went unacked

	// The abort causes, counted where they arise. UpdateReadWaits counts
	// update reads that found their key held exclusively by a prepared
	// writer (and waited for its release); NoVoteLocks counts no-votes
	// whose lock acquisition timed out, NoVoteStale no-votes whose read
	// validation failed (a newer version was installed).
	UpdateReadWaits atomic.Uint64
	NoVoteLocks     atomic.Uint64
	NoVoteStale     atomic.Uint64

	// The dependency-set layer, as list lengths put on the wire: read-only
	// read requests built (one per key read), the sum of their Seen lists, and
	// the sum of Prepare.Deps over every prepare (one per commit or abort).
	// Entries per request must stay flat as commits accumulate on a key.
	ReadRequests    atomic.Uint64
	ReadSeenEntries atomic.Uint64
	PrepareDeps     atomic.Uint64

	// FreezeAckWithheld counts unacked freeze legs whose resend keeps the
	// client reply withheld (the FreezeAckBudget discipline);
	// FreezeAckBudgetExpired counts unacked legs at which the reply was
	// finally released liveness-first because the budget ran out with the
	// replica still unreachable (each one reopens the ack-vs-stamp window
	// the budget normally closes; the freeze keeps redelivering).
	FreezeAckWithheld      atomic.Uint64
	FreezeAckBudgetExpired atomic.Uint64

	// CommitRounds breaks down the update-commit round structure: how many
	// drain stages rode a decide ack vs paid a standalone round trip, and
	// how many freezes and purges the replicas received.
	CommitRounds CommitRounds

	// Latency (begin → external commit), the paper's Figure 4(b).
	CommitLatency Histogram
	// Begin → internal commit (Figure 5's lower bar).
	InternalLatency Histogram
	// Internal commit → external commit: the snapshot-queuing wait
	// (Figure 5's red bar; §V reports it at ≤ ~30% of total latency).
	PreCommitWait Histogram
	// Read-only transaction latency.
	ReadOnlyLatency Histogram

	// Stage decomposes the update-commit path into its protocol legs; see
	// the Stages doc comment for the taxonomy.
	Stage Stages

	// Contention holds the node's lock/wait contention counters, shared
	// with the commitlog waiter registry and the mvstore drain path.
	Contention Contention
}

// Stages is the per-stage latency decomposition of the update-commit path.
// Vote, Decide, and Freeze are observed exactly once per external commit,
// at the same instant Commits is incremented, so their counts reconcile
// with Engine.Commits by construction. WalSync observes every commit-path
// wait on the log (remote participant prepare, coordinator decision,
// coordinator freeze record — the last one overlapped with the freeze
// round), Purge observes a write replica's freeze ack → its purge
// notification handed to the transport, and ClientAck observes the
// client-protocol commit service time (engine commit + reply write) on
// successful commits only.
type Stages struct {
	// Vote: prepare broadcast → all votes collected (the 2PC first round).
	Vote Histogram
	// Decide: internal commit → drain barrier established, including the
	// piggybacked drain acks and any standalone fallback drain round.
	Decide Histogram
	// Freeze: freeze-stamp enqueue → all replica freeze acks and the
	// coordinator's freeze record durable (the group-commit freeze leg that
	// makes the commit externally visible).
	Freeze Histogram
	// Purge: a write replica's freeze ack → its purge notification handed
	// to the transport.
	Purge Histogram
	// WalSync: duration of each commit-path wait for WAL durability.
	WalSync Histogram
	// ClientAck: client commit request accepted → reply written.
	ClientAck Histogram
}

// CommitRounds counts the acked round structure of the update-commit path.
// DrainsPiggybacked/DrainRounds are replica-side counts of drain stages
// served inside a decide ack vs by a standalone ExtCommit drain round;
// FreezeBatches and FreezeBatchTxns each count one per wire.Freeze a
// replica receives, PurgeBatchTxns one per wire.Purge: a message carries one
// transaction, so the two freeze counters are equal and txns per batch reads
// 1 by construction. The names are kept for the reports and /metrics series
// that read them.
type CommitRounds struct {
	DrainsPiggybacked atomic.Uint64
	DrainRounds       atomic.Uint64
	FreezeBatches     atomic.Uint64
	FreezeBatchTxns   atomic.Uint64
	PurgeBatchTxns    atomic.Uint64
}

// MarshalJSON renders the family through Walk (marshalJSON).
func (e *Engine) MarshalJSON() ([]byte, error) { return marshalJSON(e) }

// AbortRate returns aborts / (commits + aborts) for update transactions.
func (e *Engine) AbortRate() float64 {
	c, a := float64(e.Commits.Load()), float64(e.Aborts.Load())
	if c+a == 0 {
		return 0
	}
	return a / (c + a)
}

// ClientNet aggregates the counters of the client-facing protocol server
// (internal/clientproto): session lifecycle, request volume, and the
// failure modes the session manager must keep bounded.
type ClientNet struct {
	// Sessions counts accepted client connections; ActiveSessions the ones
	// currently open.
	Sessions       atomic.Uint64
	ActiveSessions atomic.Int64
	// Requests counts decoded client requests; ProtocolErrors counts
	// malformed or out-of-contract requests answered with a typed error.
	Requests       atomic.Uint64
	ProtocolErrors atomic.Uint64
	// DisconnectAborts counts transactions the server aborted because
	// their connection dropped while they were open.
	DisconnectAborts atomic.Uint64
	// WriteErrors counts reply writes that failed (the session is then torn
	// down rather than silently dropping acknowledgements).
	WriteErrors atomic.Uint64
	// Spills counts requests that found every pool worker busy and fell
	// back to a dedicated goroutine (pool saturation signal, mirroring
	// Transport.Spills).
	Spills atomic.Uint64
	// SnapshotReads counts one-round read-only transactions: server-side,
	// SnapshotRead requests served; client-side, SnapshotRead calls issued.
	SnapshotReads atomic.Uint64
	// BatchFlushes/BatchRequests count coalesced wire flushes and the
	// request (or reply) frames they carried: the client-path analogue of
	// Transport.Flushes/Envelopes. Client-side they are fed by the per-conn
	// send queue; requests/flush is the auto-batching amortization factor.
	BatchFlushes  atomic.Uint64
	BatchRequests atomic.Uint64
	// BatchFlushLatency observes enqueue→flush time per batch: the latency
	// price of coalescing.
	BatchFlushLatency Histogram
}

// RequestsPerFlush returns the mean batch size so far (0 when idle).
func (c *ClientNet) RequestsPerFlush() float64 {
	f := c.BatchFlushes.Load()
	if f == 0 {
		return 0
	}
	return float64(c.BatchRequests.Load()) / float64(f)
}

// Retained gauges what a node holds in memory right now, gathered at scrape
// time: the NLog entries its commit log retains (the applied commits its
// external clock does not cover yet, about one per update in flight),
// its tombstones (one bit each, at most a sliding window of sequence
// numbers per coordinator epoch) and the calls its RPC layer still awaits
// a reply for.
type Retained struct {
	CommitlogEntries atomic.Int64
	Tombstones       atomic.Int64
	RPCPending       atomic.Int64
}

// Durability aggregates the write-ahead-log and recovery counters of one
// node (internal/wal + the engine's recovery path): append/fsync volume and
// the group-commit amortization factor on the write side, checkpoint and
// replay volume on the recovery side, and the presumed-abort outcomes of
// in-doubt resolution.
type Durability struct {
	// WalAppends counts records appended to the log; WalBytes the encoded
	// payload volume.
	WalAppends atomic.Uint64
	WalBytes   atomic.Uint64
	// WalSyncs counts fsync calls; WalSyncedRecords the records those
	// fsyncs made durable. Records/sync is the group-commit amortization
	// factor — the WAL analogue of Transport.EnvelopesPerFlush.
	WalSyncs         atomic.Uint64
	WalSyncedRecords atomic.Uint64
	// WalSyncFailures counts write/fsync/rotate failures. The first one
	// poisons the log (every later Append/Sync refuses), so a non-zero
	// value means the node stopped accepting durable work.
	WalSyncFailures atomic.Uint64
	// SyncLatency observes the wall time of each fsync (write + sync).
	SyncLatency Histogram
	// Checkpoints counts checkpoints cut; CheckpointRecords the records
	// (meta + versions) they contained; CheckpointErrors the attempts that
	// failed (the previous checkpoint stays installed).
	Checkpoints       atomic.Uint64
	CheckpointRecords atomic.Uint64
	CheckpointErrors  atomic.Uint64
	// ReplayRecords counts WAL records scanned during recovery;
	// ReplayedCommits the committed transactions re-applied from them.
	ReplayRecords   atomic.Uint64
	ReplayedCommits atomic.Uint64
	// InDoubt counts prepared-but-undecided transactions found at recovery;
	// InDoubtCommitted/InDoubtAborted their resolved outcomes (aborts
	// include coordinator-unknown presumed aborts).
	InDoubt          atomic.Uint64
	InDoubtCommitted atomic.Uint64
	InDoubtAborted   atomic.Uint64
	// FreezeResolved counts decided-but-unfrozen transactions whose freeze
	// vector was recovered from the coordinator at replay time;
	// FreezeUnresolved those re-stamped at the local floor because the
	// coordinator was unreachable (the documented conservatism).
	FreezeResolved   atomic.Uint64
	FreezeUnresolved atomic.Uint64
	// ClockSyncPeers counts peers whose external-knowledge clock was folded
	// in during recovery's clock catch-up round; ClockSyncMisses the peers
	// that never answered within the per-peer retry budget.
	ClockSyncPeers  atomic.Uint64
	ClockSyncMisses atomic.Uint64
}

// RecordsPerSync returns the mean group-commit batch size so far (0 when
// idle).
func (d *Durability) RecordsPerSync() float64 {
	s := d.WalSyncs.Load()
	if s == 0 {
		return 0
	}
	return float64(d.WalSyncedRecords.Load()) / float64(s)
}

// DurabilitySnapshot is a point-in-time copy of a Durability for its String
// rendering. Both exist only for sss-server's `durability:` SIGTERM line,
// whose shape benchmark/stats.go parses; every other report renders the
// family through Walk.
type DurabilitySnapshot struct {
	WalAppends        uint64
	WalBytes          uint64
	WalSyncs          uint64
	WalSyncedRecords  uint64
	WalSyncFailures   uint64
	RecordsPerSync    float64
	SyncLatency       HistogramSnapshot
	Checkpoints       uint64
	CheckpointRecords uint64
	CheckpointErrors  uint64
	ReplayRecords     uint64
	ReplayedCommits   uint64
	InDoubt           uint64
	InDoubtCommitted  uint64
	InDoubtAborted    uint64
	FreezeResolved    uint64
	FreezeUnresolved  uint64
	ClockSyncPeers    uint64
	ClockSyncMisses   uint64
}

// Snapshot copies the counters into a plain struct.
func (d *Durability) Snapshot() DurabilitySnapshot {
	return DurabilitySnapshot{
		WalAppends:        d.WalAppends.Load(),
		WalBytes:          d.WalBytes.Load(),
		WalSyncs:          d.WalSyncs.Load(),
		WalSyncedRecords:  d.WalSyncedRecords.Load(),
		WalSyncFailures:   d.WalSyncFailures.Load(),
		RecordsPerSync:    d.RecordsPerSync(),
		SyncLatency:       d.SyncLatency.Snapshot(),
		Checkpoints:       d.Checkpoints.Load(),
		CheckpointRecords: d.CheckpointRecords.Load(),
		CheckpointErrors:  d.CheckpointErrors.Load(),
		ReplayRecords:     d.ReplayRecords.Load(),
		ReplayedCommits:   d.ReplayedCommits.Load(),
		InDoubt:           d.InDoubt.Load(),
		InDoubtCommitted:  d.InDoubtCommitted.Load(),
		InDoubtAborted:    d.InDoubtAborted.Load(),
		FreezeResolved:    d.FreezeResolved.Load(),
		FreezeUnresolved:  d.FreezeUnresolved.Load(),
		ClockSyncPeers:    d.ClockSyncPeers.Load(),
		ClockSyncMisses:   d.ClockSyncMisses.Load(),
	}
}

// String renders the `durability:` SIGTERM line. benchmark/stats.go parses
// it with regexes: change it only together with that parser.
func (s DurabilitySnapshot) String() string {
	return fmt.Sprintf("walAppends=%d (%d B) syncs=%d (%.2f rec/sync, %d failed) syncLat{%v} checkpoints=%d (%d rec) replay=%d rec/%d commits inDoubt=%d (committed %d, aborted %d) freezeResolve=%d/%d clockSync=%d/%d",
		s.WalAppends, s.WalBytes, s.WalSyncs, s.RecordsPerSync, s.WalSyncFailures, s.SyncLatency,
		s.Checkpoints, s.CheckpointRecords, s.ReplayRecords, s.ReplayedCommits,
		s.InDoubt, s.InDoubtCommitted, s.InDoubtAborted,
		s.FreezeResolved, s.FreezeResolved+s.FreezeUnresolved,
		s.ClockSyncPeers, s.ClockSyncPeers+s.ClockSyncMisses)
}
