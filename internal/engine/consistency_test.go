package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/checker"
	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/mvstore"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// runCheckedWorkload drives a random mixed workload against an SSS cluster
// while recording every committed transaction, then verifies the history's
// DSG (wr/ww/rw + real-time edges) is acyclic — the paper's §IV criterion.
func runCheckedWorkload(t *testing.T, nNodes, degree, nKeys, clients, txnsPerClient int, readPct int, seed int64) {
	t.Helper()
	runCheckedWorkloadNet(t, nNodes, degree, nKeys, clients, txnsPerClient, readPct, seed,
		transport.InProcConfig{DisableLatency: true}, nil)
}

// runCheckedWorkloadNet is runCheckedWorkload over an explicit network
// configuration — the hook for transport-seam suites (the
// duplicate-delivery amplifier proving per-message-kind idempotency). A
// non-nil views also checks every read-only view against the stamp order.
func runCheckedWorkloadNet(t *testing.T, nNodes, degree, nKeys, clients, txnsPerClient int, readPct int, seed int64, netCfg transport.InProcConfig, views *viewLog) {
	t.Helper()
	// Large version chains so the checker sees the full ww order.
	nodes := newClusterNet(t, nNodes, degree, Config{MaxVersions: 1 << 20}, netCfg)
	if views != nil {
		views.install(nodes)
	}
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%d", i)
		for _, nd := range nodes {
			nd.Preload(keys[i], []byte("init"))
		}
	}

	hist := checker.NewHistory()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(c)))
			nd := nodes[c%nNodes]
			for i := 0; i < txnsPerClient; i++ {
				readOnly := r.Intn(100) < readPct
				start := time.Now()
				tx := nd.Begin(readOnly)
				var obs checker.TxnObs
				obs.ID = tx.ID()
				obs.ReadOnly = readOnly
				ok := true
				if readOnly {
					for j := 0; j < 2+r.Intn(3); j++ {
						k := keys[r.Intn(nKeys)]
						var contacted []bool // tx.hasRead before a remote read the views record
						if _, cached := tx.rs[k]; views != nil && !cached {
							contacted = append([]bool{}, tx.hasRead...)
						}
						if _, _, err := tx.Read(k); err != nil {
							t.Errorf("read-only read: %v", err)
							ok = false
							break
						}
						if contacted != nil {
							views.read(tx, k, contacted)
						}
					}
					if views != nil {
						views.finish(tx)
					}
				} else {
					for j := 0; j < 2; j++ {
						k := keys[r.Intn(nKeys)]
						if _, _, err := tx.Read(k); err != nil {
							ok = false
							break
						}
						if err := tx.Write(k, []byte(fmt.Sprintf("c%d-i%d-j%d", c, i, j))); err != nil {
							ok = false
							break
						}
					}
				}
				if !ok {
					_ = tx.Abort()
					continue
				}
				err := tx.Commit()
				end := time.Now()
				if err != nil {
					if readOnly {
						t.Errorf("read-only abort (must be abort-free): %v", err)
					} else if !errors.Is(err, kv.ErrAborted) {
						t.Errorf("unexpected commit error: %v", err)
					}
					continue
				}
				for k, w := range tx.ReadWriters() {
					obs.Reads = append(obs.Reads, checker.ReadObs{Key: k, Writer: w})
				}
				obs.Writes = tx.WriteKeys()
				obs.Start, obs.End = start, end
				hist.Add(obs)
			}
		}(c)
	}
	wg.Wait()

	// Dump the authoritative version order of every key from one replica
	// and make sure all replicas agree on it.
	lookup := cluster.NewLookup(nNodes, degree)
	for _, k := range keys {
		replicas := lookup.Replicas(k)
		ref := nodes[replicas[0]].VersionWriters(k)
		for _, r := range replicas[1:] {
			other := nodes[r].VersionWriters(k)
			if len(other) != len(ref) {
				t.Fatalf("key %s: replica chains diverge in length: %d vs %d", k, len(ref), len(other))
			}
			for i := range ref {
				if ref[i] != other[i] {
					t.Fatalf("key %s: replicas ordered versions differently at %d: %v vs %v",
						k, i, ref[i], other[i])
				}
			}
		}
		hist.SetVersionOrder(k, ref)
	}

	if hist.Len() == 0 {
		t.Fatal("no transactions committed")
	}
	if views != nil {
		if err := views.check(nodes); err != nil {
			t.Error(err)
		}
	}
	if err := hist.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckedWorkloadSmall(t *testing.T) {
	runCheckedWorkload(t, 3, 1, 4, 6, 40, 50, 1)
}

func TestCheckedWorkloadReplicated(t *testing.T) {
	stressEnabled(t)
	runCheckedWorkload(t, 4, 2, 6, 8, 40, 50, 2)
}

func TestCheckedWorkloadHighContention(t *testing.T) {
	stressEnabled(t)
	// Two keys, many clients: maximal conflict pressure.
	runCheckedWorkload(t, 3, 2, 2, 9, 30, 40, 3)
}

func TestCheckedWorkloadReadHeavy(t *testing.T) {
	stressEnabled(t)
	runCheckedWorkload(t, 4, 2, 8, 8, 40, 85, 4)
}

func TestCheckedWorkloadWriteHeavy(t *testing.T) {
	runCheckedWorkload(t, 3, 2, 4, 6, 40, 10, 5)
}

func TestCheckedWorkloadSingleNode(t *testing.T) {
	runCheckedWorkload(t, 1, 1, 3, 4, 50, 50, 6)
}

// TestViewPrefixSingleNode runs TestCheckedWorkloadSingleNode's shape with
// the view-prefix check on. The check fails far more often than the checker
// (docs/CONSISTENCY.md §6: a blind exclusion of an unstamped writer, or two
// writers on one stamp, breaks the prefix), so it waits behind SSS_STRESS,
// outside the thresholded stress lanes, until the stamp order is total.
func TestViewPrefixSingleNode(t *testing.T) {
	stressEnabled(t)
	runCheckedWorkloadNet(t, 1, 1, 3, 4, 50, 50, 6, transport.InProcConfig{DisableLatency: true}, &viewLog{})
}

// TestViewPrefixSmall, TestViewPrefixWriteHeavy and
// TestViewPrefixDuplicateDelivery run the view-prefix check on the 3-node
// tier-1 shapes of the same names (TestCheckedWorkloadSmall,
// TestCheckedWorkloadWriteHeavy, TestCheckedWorkloadDuplicateDelivery).
func TestViewPrefixSmall(t *testing.T) {
	stressEnabled(t)
	runCheckedWorkloadNet(t, 3, 1, 4, 6, 40, 50, 1, transport.InProcConfig{DisableLatency: true}, &viewLog{})
}

func TestViewPrefixWriteHeavy(t *testing.T) {
	stressEnabled(t)
	runCheckedWorkloadNet(t, 3, 2, 4, 6, 40, 10, 5, transport.InProcConfig{DisableLatency: true}, &viewLog{})
}

func TestViewPrefixDuplicateDelivery(t *testing.T) {
	stressEnabled(t)
	runCheckedWorkloadNet(t, 3, 2, 4, 6, 40, 50, 7,
		transport.InProcConfig{DisableLatency: true, DuplicateDeliveries: true}, &viewLog{})
}

func TestCheckedWorkloadManySeeds(t *testing.T) {
	stressEnabled(t)
	if testing.Short() {
		t.Skip("long stress test")
	}
	for seed := int64(10); seed < 16; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runCheckedWorkload(t, 3, 2, 3, 6, 30, 50, seed)
		})
	}
}

// viewLog records the read-only version verdicts of a run through the
// mvstore Trace hook, so that the run can check each read-only view against
// the stamp order: at one node, a reader that includes writer A must also
// include every writer B it met whose (stamp, TxnID) is below A's. A view
// that includes and excludes the same writer — a fractured read — fails
// too. Stamps are each writer's final ExtSID, read from its version chain
// after the run, not what the reader saw when it decided.
//
// A replicated read-only read fans out to every replica and adopts one reply
// (readMerge), so only the adopted leg's verdicts are the reader's. The trace
// records every leg; a leg counts only if it sits at a replica the reader
// can have adopted for that read, chose the version the reader kept, and
// skipped only writers the reader went on to exclude or had seen (the adopted
// reply's Excluded list lands in Txn.before unless the writer is in
// Txn.seen). The replica the read adopted is the one it marked in
// Txn.hasRead if the read marked one, else one marked before. A read whose
// matching legs sit at two replicas is left out and counted.
type viewLog struct {
	mu   sync.Mutex
	legs map[legKey][]*leg
	open map[legKey]*leg // the walk in progress, until its chosen version
	// reads holds what each read-only reader kept per key; known the writers
	// it excluded or saw, at its end.
	reads map[wire.TxnID]map[string]keptRead
	known map[wire.TxnID]map[wire.TxnID]bool
}

type legKey struct {
	node   wire.NodeID
	reader wire.TxnID
	key    string
}

// leg is one replica's version walk for one read: the writer it chose (zero
// for a preloaded version) and the reason of every writer it skipped.
type leg struct {
	chosen  wire.TxnID
	skipped map[wire.TxnID]string
}

// keptRead is one read as the reader kept it: the writer of the version, and
// the replicas whose reply it can have adopted.
type keptRead struct {
	writer wire.TxnID
	from   map[wire.NodeID]bool
}

type viewKey struct {
	node   wire.NodeID
	reader wire.TxnID
}

// readerView maps each writer one reader met at one node to the key and
// reason of the verdict, split by verdict.
type readerView struct{ in, out map[wire.TxnID]string }

func (vl *viewLog) install(nodes []*Node) {
	vl.legs = make(map[legKey][]*leg)
	vl.open = make(map[legKey]*leg)
	vl.reads = make(map[wire.TxnID]map[string]keptRead)
	vl.known = make(map[wire.TxnID]map[wire.TxnID]bool)
	for _, nd := range nodes {
		id := nd.id
		nd.store.Trace = func(ev mvstore.TraceEvent) {
			vl.mu.Lock()
			defer vl.mu.Unlock()
			// A walk's events arrive together under the key's shard lock and
			// end at its chosen version.
			k := legKey{id, ev.Reader, ev.Key}
			l := vl.open[k]
			if l == nil {
				l = &leg{skipped: map[wire.TxnID]string{}}
				vl.open[k] = l
			}
			if ev.Reason == "chosen" {
				l.chosen = ev.Writer
				vl.legs[k] = append(vl.legs[k], l)
				delete(vl.open, k)
			} else if !ev.Writer.IsZero() {
				l.skipped[ev.Writer] = ev.Reason
			}
		}
	}
}

// read records read-only tx's remote read of key; contacted is tx.hasRead as
// it was before the read.
func (vl *viewLog) read(tx *Txn, key string, contacted []bool) {
	from := map[wire.NodeID]bool{}
	for n, now := range tx.hasRead {
		if now && !contacted[n] {
			from = map[wire.NodeID]bool{wire.NodeID(n): true}
			break
		}
		if now {
			from[wire.NodeID(n)] = true
		}
	}
	vl.mu.Lock()
	defer vl.mu.Unlock()
	if vl.reads[tx.id] == nil {
		vl.reads[tx.id] = make(map[string]keptRead)
	}
	vl.reads[tx.id][key] = keptRead{writer: tx.rs[key].writer, from: from}
}

// finish records the writers read-only tx excluded or saw.
func (vl *viewLog) finish(tx *Txn) {
	known := make(map[wire.TxnID]bool, len(tx.before)+len(tx.seen))
	for w := range tx.before {
		known[w] = true
	}
	for w := range tx.seen {
		known[w] = true
	}
	vl.mu.Lock()
	defer vl.mu.Unlock()
	vl.known[tx.id] = known
}

// adoptable reports whether leg l, at the replica and for the read k names,
// can be the reply the reader adopted.
func (vl *viewLog) adoptable(k legKey, l *leg) bool {
	kept, ok := vl.reads[k.reader][k.key]
	if !ok || !kept.from[k.node] || l.chosen != kept.writer {
		return false
	}
	for w, why := range l.skipped {
		if why != "bound" && !vl.known[k.reader][w] {
			return false
		}
	}
	return true
}

// views folds the adoptable legs into one view per (node, reader). It
// reports how many reads had adoptable legs at two replicas (ambiguous, left
// out) and how many had none (unmatched: the instrument lost a verdict).
func (vl *viewLog) views() (views map[viewKey]*readerView, ambiguous, unmatched int) {
	type readKey struct {
		reader wire.TxnID
		key    string
	}
	at := make(map[readKey][]legKey)
	for k, legs := range vl.legs {
		for _, l := range legs {
			if vl.adoptable(k, l) {
				at[readKey{k.reader, k.key}] = append(at[readKey{k.reader, k.key}], k)
				break
			}
		}
	}
	for _, kept := range vl.reads {
		unmatched += len(kept)
	}
	unmatched -= len(at)
	views = make(map[viewKey]*readerView)
	for _, ks := range at {
		if len(ks) > 1 {
			ambiguous++
			continue
		}
		k := ks[0]
		vk := viewKey{k.node, k.reader}
		v := views[vk]
		if v == nil {
			v = &readerView{in: map[wire.TxnID]string{}, out: map[wire.TxnID]string{}}
			views[vk] = v
		}
		for _, l := range vl.legs[k] {
			if !vl.adoptable(k, l) {
				continue
			}
			if !l.chosen.IsZero() {
				v.in[l.chosen] = k.key + " chosen"
			}
			for w, why := range l.skipped {
				v.out[w] = k.key + " " + why
			}
		}
	}
	return views, ambiguous, unmatched
}

func (vl *viewLog) check(nodes []*Node) error {
	stamps := make(map[wire.NodeID]map[wire.TxnID]uint64, len(nodes))
	for _, nd := range nodes {
		st := make(map[wire.TxnID]uint64)
		_ = nd.store.Dump(func(_ string, v mvstore.VersionRec) error {
			st[v.Writer] = v.ExtSID
			return nil
		})
		stamps[nd.id] = st
	}
	vl.mu.Lock()
	defer vl.mu.Unlock()
	views, ambiguous, unmatched := vl.views()
	var bad []string
	for k, v := range views {
		st := stamps[k.node]
		below := func(b, a wire.TxnID) bool {
			if st[b] != st[a] {
				return st[b] < st[a]
			}
			if b.Node != a.Node {
				return b.Node < a.Node
			}
			return b.Seq < a.Seq
		}
		var shape string
		for a, whyA := range v.in {
			for b, whyB := range v.out {
				if b == a || below(b, a) {
					shape = fmt.Sprintf("%v at N%d includes %v (stamp %d, %s) but excludes %v (stamp %d, %s)",
						k.reader, k.node, a, st[a], whyA, b, st[b], whyB)
				}
			}
		}
		if shape != "" {
			bad = append(bad, shape)
		}
	}
	if unmatched > 0 {
		return fmt.Errorf("%d read-only reads matched no traced leg: the instrument lost a verdict", unmatched)
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("%d of %d read-only views are not a prefix of the (stamp, TxnID) order (%d reads at two replicas left out), e.g. %s",
		len(bad), len(views), ambiguous, strings.Join(bad[:min(3, len(bad))], "; "))
}
