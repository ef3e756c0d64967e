package engine

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wire"
)

// tombModel is the reference for the tombstone bitmaps: a plain set pruned
// by the window rule, written as the rule reads — per (stripe, coordinator)
// at most tombEpochs epochs, the oldest evicted by a newer one; per
// (stripe, coordinator, epoch) a window of tombWords*64 slots starting at
// the epoch's first slot, slid by half a window at a time until the newest
// slot fits.
type tombModel struct {
	set    map[wire.TxnID]bool
	epochs map[tombModelOwner][]uint64
	base   map[tombModelKey]uint64
}

type tombModelOwner struct {
	st   *stripe
	node wire.NodeID
}

type tombModelKey struct {
	tombModelOwner
	epoch uint64
}

func newTombModel() *tombModel {
	return &tombModel{
		set:    make(map[wire.TxnID]bool),
		epochs: make(map[tombModelOwner][]uint64),
		base:   make(map[tombModelKey]uint64),
	}
}

func (m *tombModel) tombstone(nd *Node, id wire.TxnID) {
	owner := tombModelOwner{nd.stripeOf(id), id.Node}
	key := tombModelKey{owner, id.Seq >> 32}
	held := m.epochs[owner]
	if _, ok := m.base[key]; !ok {
		if len(held) == tombEpochs {
			oldest := 0
			for i := range held {
				if held[i] < held[oldest] {
					oldest = i
				}
			}
			if key.epoch < held[oldest] {
				return
			}
			m.prune(nd, tombModelKey{owner, held[oldest]}, ^uint64(0))
			held = append(held[:oldest], held[oldest+1:]...)
		}
		m.epochs[owner] = append(held, key.epoch)
		m.base[key] = key.epoch << 32 >> stripeBits
	}
	slot := id.Seq >> stripeBits
	if slot < m.base[key] {
		return
	}
	if slot >= m.base[key]+tombWords*64 {
		for slot >= m.base[key]+tombWords*64 {
			m.base[key] += tombWords / 2 * 64
		}
		m.prune(nd, key, m.base[key])
	}
	m.set[id] = true
}

// prune forgets key's tombstones below slot (all of them, and the epoch
// itself, for slot ^0).
func (m *tombModel) prune(nd *Node, key tombModelKey, below uint64) {
	for id := range m.set {
		if id.Node == key.node && id.Seq>>32 == key.epoch && nd.stripeOf(id) == key.st && id.Seq>>stripeBits < below {
			delete(m.set, id)
		}
	}
	if below == ^uint64(0) {
		delete(m.base, key)
	}
}

// TestTombstoneWindowModel drives the bitmaps with a seeded random mix of
// tombstones and lookups over three coordinators and two epochs — forward
// runs that slide every window several times, reordered late arrivals,
// some below their window — and checks every lookup and the count against
// the reference set.
func TestTombstoneWindowModel(t *testing.T) {
	nd := newCluster(t, 1, 1, Config{})[0]
	m := newTombModel()
	rng := rand.New(rand.NewSource(1))
	var cursor [3][2]uint64
	for op := 0; op < 40000; op++ {
		node, epoch := rng.Intn(3), rng.Intn(2)
		c := &cursor[node][epoch]
		var seq uint64
		switch r := rng.Intn(10); {
		case r < 5: // the coordinator's next transactions, with gaps
			*c += 1 + uint64(rng.Intn(4096))
			seq = *c
		case r < 8: // a late arrival, possibly below the window
			seq = *c - min(*c, uint64(rng.Intn(tombWindow+tombWindow/2)))
		default: // a lookup near the front
			seq = *c - min(*c, uint64(rng.Intn(64)))
		}
		id := wire.TxnID{Node: wire.NodeID(node), Seq: uint64(epoch)<<32 + seq}
		if rng.Intn(10) < 8 {
			tomb(nd, id)
			m.tombstone(nd, id)
		}
		if got, want := nd.tombstoned(id), m.set[id]; got != want {
			t.Fatalf("op %d: tombstoned(%v) = %v, model %v", op, id, got, want)
		}
		if op%1000 == 0 {
			if got, want := nd.tombstoneCount(), len(m.set); got != want {
				t.Fatalf("op %d: count %d, model %d", op, got, want)
			}
		}
	}
	for id := range m.set {
		if !nd.tombstoned(id) {
			t.Fatalf("model holds %v, bitmaps do not", id)
		}
	}
	if got, want := nd.tombstoneCount(), len(m.set); got != want {
		t.Fatalf("final count %d, model %d", got, want)
	}
	for node := range cursor {
		for epoch := range cursor[node] {
			if cursor[node][epoch] < 4*tombWindow {
				t.Fatalf("coordinator %d epoch %d reached only %d: windows never slid repeatedly", node, epoch, cursor[node][epoch])
			}
		}
	}
}

// TestTombstoneEpochJumpKeepsOldEpoch: recovery's 1<<32 jump opens a new
// window without wiping the old one, so a pre-crash message redelivered
// after the restart is still dropped.
func TestTombstoneEpochJumpKeepsOldEpoch(t *testing.T) {
	nd := newCluster(t, 1, 1, Config{})[0]
	old := wire.TxnID{Node: 1, Seq: 12345}
	fresh := wire.TxnID{Node: 1, Seq: old.Seq + 1<<32}
	tomb(nd, old)
	tomb(nd, fresh)
	if !nd.tombstoned(old) || !nd.tombstoned(fresh) {
		t.Fatalf("tombstoned: old %v, new epoch %v; want both", nd.tombstoned(old), nd.tombstoned(fresh))
	}
	if got := nd.tombstoneCount(); got != 2 {
		t.Fatalf("count %d, want 2", got)
	}
}

// TestTombstoneThirdEpochEvictsOldest: a stripe keeps tombEpochs epochs per
// coordinator; a newer one evicts the oldest, and a message of an epoch
// older than every one kept is not recorded.
func TestTombstoneThirdEpochEvictsOldest(t *testing.T) {
	nd := newCluster(t, 1, 1, Config{})[0]
	id := func(epoch, seq uint64) wire.TxnID { return wire.TxnID{Node: 2, Seq: epoch<<32 + seq} }
	// All in one stripe: the same low bits in every epoch.
	tomb(nd, id(0, 64))
	tomb(nd, id(1, 64))
	tomb(nd, id(2, 64))
	if nd.tombstoned(id(0, 64)) {
		t.Fatal("epoch 0 survived a third epoch")
	}
	if !nd.tombstoned(id(1, 64)) || !nd.tombstoned(id(2, 64)) {
		t.Fatal("the two newest epochs must be kept")
	}
	tomb(nd, id(0, 128))
	if nd.tombstoned(id(0, 128)) || nd.tombstoneCount() != 2 {
		t.Fatalf("an evicted epoch was reopened (count %d)", nd.tombstoneCount())
	}
}

// TestTombstoneFarJumpClearsWindow: a jump far past the window inside one
// epoch empties the window in one slide and leaves the new slot in its
// upper half.
func TestTombstoneFarJumpClearsWindow(t *testing.T) {
	nd := newCluster(t, 1, 1, Config{})[0]
	near := wire.TxnID{Node: 0, Seq: 64}
	far := wire.TxnID{Node: 0, Seq: 1<<32 - 64} // same stripe, same epoch
	tomb(nd, near)
	tomb(nd, far)
	if nd.tombstoned(near) || !nd.tombstoned(far) || nd.tombstoneCount() != 1 {
		t.Fatalf("after the jump: near %v, far %v, count %d; want false, true, 1",
			nd.tombstoned(near), nd.tombstoned(far), nd.tombstoneCount())
	}
	st := nd.stripeOf(far)
	st.mu.Lock()
	windows, w := len(st.tombs), st.tombs[0]
	st.mu.Unlock()
	i := (far.Seq>>stripeBits - w.base) / 64
	if windows != 1 || i < tombWords/2 || i >= tombWords || cap(w.words) > tombWords {
		t.Fatalf("far slot at word %d of a %d-word window (cap %d), want in the upper half of %d",
			i, len(w.words), cap(w.words), tombWords)
	}
}

// TestTombstoneRetainsDecideUnderChurn: a Decide's tombstone outlives
// 300 000 later tombstones from the same coordinator (within the newest
// tombWindow/2, however fast they come), so the redelivered Decide — and a
// redelivered Prepare — are still dropped silently: no reply, no CommitQ
// entry.
func TestTombstoneRetainsDecideUnderChurn(t *testing.T) {
	nodes := newCluster(t, 2, 1, Config{})
	nd, puppet := nodes[0], nodes[1]
	key := keyOwnedBy(t, nd.lookup, nd.id)
	nd.Preload(key, []byte("v0"))

	txn := wire.TxnID{Node: puppet.id, Seq: 1}
	prepare := &wire.Prepare{Txn: txn, VC: vclock.New(puppet.n), Writes: []wire.KV{{Key: key, Val: []byte("v1")}}}
	decide := &wire.Decide{Txn: txn, Commit: false}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if resp, err := puppet.rpc.Call(ctx, nd.id, prepare); err != nil {
		t.Fatalf("prepare: %v", err)
	} else if v, ok := resp.(*wire.Vote); !ok || !v.OK {
		t.Fatalf("prepare: vote %+v", resp)
	}
	if _, err := puppet.rpc.Call(ctx, nd.id, decide); err != nil {
		t.Fatalf("decide: %v", err)
	}
	for seq := uint64(2); seq <= 300_001; seq++ {
		nd.handleRemove(&wire.Remove{Txn: wire.TxnID{Node: puppet.id, Seq: seq}})
	}
	if !nd.tombstoned(txn) {
		t.Fatal("the decide's tombstone was forgotten")
	}
	if got := nd.Retained().Tombstones.Load(); got != 300_001 {
		t.Fatalf("sss_tombstones = %d, want all 300001 kept", got)
	}
	for _, msg := range []wire.Msg{decide, prepare} {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		resp, err := puppet.rpc.Call(ctx, nd.id, msg)
		cancel()
		if err == nil {
			t.Fatalf("redelivered %T answered with %T, want no reply", msg, resp)
		}
	}
	st := nd.stripeOf(txn)
	st.mu.Lock()
	_, pending := st.pending[txn]
	st.mu.Unlock()
	if q := nd.log.QueueLen(); q != 0 || pending {
		t.Fatalf("redelivery registered state: CommitQ %d entries, pending %v", q, pending)
	}
	if got := puppet.Retained().RPCPending.Load(); got != 0 {
		t.Fatalf("sss_rpc_pending = %d after the unanswered calls expired, want 0", got)
	}
}

// BenchmarkTombstone measures a steady-state tombstone plus a lookup inside
// the window: three coordinators' dense sequence numbers, with every
// window already at its cap and sliding as it fills, so an op reuses the
// words it holds and allocates nothing.
func BenchmarkTombstone(b *testing.B) {
	nd := newBenchCluster(b, 1, 1, 0)[0]
	const coords = 3
	id := func(i int) wire.TxnID { return wire.TxnID{Node: wire.NodeID(i % coords), Seq: uint64(1 + i/coords)} }
	warm := coords * tombWindow
	for i := 0; i < warm; i++ {
		tomb(nd, id(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := warm; i < warm+b.N; i++ {
		tomb(nd, id(i))
		if !nd.tombstoned(id(i - warm/4)) {
			b.Fatalf("%v forgotten inside the window", id(i-warm/4))
		}
	}
}
