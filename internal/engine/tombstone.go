package engine

import (
	"math/bits"

	"github.com/sss-paper/sss/internal/wire"
)

// A tombstone is one bit per coordinator sequence number: each stripe keeps
// one sliding bitmap per (coordinator, epoch), the epoch being Seq>>32,
// which recovery bumps, so a restarted coordinator opens a fresh window
// while the pre-crash one still drops redelivered messages.
const (
	// tombWindow is how many of a coordinator epoch's newest sequence
	// numbers the windows span, summed over the stripes. A window at its
	// cap slides by half, so the newest tombWindow/2 are always kept.
	tombWindow = 1 << 20
	// tombWords is one stripe's share of a window in words (2 KiB).
	tombWords = tombWindow >> stripeBits / 64
	// tombEpochs is how many epochs per coordinator a stripe keeps.
	tombEpochs = 2
)

// seqWindow holds one coordinator epoch's tombstones in one stripe: bit b
// of words[i] marks slot base+64i+b, a transaction's slot being
// Seq>>stripeBits.
type seqWindow struct {
	node  wire.NodeID
	epoch uint64
	base  uint64
	words []uint64
}

// tombstoneLocked records that ro's Remove (or Decide) has been processed.
// A transaction below its window, or of an epoch older than those kept, is
// already forgotten and stays so. Called with st.mu held.
func (st *stripe) tombstoneLocked(ro wire.TxnID) {
	w := st.windowLocked(ro)
	slot := ro.Seq >> stripeBits
	if w == nil || slot < w.base {
		return
	}
	i := (slot - w.base) / 64
	if i >= tombWords {
		// Slide by whole halves until slot fits: a far jump empties the
		// window in one step.
		const half = tombWords / 2
		shift := ((i-tombWords)/half + 1) * half
		st.ntombs -= w.slide(shift)
		i -= shift
	}
	for uint64(len(w.words)) <= i {
		w.words = append(w.words, 0)
	}
	if bit := uint64(1) << (slot % 64); w.words[i]&bit == 0 {
		w.words[i] |= bit
		st.ntombs++
	}
}

// slide moves w forward by shift words and returns how many tombstones it
// forgot.
func (w *seqWindow) slide(shift uint64) int {
	gone := min(shift, uint64(len(w.words)))
	n := 0
	for _, word := range w.words[:gone] {
		n += bits.OnesCount64(word)
	}
	w.words = w.words[:copy(w.words, w.words[gone:])]
	w.base += shift * 64
	return n
}

// windowLocked returns id's window, opening it at its epoch's first slot if
// needed; a third epoch of a coordinator replaces its oldest. It returns nil
// for an epoch older than every one kept.
func (st *stripe) windowLocked(id wire.TxnID) *seqWindow {
	epoch := id.Seq >> 32
	var oldest *seqWindow
	held := 0
	for i := range st.tombs {
		if w := &st.tombs[i]; w.node == id.Node {
			if w.epoch == epoch {
				return w
			}
			if held++; oldest == nil || w.epoch < oldest.epoch {
				oldest = w
			}
		}
	}
	fresh := seqWindow{node: id.Node, epoch: epoch, base: epoch << 32 >> stripeBits}
	if held < tombEpochs {
		st.tombs = append(st.tombs, fresh)
		return &st.tombs[len(st.tombs)-1]
	}
	if epoch < oldest.epoch {
		return nil
	}
	st.ntombs -= oldest.slide(uint64(len(oldest.words)))
	fresh.words = oldest.words
	*oldest = fresh
	return oldest
}

// tombstonedLocked reports whether ro's Remove (or Decide) has been
// processed. Callers needing atomicity with an insert (handleRead) hold the
// stripe lock across both.
func (st *stripe) tombstonedLocked(ro wire.TxnID) bool {
	slot := ro.Seq >> stripeBits
	for _, w := range st.tombs {
		if w.node == ro.Node && w.epoch == ro.Seq>>32 {
			i := (slot - w.base) / 64
			return slot >= w.base && i < uint64(len(w.words)) && w.words[i]&(1<<(slot%64)) != 0
		}
	}
	return false
}
