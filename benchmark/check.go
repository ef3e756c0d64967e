package main

import (
	"github.com/sss-paper/sss/internal/checker"
	"github.com/sss-paper/sss/internal/wire"
)

// fracturedReads returns the indexes of the read-only transactions in obs
// that saw a fractured snapshot of one writer W: W's version of one key and,
// of another key W also wrote, the version W overwrote. In the checker's
// graph that is the two-node cycle W -wr(k2)-> R -rw(k1)-> W. Updates are
// read-modify-write, so W's own read of k1 names the version it overwrote and
// the shape can be recognised from the observations alone, without parsing
// the checker's error.
func fracturedReads(obs []checker.ClientTxnObs) []int {
	// For every writer that may have committed: key -> writer of the version
	// it overwrote.
	overwrote := map[wire.TxnID]map[string]wire.TxnID{}
	for _, o := range obs {
		if o.ReadOnly || o.Outcome == checker.OutcomeAborted {
			continue
		}
		prev := make(map[string]wire.TxnID, len(o.Reads))
		for _, r := range o.Reads {
			prev[r.Key] = r.Writer
		}
		overwrote[o.ID] = prev
	}
	var out []int
	for i, o := range obs {
		if o.ReadOnly && isFractured(o.Reads, overwrote) {
			out = append(out, i)
		}
	}
	return out
}

func isFractured(reads []checker.ReadObs, overwrote map[wire.TxnID]map[string]wire.TxnID) bool {
	for _, seen := range reads {
		prev, ok := overwrote[seen.Writer]
		if !ok {
			continue
		}
		for _, other := range reads {
			if p, wrote := prev[other.Key]; wrote && other.Key != seen.Key && other.Writer == p {
				return true
			}
		}
	}
	return false
}

// checkHistory checks everything the clients observed since the preload. It
// returns the number of fractured read-only snapshots and the error of the
// external-consistency check. With waiveFractured the fractured read-only
// transactions — and nothing else — are left out before the check, so the
// known defect neither fails the run nor hides any other violation behind
// the checker's first cycle; without it they stay in and fail it.
func checkHistory(obs []checker.ClientTxnObs, waiveFractured bool) (fractured, checked int, err error) {
	skip := map[int]bool{}
	bad := fracturedReads(obs)
	if waiveFractured {
		for _, i := range bad {
			skip[i] = true
		}
	}
	h := checker.NewClientHistory()
	for i, o := range obs {
		if !skip[i] {
			h.Add(o)
		}
	}
	return len(bad), h.Len(), h.Check()
}
