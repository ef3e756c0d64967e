package sss

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/sss-paper/sss/internal/checker"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// runClientHistory drives the client-history workload discipline of
// internal/harness/workload.go against an in-process cluster of engine eng:
// every write is a unique token naming its attempt, and every written key is
// read first in the same transaction. 3 nodes, replication 2, 6 keys,
// 8 clients × 60 transactions of 2 keys, half of them read-only.
func runClientHistory(t *testing.T, eng Engine) *checker.ClientHistory {
	t.Helper()
	c, err := New(Options{Nodes: 3, ReplicationDegree: 2, Engine: eng, DisableLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const clients, txns, keys = 8, 60, 6
	h := checker.NewClientHistory()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			nd := c.Node(w % c.NumNodes())
			for seq := 1; seq <= txns; seq++ {
				a, b := rng.Intn(keys), rng.Intn(keys-1)
				if b >= a {
					b++
				}
				id := wire.TxnID{Node: wire.NodeID(w), Seq: uint64(seq)}
				h.Add(historyTxn(nd, id, rng.Intn(2) == 0, fmt.Sprintf("k%d", a), fmt.Sprintf("k%d", b)))
			}
		}(w)
	}
	wg.Wait()
	return h
}

// historyTxn runs one attempt and records what its client observed. A
// failure before Commit, or kv.ErrAborted from it, is an abort; any other
// Commit error leaves the outcome unknown.
func historyTxn(nd *Node, id wire.TxnID, readOnly bool, keys ...string) checker.ClientTxnObs {
	obs := checker.ClientTxnObs{ID: id, ReadOnly: readOnly, Start: time.Now()}
	tx := nd.Begin(readOnly)
	for _, key := range keys {
		val, found, err := tx.Read(key)
		if err != nil {
			_ = tx.Abort()
			obs.Outcome, obs.End = checker.OutcomeAborted, time.Now()
			return obs
		}
		r := checker.ReadObs{Key: key} // zero Writer: the genesis version
		if found {
			r.Writer = tokenWriter(val)
		}
		obs.Reads = append(obs.Reads, r)
		if !readOnly {
			_ = tx.Write(key, []byte(fmt.Sprintf("t%d.%d", id.Node, id.Seq)))
			obs.Writes = append(obs.Writes, key)
		}
	}
	err := tx.Commit()
	obs.End = time.Now()
	switch {
	case err == nil:
		obs.Outcome = checker.OutcomeCommitted
	case errors.Is(err, kv.ErrAborted):
		obs.Outcome = checker.OutcomeAborted
	default:
		obs.Outcome = checker.OutcomeUnknown
	}
	return obs
}

// tokenWriter maps a read value back to the attempt that wrote it. A value
// that is no token maps to a writer no attempt has, which the checker
// reports as a phantom read.
func tokenWriter(val []byte) wire.TxnID {
	var id wire.TxnID
	if _, err := fmt.Sscanf(string(val), "t%d.%d", &id.Node, &id.Seq); err != nil {
		return wire.TxnID{Node: -1, Seq: 1}
	}
	return id
}

func TestClientHistory2PCIsExternallyConsistent(t *testing.T) {
	h := runClientHistory(t, Engine2PC)
	committed, aborted, unknown := h.Counts()
	t.Logf("2pc: %d committed, %d aborted, %d unknown", committed, aborted, unknown)
	if committed == 0 {
		t.Fatal("nothing committed: the check would be vacuous")
	}
	if err := h.Check(); err != nil {
		t.Fatalf("2PC history violates external consistency: %v", err)
	}
}

func TestClientHistoryWalterViolationIsSeen(t *testing.T) {
	// PSI admits stale site-local reads, so Walter's histories are not
	// externally consistent; the checker must see it.
	for attempt := 1; attempt <= 5; attempt++ {
		if err := runClientHistory(t, EngineWalter).Check(); err != nil {
			t.Logf("attempt %d: %v", attempt, err)
			return
		}
	}
	t.Fatal("5 Walter histories passed the external-consistency check")
}
