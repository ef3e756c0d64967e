package rococo

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"github.com/sss-paper/sss/internal/baseline"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/kv"
)

// Txn is a ROCOCO transaction. It implements kv.Txn with one-shot
// semantics: update transactions buffer their pieces and execute them
// atomically during Commit's two rounds, so Read on an update transaction
// returns a *provisional* value (served like a single-key read-only probe).
// This matches the system's stored-procedure model — the evaluation
// workloads' writes do not depend on read results (§V's YCSB profiles).
type Txn struct {
	baseline.Txn
	nd *Node

	rsOrder []string
	rsSeen  map[string]struct{}
	// ro round-1 state
	roVals   map[string][]byte
	roVers   map[string]uint64
	roExists map[string]bool
}

var _ kv.Txn = (*Txn)(nil)

// Begin starts a transaction on this node.
func (nd *Node) Begin(readOnly bool) *Txn {
	return &Txn{
		Txn:      nd.NewTxn(readOnly),
		nd:       nd,
		rsSeen:   make(map[string]struct{}),
		roVals:   make(map[string][]byte),
		roVers:   make(map[string]uint64),
		roExists: make(map[string]bool),
	}
}

// Read implements kv.Txn. For read-only transactions this is round one of
// the multi-round protocol (values are validated against a second round at
// Commit). For update transactions the value is provisional.
func (t *Txn) Read(key string) ([]byte, bool, error) {
	if v, ok, err := t.Buffered(key); ok || err != nil {
		return v, ok, err
	}
	if _, ok := t.rsSeen[key]; ok {
		return t.roVals[key], t.roExists[key], nil
	}
	val, ver, exists, err := t.probe(key)
	if err != nil {
		return nil, false, err
	}
	t.rsSeen[key] = struct{}{}
	t.rsOrder = append(t.rsOrder, key)
	t.roVals[key], t.roVers[key], t.roExists[key] = val, ver, exists
	return val, exists, nil
}

// probe reads one key's value+version from its primary, waiting out
// in-flight conflicting writers.
func (t *Txn) probe(key string) ([]byte, uint64, bool, error) {
	nd := t.nd
	resp, err := nd.RPC.CallWithin(execTimeout, nd.Lookup.Primary(key), &wire.RococoDispatch{
		Txn: t.ID, ReadKeys: []string{key},
	})
	if err != nil {
		return nil, 0, false, fmt.Errorf("%w: probe %q: %v", kv.ErrUnavailable, key, err)
	}
	r, ok := resp.(*wire.RococoDispatchReply)
	if !ok || len(r.Vals) != 1 {
		return nil, 0, false, fmt.Errorf("rococo: bad probe reply for %q", key)
	}
	return r.Vals[0], r.Versions[0], r.Exists[0], nil
}

// Commit implements kv.Txn.
func (t *Txn) Commit() error { return t.Finish(t.commit) }

func (t *Txn) commit() error {
	if len(t.WriteKeys()) == 0 {
		return t.commitReadOnly()
	}
	return t.commitUpdate()
}

// commitReadOnly performs the validation round: every key is re-read and
// must report the version seen in round one, otherwise a concurrent writer
// interfered and the transaction aborts (the caller retries).
func (t *Txn) commitReadOnly() error {
	if len(t.rsOrder) == 0 {
		return nil
	}
	nd := t.nd
	byNode := make(map[wire.NodeID][]string)
	for _, k := range t.rsOrder {
		p := nd.Lookup.Primary(k)
		byNode[p] = append(byNode[p], k)
	}
	deadline := time.Now().Add(execTimeout)
	for node, keys := range byNode {
		resp, err := nd.RPC.CallWithin(time.Until(deadline), node, &wire.RococoDispatch{Txn: t.ID, ReadKeys: keys})
		if err != nil {
			return fmt.Errorf("%w: validate: %v", kv.ErrUnavailable, err)
		}
		r, ok := resp.(*wire.RococoDispatchReply)
		if !ok || len(r.Versions) != len(keys) {
			return fmt.Errorf("rococo: bad validation reply")
		}
		// The server answers in localKeys order; sort by the same rule.
		sorted := append([]string(nil), keys...)
		sort.Strings(sorted)
		for i, k := range sorted {
			if r.Versions[i] != t.roVers[k] || !bytes.Equal(r.Vals[i], t.roVals[k]) {
				return kv.ErrAborted
			}
		}
	}
	return nil
}

// commitUpdate runs the two-round protocol: dispatch to every involved
// server, agree on max proposed sequence, then commit. Update transactions
// never abort (all pieces are deferrable and reorderable).
func (t *Txn) commitUpdate() error {
	nd := t.nd
	servers := nd.Lookup.ReplicaSet(t.rsOrder, t.WriteKeys())

	replies, _ := nd.RPC.Gather(rpcTimeout, servers, &wire.RococoDispatch{
		Txn: t.ID, ReadKeys: t.rsOrder, Writes: t.Writes(),
	}, nil)

	var seq uint64
	for _, r := range replies {
		rep, ok := r.(*wire.RococoDispatchReply)
		if !ok {
			return fmt.Errorf("%w: dispatch round failed", kv.ErrUnavailable)
		}
		if rep.Seq > seq {
			seq = rep.Seq
		}
	}

	acks, _ := nd.RPC.Gather(execTimeout, servers, &wire.RococoCommit{Txn: t.ID, Seq: seq}, nil)
	for _, a := range acks {
		if _, ok := a.(*wire.RococoCommitReply); !ok {
			return fmt.Errorf("%w: commit round failed", kv.ErrUnavailable)
		}
	}
	return nil
}
