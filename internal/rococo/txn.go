package rococo

import (
	"bytes"
	"context"
	"fmt"
	"time"

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
	nd       *Node
	id       wire.TxnID
	readOnly bool

	rsOrder []string
	rsSeen  map[string]struct{}
	// ro round-1 state
	roVals   map[string][]byte
	roVers   map[string]uint64
	roExists map[string]bool

	ws      map[string][]byte
	wsOrder []string

	begin time.Time
	done  bool
}

var _ kv.Txn = (*Txn)(nil)

// Begin starts a transaction on this node.
func (nd *Node) Begin(readOnly bool) *Txn {
	return &Txn{
		nd:       nd,
		id:       wire.TxnID{Node: nd.id, Seq: nd.txnSeq.Add(1)},
		readOnly: readOnly,
		rsSeen:   make(map[string]struct{}),
		roVals:   make(map[string][]byte),
		roVers:   make(map[string]uint64),
		roExists: make(map[string]bool),
		ws:       make(map[string][]byte),
		begin:    time.Now(),
	}
}

// Read implements kv.Txn. For read-only transactions this is round one of
// the multi-round protocol (values are validated against a second round at
// Commit). For update transactions the value is provisional.
func (t *Txn) Read(key string) ([]byte, bool, error) {
	if t.done {
		return nil, false, kv.ErrTxnDone
	}
	if v, ok := t.ws[key]; ok {
		return v, true, nil
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
	ctx, cancel := context.WithTimeout(context.Background(), nd.cfg.ExecTimeout)
	defer cancel()
	resp, err := nd.rpc.Call(ctx, nd.lookup.Primary(key), &wire.RococoDispatch{
		Txn: t.id, ReadKeys: []string{key},
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

// Write implements kv.Txn.
func (t *Txn) Write(key string, val []byte) error {
	if t.done {
		return kv.ErrTxnDone
	}
	if t.readOnly {
		return kv.ErrReadOnlyWrite
	}
	if _, dup := t.ws[key]; !dup {
		t.wsOrder = append(t.wsOrder, key)
	}
	t.ws[key] = val
	return nil
}

// Abort implements kv.Txn.
func (t *Txn) Abort() error {
	t.done = true
	return nil
}

// Commit implements kv.Txn.
func (t *Txn) Commit() error {
	if t.done {
		return kv.ErrTxnDone
	}
	t.done = true
	nd := t.nd
	if len(t.ws) == 0 {
		err := t.commitReadOnly()
		if err != nil {
			nd.stats.Aborts.Add(1)
			return err
		}
		nd.stats.ReadOnlyRuns.Add(1)
		nd.stats.ReadOnlyLatency.Observe(time.Since(t.begin))
		return nil
	}
	if err := t.commitUpdate(); err != nil {
		nd.stats.Aborts.Add(1)
		return err
	}
	nd.stats.Commits.Add(1)
	now := time.Now()
	nd.stats.CommitLatency.Observe(now.Sub(t.begin))
	nd.stats.InternalLatency.Observe(now.Sub(t.begin))
	return nil
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
		p := nd.lookup.Primary(k)
		byNode[p] = append(byNode[p], k)
	}
	ctx, cancel := context.WithTimeout(context.Background(), nd.cfg.ExecTimeout)
	defer cancel()
	for node, keys := range byNode {
		resp, err := nd.rpc.Call(ctx, node, &wire.RococoDispatch{Txn: t.id, ReadKeys: keys})
		if err != nil {
			return fmt.Errorf("%w: validate: %v", kv.ErrUnavailable, err)
		}
		r, ok := resp.(*wire.RococoDispatchReply)
		if !ok || len(r.Versions) != len(keys) {
			return fmt.Errorf("rococo: bad validation reply")
		}
		// The server sorts its local keys; mirror that order.
		sorted := nd.localOrder(node, keys)
		for i, k := range sorted {
			if r.Versions[i] != t.roVers[k] || !bytes.Equal(r.Vals[i], t.roVals[k]) {
				return kv.ErrAborted
			}
		}
	}
	return nil
}

func (nd *Node) localOrder(_ wire.NodeID, keys []string) []string {
	out := make([]string, len(keys))
	copy(out, keys)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// commitUpdate runs the two-round protocol: dispatch to every involved
// server, agree on max proposed sequence, then commit. Update transactions
// never abort (all pieces are deferrable and reorderable).
func (t *Txn) commitUpdate() error {
	nd := t.nd
	writes := make([]wire.KV, 0, len(t.wsOrder))
	for _, k := range t.wsOrder {
		writes = append(writes, wire.KV{Key: k, Val: t.ws[k]})
	}
	servers := nd.lookup.ReplicaSet(t.rsOrder, t.wsOrder)

	ctx, cancel := context.WithTimeout(context.Background(), nd.cfg.RPCTimeout)
	replies, _ := nd.rpc.Gather(ctx, servers, &wire.RococoDispatch{
		Txn: t.id, ReadKeys: t.rsOrder, Writes: writes,
	}, nil)
	cancel()

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

	cctx, ccancel := context.WithTimeout(context.Background(), nd.cfg.ExecTimeout)
	defer ccancel()
	acks, _ := nd.rpc.Gather(cctx, servers, &wire.RococoCommit{Txn: t.id, Seq: seq}, nil)
	for _, a := range acks {
		if _, ok := a.(*wire.RococoCommitReply); !ok {
			return fmt.Errorf("%w: commit round failed", kv.ErrUnavailable)
		}
	}
	return nil
}
