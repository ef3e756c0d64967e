package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	sss "github.com/sss-paper/sss"
	"github.com/sss-paper/sss/internal/clientproto"
	"github.com/sss-paper/sss/internal/commitlog"
	"github.com/sss-paper/sss/internal/lockmgr"
	"github.com/sss-paper/sss/internal/mvstore"
	"github.com/sss-paper/sss/internal/transport"
	"github.com/sss-paper/sss/internal/vclock"
	"github.com/sss-paper/sss/internal/wal"
	"github.com/sss-paper/sss/internal/wire"
	"github.com/sss-paper/sss/internal/ycsb"
)

// The probes time direct calls into each layer's exported functions, on one
// goroutine, with fixed iteration counts and inputs shaped like the
// workloads': n = 3 vector clocks, 2-key transactions, 32-byte values,
// 8-envelope batches. They say what a layer costs with nothing around it;
// the workloads say what that cost is worth end to end.

// perOp runs f iters times and returns the mean nanoseconds of one call.
func perOp(iters int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		f(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

var probeValue = formatToken(wire.TxnID{Node: 1, Seq: 123456}, valueSize)

func runProbes(v map[string]float64) error {
	probeCodecs(v)
	probeCommitlog(v)
	probeMvstore(v)
	probeLockmgr(v)
	if err := probeWAL(v); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := probeTransport(v); err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	if err := probeEngine(v); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// commitBatch is the peer traffic of one 2-key update commit plus a 2-key
// read-only transaction: eight envelopes, as one batch frame.
func commitBatch() []wire.Envelope {
	txn := wire.TxnID{Node: 0, Seq: 4242}
	vc := vclock.VC{1041, 977, 1003}
	k0, k1 := ycsb.KeyName(17), ycsb.KeyName(4093)
	msgs := []wire.Msg{
		&wire.ReadRequest{Txn: txn, Key: k0, VC: vc, HasRead: []bool{true, false, false}},
		&wire.ReadReturn{Val: probeValue, Exists: true, Writer: wire.TxnID{Node: 1, Seq: 4100}, VC: vc},
		&wire.Prepare{Txn: txn, VC: vc, ReadKeys: []string{k0, k1},
			Writes: []wire.KV{{Key: k0, Val: probeValue}, {Key: k1, Val: probeValue}}, ReadVers: []uint64{7, 9}},
		&wire.Vote{Txn: txn, VC: vc, OK: true},
		&wire.Decide{Txn: txn, VC: vc, Commit: true, Drain: true},
		&wire.DecideAck{Txn: txn, Ext: 1041},
		&wire.ReadRequest{Txn: txn, Key: k1, VC: vc, HasRead: []bool{true, true, false}},
		&wire.Remove{Txn: txn},
	}
	envs := make([]wire.Envelope, len(msgs))
	for i, m := range msgs {
		envs[i] = wire.Envelope{From: 0, RID: uint64(100 + i), Msg: m}
	}
	return envs
}

func probeCodecs(v map[string]float64) {
	envs := commitBatch()
	var frame []byte
	enc := perOp(20000, func(int) {
		bp := wire.GetBuf()
		*bp, _ = wire.EncodeBatch(*bp, envs) // cannot fail: the batch is non-empty and every message kind is known
		frame = append(frame[:0], *bp...)
		wire.PutBuf(bp)
	})
	dec := perOp(20000, func(int) {
		_, _ = wire.DecodeBatch(frame, func(wire.Envelope) error { return nil }) // frame was just encoded
	})
	v["probe.wire.encode_ns_per_env"] = enc / float64(len(envs))
	v["probe.wire.decode_ns_per_env"] = dec / float64(len(envs))

	req := clientproto.Request{Op: clientproto.OpWrite, ReqID: 77, Txn: 9, Key: ycsb.KeyName(17), Val: probeValue}
	var buf []byte
	v["probe.clientproto.codec_ns_per_req"] = perOp(100000, func(i int) {
		req.ReqID = uint64(i)
		buf = clientproto.AppendRequest(buf[:0], &req)
		_, _ = clientproto.DecodeRequest(buf) // buf was just encoded
	})

	a, b := vclock.VC{1041, 977, 1003}, vclock.VC{1040, 980, 1003}
	v["probe.vclock.max_into_ns"] = perOp(2000000, func(i int) {
		b[1] = uint64(i)
		a.MaxInto(b)
	})
}

func probeCommitlog(v map[string]float64) {
	l := commitlog.New(0, nodes, 0)
	remote := make([]uint64, nodes)
	v["probe.commitlog.prepare_decide_ns"] = perOp(50000, func(i int) {
		id := wire.TxnID{Node: wire.NodeID(i % nodes), Seq: uint64(i + 1)}
		final := l.Prepare(id, true, nil).Clone()
		for w := 1; w < nodes; w++ {
			remote[w] += uint64(i % (w + 1))
			final[w] = remote[w]
		}
		l.Decide(id, final, true, true)
	})
	// A read-only reader's bound near the frontier after contacting two
	// nodes: the constrained case, which cannot take the cumulative shortcut.
	bound := l.MostRecentVC()
	bound[1], bound[2] = bound[1]*3/4, bound[2]*3/4
	hasRead := []bool{false, true, true}
	dst := vclock.New(nodes)
	v["probe.commitlog.visible_max_ns"] = perOp(50000, func(int) {
		clear(dst)
		l.VisibleMaxInto(dst, hasRead, bound, nil)
	})
}

func probeMvstore(v map[string]float64) {
	const keys = 5000
	s := mvstore.New(nodes, 0)
	space := ycsb.Keyspace(keys)
	for _, k := range space {
		s.Preload(k, probeValue)
	}
	vc := vclock.New(nodes)
	v["probe.mvstore.apply_ns"] = perOp(100000, func(i int) {
		vc[i%nodes]++
		s.Apply(space[i*7919%keys], probeValue, vc.Clone(), wire.TxnID{Node: wire.NodeID(i % nodes), Seq: uint64(i + 1)}, nil)
	})
	// Every key now has a ~20-deep chain; a reader at the frontier takes the
	// newest version, the shallow walk of ro80-loopback.
	reader := wire.TxnID{Node: 1, Seq: 1}
	readRO := func(key string, maxVC vclock.VC) {
		s.ReadRO(reader, key, 0, nodes, maxVC[0], nil, maxVC, nil, nil, nil, nil, 0, 0)
	}
	v["probe.mvstore.read_ro_ns"] = perOp(200000, func(i int) { readRO(space[i*7919%keys], vc) })

	// One hot key with a full default-depth chain, read at a cut beneath all
	// but its oldest version: the deep walk hot-longro's readers can hit.
	deep := vclock.New(nodes)
	for i := 1; i <= mvstore.DefaultMaxDepth; i++ {
		deep[0] = uint64(i)
		s.Apply("hot", probeValue, deep.Clone(), wire.TxnID{Node: 0, Seq: uint64(1000000 + i)}, nil)
	}
	old := vclock.VC{1, 0, 0}
	hasRead := []bool{true, false, false}
	v["probe.mvstore.read_ro_deep_ns"] = perOp(100000, func(int) {
		s.ReadRO(reader, "hot", 0, nodes, old[0], hasRead, old, nil, nil, nil, nil, 0, 0)
	})
}

func probeLockmgr(v map[string]float64) {
	t := lockmgr.New()
	space := ycsb.Keyspace(5000)
	v["probe.lockmgr.acquire_release_ns"] = perOp(200000, func(i int) {
		id := wire.TxnID{Node: 0, Seq: uint64(i + 1)}
		keys := []string{space[i*7919%5000], space[(i*7919+1)%5000]}
		t.AcquireAll(id, keys, nil, time.Millisecond)
		t.ReleaseAll(id, keys, nil)
	})
}

// probeWAL appends and syncs prepare-sized records with the real fsync and
// no injected delay, on the same kind of directory the durable workload
// uses: first alone, then from two goroutines to see group commit batch.
func probeWAL(v map[string]float64) error {
	dir, err := makeWorkDir(true, "probe-wal-*")
	if err != nil {
		return err
	}
	trackDir(dir)
	defer cleanup()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer l.Close() // error path only; the success path checks Close below
	rec := func(seq int) *wal.Record {
		return &wal.Record{Type: wal.RecPrepare, Txn: wire.TxnID{Node: 0, Seq: uint64(seq)}, VC: vclock.VC{1041, 977, 1003},
			Writes: []wire.KV{{Key: ycsb.KeyName(17), Val: probeValue}, {Key: ycsb.KeyName(4093), Val: probeValue}}}
	}
	const syncs = 300
	var syncErr error
	v["probe.wal.append_sync_us"] = 1e-3 * perOp(syncs, func(i int) {
		l.Append(rec(i))
		if err := l.Sync(); err != nil {
			syncErr = err
		}
	})
	if syncErr != nil {
		return syncErr
	}
	st := l.Stats()
	syncs0, recs0 := st.WalSyncs.Load(), st.WalSyncedRecords.Load()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < syncs && errs[g] == nil; i++ {
				l.Append(rec(g*syncs + i))
				errs[g] = l.Sync()
			}
		}()
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		return fmt.Errorf("concurrent sync: %v, %v", errs[0], errs[1])
	}
	v["probe.wal.records_per_sync_2w"] = ratio(float64(st.WalSyncedRecords.Load()-recs0), float64(st.WalSyncs.Load()-syncs0))
	return l.Close()
}

// probeTransport times one RPC.Call round trip between two TCP endpoints in
// this process: transport batching, wire codec and loopback, no engine.
func probeTransport(v map[string]float64) error {
	book := map[wire.NodeID]string{}
	for id := wire.NodeID(0); id < 2; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		book[id] = ln.Addr().String()
		_ = ln.Close() // only reserving the port
	}
	nets := []*transport.TCP{transport.NewTCP(book), transport.NewTCP(book)}
	defer nets[0].Close()
	defer nets[1].Close()
	rpcs := make([]*transport.RPC, 2)
	for i := range rpcs {
		var err error
		rpcs[i], err = transport.NewRPC(nets[i], wire.NodeID(i), func(from wire.NodeID, rid uint64, msg wire.Msg) {
			if rid != 0 {
				_ = rpcs[i].Reply(from, rid, msg) // a lost echo surfaces as the caller's timeout
			}
		})
		if err != nil {
			return err
		}
		defer rpcs[i].Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := &wire.ReadRequest{Txn: wire.TxnID{Node: 0, Seq: 1}, Key: ycsb.KeyName(17), VC: vclock.VC{1041, 977, 1003}, HasRead: []bool{true, false, false}}
	call := func(int) error {
		_, err := rpcs[0].Call(ctx, 1, req)
		return err
	}
	for i := 0; i < 200; i++ { // dial and warm both directions
		if err := call(i); err != nil {
			return err
		}
	}
	var callErr error
	v["probe.transport.rpc_rtt_us"] = 1e-3 * perOp(3000, func(i int) {
		if err := call(i); err != nil {
			callErr = err
		}
	})
	return callErr
}

// probeEngine runs the workloads' transaction shapes on the root package's
// in-process cluster with message latency off and one client: engine cost
// with no TCP and no clientproto.
func probeEngine(v map[string]float64) error {
	c, err := sss.New(sss.Options{Nodes: nodes, ReplicationDegree: replication, DisableLatency: true})
	if err != nil {
		return err
	}
	defer c.Close()
	const keys = 5000
	space := ycsb.Keyspace(keys)
	for _, k := range space {
		c.Preload(k, probeValue)
	}
	node := c.Node(0)
	var txErr error
	note := func(err error) {
		if err != nil && txErr == nil {
			txErr = err
		}
	}
	pick := func(i int) (string, string) { return space[i*7919%keys], space[(i*7919+2503)%keys] }
	v["probe.engine.inproc_ro_us"] = 1e-3 * perOp(5000, func(i int) {
		k0, k1 := pick(i)
		tx := node.Begin(true)
		_, _, err := tx.Read(k0)
		note(err)
		_, _, err = tx.Read(k1)
		note(err)
		note(tx.Commit())
	})
	v["probe.engine.inproc_upd_us"] = 1e-3 * perOp(2000, func(i int) {
		k0, k1 := pick(i)
		tx := node.Begin(false)
		for _, k := range []string{k0, k1} {
			_, _, err := tx.Read(k)
			note(err)
			note(tx.Write(k, probeValue))
		}
		note(tx.Commit())
	})
	return txErr
}
