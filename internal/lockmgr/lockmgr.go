// Package lockmgr implements the per-key shared/exclusive lock table used by
// the 2PC prepare phase of SSS and of the 2PC-baseline competitor.
//
// Acquisition is try-with-timeout: the paper prevents distributed deadlock
// with a lock-acquisition timeout (§III-E, set to 1ms on a 20µs-latency
// network), so the table never blocks indefinitely. A transaction that
// already holds an exclusive lock on a key is granted the shared lock on the
// same key for free (a transaction that both reads and writes a key locks it
// once, exclusively).
//
// The table is built for the uncontended case: acquisition computes its
// deadline lazily (no clock read unless it actually blocks), the write-side
// key canonicalization runs in pooled scratch (no per-call allocation), and
// releases skip the condition-variable broadcast entirely while no acquirer
// is waiting on the shard (per-shard waiter count).
package lockmgr

import (
	"sort"
	"sync"
	"time"

	"github.com/sss-paper/sss/internal/cluster"
	"github.com/sss-paper/sss/internal/wire"
)

// Table is a sharded lock table. The zero value is not usable; call New.
type Table struct {
	shards  []shard
	scratch sync.Pool // *acquireScratch
}

const numShards = 64

type shard struct {
	mu    sync.Mutex
	cond  *sync.Cond
	locks map[string]*lockState
	// waiters counts acquirers parked on cond. Releases broadcast only
	// when it is non-zero, so the uncontended unlock path never pays the
	// wakeup machinery.
	waiters int
	// free recycles lockStates (with their sharers maps) between the
	// release that empties a key and the next acquisition: the uncontended
	// lock/unlock cycle allocates nothing.
	free []*lockState
}

// maxFreeLockStates caps the per-shard lockState free list.
const maxFreeLockStates = 64

type lockState struct {
	// owner is the exclusive holder, zero if none.
	owner wire.TxnID
	// sharers holds the shared owners (absent when owner is set, except
	// transiently never: exclusive excludes shared).
	sharers map[wire.TxnID]struct{}
}

// acquireScratch is the pooled per-call scratch of AcquireAll: the sorted,
// deduplicated key lists and the rollback bookkeeping.
type acquireScratch struct {
	wk, rk, taken, sharedTaken []string
}

// New builds an empty lock table.
func New() *Table {
	t := &Table{shards: make([]shard, numShards)}
	for i := range t.shards {
		s := &t.shards[i]
		s.locks = make(map[string]*lockState)
		s.cond = sync.NewCond(&s.mu)
	}
	t.scratch.New = func() any { return &acquireScratch{} }
	return t
}

func (t *Table) shard(key string) *shard {
	return &t.shards[cluster.KeyHash(key)%numShards]
}

// AcquireAll takes exclusive locks on writeKeys and shared locks on
// readKeys on behalf of txn, waiting up to timeout overall. Keys are
// acquired in sorted order (exclusive first, matching Algorithm 2) to keep
// local lock ordering deterministic; the timeout resolves any remaining
// distributed deadlock. On failure every lock taken by this call is
// released and AcquireAll returns false.
func (t *Table) AcquireAll(txn wire.TxnID, writeKeys, readKeys []string, timeout time.Duration) bool {
	// The overall deadline is computed lazily, on the first acquisition
	// that actually blocks: the uncontended path performs no clock read.
	var deadline time.Time

	// Single-exclusive-key fast path: the dominant transaction shape
	// (every read key re-locked by its write lock) needs no ordering, no
	// canonicalization and no rollback bookkeeping.
	if len(writeKeys) == 1 && readsCovered(readKeys, writeKeys) {
		return t.acquire(txn, writeKeys[0], true, timeout, &deadline)
	}
	if len(writeKeys) == 0 && len(readKeys) == 1 {
		return t.acquire(txn, readKeys[0], false, timeout, &deadline)
	}

	sc := t.scratch.Get().(*acquireScratch)
	defer t.putScratch(sc)

	sc.wk = sortedUniqueInto(sc.wk[:0], writeKeys)
	for _, k := range sc.wk {
		if !t.acquire(txn, k, true, timeout, &deadline) {
			for _, u := range sc.taken {
				t.release(txn, u, true)
			}
			return false
		}
		sc.taken = append(sc.taken, k)
	}

	sc.rk = sortedUniqueInto(sc.rk[:0], readKeys)
	for _, k := range sc.rk {
		if containsSorted(sc.wk, k) {
			continue // exclusive subsumes shared for the same txn
		}
		if !t.acquire(txn, k, false, timeout, &deadline) {
			for _, u := range sc.sharedTaken {
				t.release(txn, u, false)
			}
			for _, u := range sc.taken {
				t.release(txn, u, true)
			}
			return false
		}
		sc.sharedTaken = append(sc.sharedTaken, k)
	}
	return true
}

// putScratch clears and returns sc to the pool.
func (t *Table) putScratch(sc *acquireScratch) {
	sc.wk, sc.rk = sc.wk[:0], sc.rk[:0]
	sc.taken, sc.sharedTaken = sc.taken[:0], sc.sharedTaken[:0]
	t.scratch.Put(sc)
}

// readsCovered reports whether every read key also appears among the write
// keys (small-list linear scan; the caller's lists are transaction key
// sets, a handful of entries).
func readsCovered(readKeys, writeKeys []string) bool {
	for _, r := range readKeys {
		found := false
		for _, w := range writeKeys {
			if r == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// containsSorted reports whether sorted slice keys contains k.
func containsSorted(keys []string, k string) bool {
	i := sort.SearchStrings(keys, k)
	return i < len(keys) && keys[i] == k
}

// ReleaseAll releases txn's exclusive locks on writeKeys and shared locks
// on readKeys. Releasing a lock not held is a no-op, so callers may release
// unconditionally on abort paths.
func (t *Table) ReleaseAll(txn wire.TxnID, writeKeys, readKeys []string) {
	for i, k := range writeKeys {
		if containsPrefix(writeKeys, k, i) {
			continue
		}
		t.release(txn, k, true)
	}
	for i, k := range readKeys {
		if containsPrefix(readKeys, k, i) || containsPrefix(writeKeys, k, len(writeKeys)) {
			continue
		}
		t.release(txn, k, false)
	}
}

// containsPrefix reports whether keys[:n] contains k — the allocation-free
// duplicate guard for ReleaseAll's small lists.
func containsPrefix(keys []string, k string, n int) bool {
	for _, u := range keys[:n] {
		if u == k {
			return true
		}
	}
	return false
}

// ReleaseShared releases only txn's shared locks on readKeys (Algorithm 2,
// Decide at a read-only participant).
func (t *Table) ReleaseShared(txn wire.TxnID, readKeys []string) {
	for _, k := range readKeys {
		t.release(txn, k, false)
	}
}

// acquire grants txn the requested lock on key or waits. deadline is the
// caller's shared overall bound, set from timeout the first time any
// acquisition of the call blocks.
func (t *Table) acquire(txn wire.TxnID, key string, exclusive bool, timeout time.Duration, deadline *time.Time) bool {
	s := t.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		ls := s.locks[key]
		if ls == nil {
			if n := len(s.free); n > 0 {
				ls = s.free[n-1]
				s.free[n-1] = nil
				s.free = s.free[:n-1]
			} else {
				ls = &lockState{}
			}
			s.locks[key] = ls
		}
		if exclusive {
			free := ls.owner.IsZero() && len(ls.sharers) == 0
			if ls.owner == txn {
				return true // re-entrant
			}
			if free {
				ls.owner = txn
				return true
			}
		} else {
			if ls.owner == txn {
				return true // exclusive subsumes shared
			}
			if ls.owner.IsZero() {
				if ls.sharers == nil {
					ls.sharers = make(map[wire.TxnID]struct{})
				}
				ls.sharers[txn] = struct{}{}
				return true
			}
		}
		if deadline.IsZero() {
			*deadline = time.Now().Add(timeout)
		}
		wait := time.Until(*deadline)
		if wait <= 0 {
			return false
		}
		s.waiters++
		waitCond(s.cond, wait)
		s.waiters--
	}
}

func (t *Table) release(txn wire.TxnID, key string, exclusive bool) {
	s := t.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.locks[key]
	if ls == nil {
		return
	}
	changed := false
	if exclusive {
		if ls.owner == txn {
			ls.owner = wire.TxnID{}
			changed = true
		}
	} else if _, held := ls.sharers[txn]; held {
		delete(ls.sharers, txn)
		changed = true
	}
	if ls.owner.IsZero() && len(ls.sharers) == 0 {
		delete(s.locks, key)
		if len(s.free) < maxFreeLockStates {
			s.free = append(s.free, ls) // sharers map kept, already empty
		}
	}
	if changed && s.waiters > 0 {
		s.cond.Broadcast()
	}
}

// WaitUnlocked waits, up to timeout, until no transaction holds key
// exclusively; shared holders are ignored. waited reports whether the key
// was held exclusively on arrival, free whether it was not held
// exclusively on return (false only at the bound). The caller takes no
// lock, so the wait cannot join a deadlock. A free key costs one shard
// lookup, with no clock read and no allocation.
func (t *Table) WaitUnlocked(key string, timeout time.Duration) (waited, free bool) {
	s := t.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	var deadline time.Time
	for {
		ls := s.locks[key]
		if ls == nil || ls.owner.IsZero() {
			return waited, true
		}
		if deadline.IsZero() {
			waited = true
			deadline = time.Now().Add(timeout)
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return waited, false
		}
		s.waiters++
		waitCond(s.cond, wait)
		s.waiters--
	}
}

// Held reports whether any lock is held on key (for tests and debugging).
func (t *Table) Held(key string) bool {
	s := t.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.locks[key]
	return ls != nil && (!ls.owner.IsZero() || len(ls.sharers) > 0)
}

// waitCond waits on cond with a timeout, using a helper goroutine-free
// timer broadcast. The caller must hold cond.L.
func waitCond(cond *sync.Cond, d time.Duration) {
	timer := time.AfterFunc(d, cond.Broadcast)
	cond.Wait()
	timer.Stop()
}

// sortedUniqueInto appends the sorted, deduplicated contents of keys to dst
// (normally pooled scratch with spare capacity) and returns it.
func sortedUniqueInto(dst, keys []string) []string {
	if len(keys) == 0 {
		return dst
	}
	base := len(dst)
	dst = append(dst, keys...)
	out := dst[base:]
	sort.Strings(out)
	j := 0
	for i := 1; i < len(out); i++ {
		if out[i] != out[j] {
			j++
			out[j] = out[i]
		}
	}
	return dst[:base+j+1]
}
