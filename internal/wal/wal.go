// Package wal implements the per-node write-ahead log and checkpoint store
// behind SSS's crash recovery. The log is a sequence of segment files of
// CRC-framed records (see record.go); appends are buffered in memory and
// made durable by Sync, which group-commits: concurrent Sync callers
// coalesce behind one write+fsync, so the fsync amortizes across however
// many commit-path events are in flight.
//
// Durability contract: a record is durable once a Sync that started after
// its Append — or a SyncTo naming the sequence number Append returned — has
// returned. The log is sequential, so durability of record n implies
// durability of every record before it: the engine waits at the points
// classic presumed-abort 2PC requires (remote participant prepare before the
// yes vote, coordinator decision before the decide broadcast, the
// coordinator's freeze record before the client reply) and lets every other
// record ride the next of those fsyncs (the per-record table is in
// docs/ARCHITECTURE.md, "Durability"). A record nobody waits on is still
// durable within maxUnsyncedLag of its Append: the log syncs it itself when
// no neighbour's fsync covered it by then.
//
// On open, the newest segment's tail is scanned and truncated at the first
// frame that is short, oversized, or fails its CRC — a torn tail from a
// crash mid-write. Corruption in older (rotated) segments is not silently
// truncated: replay fails loudly instead, because a completed segment can
// only lose records to media damage, not to a torn write.
//
// A failed write or fsync permanently poisons the log: the error is latched
// and returned by every later Append-visible Sync (and by WriteCheckpoint
// and Close), and no further records are buffered. Anything weaker would be
// unsound twice over — group-commit waiters sharing the failed owner's
// batch would otherwise re-run against an empty buffer and advance the
// durable frontier past records that never reached disk, and a partial
// write can leave a torn frame mid-segment, where any later successful
// append would strand every subsequent record behind the truncation point
// on the next open. A poisoned node must stop accepting durable work.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/sss-paper/sss/internal/metrics"
	"github.com/sss-paper/sss/internal/wire"
)

const (
	segPrefix      = "wal-"
	segSuffix      = ".seg"
	checkpointName = "checkpoint"
	lockName       = "LOCK"

	// frameHeader is [payloadLen uint32 LE][crc32c uint32 LE].
	frameHeader = 8
	// maxFrame bounds one record's payload so a corrupt length field fails
	// loudly instead of driving a giant allocation.
	maxFrame = 64 << 20

	// maxUnsyncedLag bounds how long an appended record waits for an fsync
	// when no caller waits on it. Under load a neighbour's fsync covers it
	// long before, and the lag sync costs nothing; on a quiet node it is
	// what makes an unwaited record durable at all, and a quiet node evicts
	// no coordinator decision an in-doubt peer could still ask for. It is
	// longer than a vote round may last (the engine's default vote timeout
	// is 500 ms), so the one record a commit appends ahead of its first
	// waited fsync — the coordinator's own-leg prepare, covered by the
	// decision fsync — never costs an fsync of its own.
	maxUnsyncedLag = time.Second
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrLocked reports that another live process holds the data directory.
var ErrLocked = errors.New("wal: data directory locked by another process")

// File is the write-side surface the log needs from a segment or checkpoint
// file. *os.File satisfies it; a fault-injecting implementation (see
// fault.go) satisfies it with a lying disk, which is how the chaos harness
// exercises the poison/recovery paths against real processes.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Stat() (os.FileInfo, error)
}

// Options tunes a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 64 MiB). Rotation alone never discards data; only a
	// checkpoint reclaims segments.
	SegmentBytes int64
	// NoSync skips the fsync inside Sync (tests on slow filesystems).
	NoSync bool
	// Stats receives durability counters; nil means a private sink.
	Stats *metrics.Durability
	// OpenFile, when non-nil, opens every segment and checkpoint file the
	// log writes through (reads go straight to the OS — faults are a
	// write-side concern). nil means os.OpenFile. The seam exists for
	// fault injection: see Injector.
	OpenFile func(name string, flag int, perm os.FileMode) (File, error)
}

// openFile applies the Options.OpenFile seam with the os.OpenFile default.
func (o Options) openFile(name string, flag int, perm os.FileMode) (File, error) {
	if o.OpenFile != nil {
		return o.OpenFile(name, flag, perm)
	}
	return os.OpenFile(name, flag, perm)
}

// Log is a per-node write-ahead log rooted at one data directory. All
// methods are safe for concurrent use.
type Log struct {
	dir   string
	opts  Options
	stats *metrics.Durability
	lockF *os.File

	mu        sync.Mutex
	cond      *sync.Cond
	f         File   // active segment
	segSeq    uint64 // active segment's sequence number
	size      int64  // active segment's size on disk
	buf       []byte // encoded frames not yet written
	bufRecs   uint64 // records in buf
	appendSeq uint64 // records appended ever
	syncedSeq uint64 // records made durable
	syncing   bool   // a Sync owner is mid write+fsync
	failed    error  // sticky first write/fsync/rotate error; poisons the log
	closed    bool
	// bufSince is when buf last turned non-empty; lag fires maxUnsyncedLag
	// after it unless a neighbour's sync took the buffer first.
	bufSince time.Time
	lag      *time.Timer
	lagArmed bool
}

// Open opens (or initializes) the write-ahead log in dir. The directory
// must already exist; Open fails with a descriptive error when it is
// missing or unwritable, and with ErrLocked when another live process holds
// its flock. The newest segment's torn tail, if any, is truncated.
func Open(dir string, opts Options) (*Log, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("wal: data directory %s does not exist (create it first)", dir)
		}
		return nil, fmt.Errorf("wal: data directory %s: %w", dir, err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("wal: data path %s is not a directory", dir)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	stats := opts.Stats
	if stats == nil {
		stats = &metrics.Durability{}
	}
	l := &Log{dir: dir, opts: opts, stats: stats}
	l.cond = sync.NewCond(&l.mu)
	l.lag = time.AfterFunc(time.Hour, l.lagSync)
	l.lag.Stop()

	// Exclusive, non-blocking flock: two live servers on one data dir is
	// silent corruption waiting to happen, so the second one must fail fast.
	lockPath := filepath.Join(dir, lockName)
	lockF, err := os.OpenFile(lockPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: data directory %s is not writable: %w", dir, err)
	}
	if err := syscall.Flock(int(lockF.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = lockF.Close()
		return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
	}
	l.lockF = lockF

	segs, err := l.listSegments()
	if err != nil {
		l.release()
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.openSegment(1); err != nil {
			l.release()
			return nil, err
		}
		return l, nil
	}
	// Truncate the newest segment at its first invalid frame (torn tail).
	last := segs[len(segs)-1]
	valid, err := validPrefix(l.segPath(last))
	if err != nil {
		l.release()
		return nil, err
	}
	f, err := opts.openFile(l.segPath(last), os.O_RDWR, 0o644)
	if err != nil {
		l.release()
		return nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			_ = f.Close()
			l.release()
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", l.segPath(last), err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close()
		l.release()
		return nil, err
	}
	l.f, l.segSeq, l.size = f, last, valid
	return l, nil
}

func (l *Log) release() {
	l.lag.Stop()
	if l.lockF != nil {
		_ = syscall.Flock(int(l.lockF.Fd()), syscall.LOCK_UN)
		_ = l.lockF.Close()
		l.lockF = nil
	}
}

// Dir returns the log's data directory.
func (l *Log) Dir() string { return l.dir }

// Stats returns the log's durability counters.
func (l *Log) Stats() *metrics.Durability { return l.stats }

// Err returns the latched failure that poisoned the log, or nil while it is
// healthy. It never syncs: a caller that acts on an unwaited record checks
// only that the node may still vouch for durable work.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

func (l *Log) segPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix))
}

func (l *Log) listSegments() ([]uint64, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", l.dir, err)
	}
	var segs []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, segPrefix+"%016d"+segSuffix, &seq); err != nil {
			continue
		}
		segs = append(segs, seq)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

func (l *Log) openSegment(seq uint64) error {
	f, err := l.opts.openFile(l.segPath(seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.f, l.segSeq, l.size = f, seq, 0
	return nil
}

// validPrefix scans path and returns the byte length of its longest valid
// frame prefix. Anything past it is a torn or corrupt tail.
func validPrefix(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var off int64
	for {
		n, _, err := frameAt(data, off)
		if err != nil {
			return off, nil // invalid frame: the valid prefix ends here
		}
		if n == 0 {
			return off, nil // clean EOF
		}
		off += n
	}
}

// frameAt parses one frame of data at off. It returns the frame's total
// length and payload, (0, nil, nil) at a clean end of data, or an error for
// a short/oversized/corrupt frame.
func frameAt(data []byte, off int64) (int64, []byte, error) {
	rest := data[off:]
	if len(rest) == 0 {
		return 0, nil, nil
	}
	if len(rest) < frameHeader {
		return 0, nil, errors.New("wal: short frame header")
	}
	ln := binary.LittleEndian.Uint32(rest)
	crc := binary.LittleEndian.Uint32(rest[4:])
	if ln == 0 || ln > maxFrame {
		return 0, nil, fmt.Errorf("wal: implausible frame length %d", ln)
	}
	if int64(len(rest)) < frameHeader+int64(ln) {
		return 0, nil, errors.New("wal: short frame payload")
	}
	payload := rest[frameHeader : frameHeader+int64(ln)]
	if crc32.Checksum(payload, crcTable) != crc {
		return 0, nil, errors.New("wal: frame CRC mismatch")
	}
	return frameHeader + int64(ln), payload, nil
}

// appendFrame appends r to buf as one frame: the frameHeader, then the
// payload it describes.
func appendFrame(buf []byte, r *Record) []byte {
	start := len(buf)
	buf = appendPayload(append(buf, make([]byte, frameHeader)...), r)
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// Append buffers one record for the next Sync and returns its sequence
// number, the handle SyncTo waits on. It never blocks on I/O; unwaited, the
// record is durable within maxUnsyncedLag. On a poisoned or closed log the
// record is dropped — the next Sync or SyncTo, or Err, reports the latched
// failure.
func (l *Log) Append(r *Record) uint64 {
	// Encode on a pooled wire buffer so the frame assembly allocates
	// nothing on the steady-state path.
	bp := wire.GetBuf()
	frame := appendFrame((*bp)[:0], r)
	*bp = frame

	l.mu.Lock()
	if l.failed != nil || l.closed {
		seq := l.appendSeq
		l.mu.Unlock()
		wire.PutBuf(bp)
		return seq
	}
	l.buf = append(l.buf, frame...)
	if l.bufRecs == 0 {
		l.bufSince = time.Now()
		l.armLagLocked(maxUnsyncedLag)
	}
	l.bufRecs++
	l.appendSeq++
	seq := l.appendSeq
	l.mu.Unlock()

	wire.PutBuf(bp)
	l.stats.WalAppends.Add(1)
	l.stats.WalBytes.Add(uint64(len(frame) - frameHeader))
	return seq
}

// Sync makes every record appended before this call durable. Concurrent
// callers group-commit: one owner writes and fsyncs the accumulated buffer
// while the rest wait on the same barrier, so the fsync cost amortizes over
// the whole group. Once the log is poisoned Sync always fails — including
// for records a poisoned Append silently dropped.
func (l *Log) Sync() error { return l.SyncTo(math.MaxUint64) }

// SyncTo makes the record Append numbered seq — and, the log being
// sequential, every record before it — durable. It returns at once, without
// an fsync of its own, when a neighbour's fsync already covered seq; a waiter
// whose record an in-flight fsync missed takes the next one. A seq beyond
// the last append means everything appended so far. Failure semantics are
// Sync's.
func (l *Log) SyncTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := min(seq, l.appendSeq)
	for {
		if l.failed != nil {
			return l.failed
		}
		if l.syncedSeq >= target {
			return nil
		}
		if l.closed {
			return errors.New("wal: closed")
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		if err := l.syncOnceLocked(); err != nil {
			return err
		}
	}
}

// armLagLocked schedules the lag sync d from now unless one is pending: a
// pending fire re-arms itself for whatever buffer it finds. Caller holds l.mu.
func (l *Log) armLagLocked(d time.Duration) {
	if !l.lagArmed {
		l.lagArmed = true
		l.lag.Reset(d)
	}
}

// lagSync is the lag timer's body. A neighbour's sync that took the buffer
// since the timer was armed makes it a no-op, or a re-arm for records
// appended after that sync; only a buffer older than maxUnsyncedLag costs an
// fsync of its own.
func (l *Log) lagSync() {
	l.mu.Lock()
	l.lagArmed = false
	if l.bufRecs == 0 || l.failed != nil || l.closed {
		l.mu.Unlock()
		return
	}
	if wait := maxUnsyncedLag - time.Since(l.bufSince); wait > 0 {
		l.armLagLocked(wait)
		l.mu.Unlock()
		return
	}
	seq := l.appendSeq
	l.mu.Unlock()
	_ = l.SyncTo(seq) // a failure is latched for every later caller
}

// syncOnceLocked takes sync ownership, flushes the current buffer outside
// the lock, and publishes the new durable frontier. Caller holds l.mu.
func (l *Log) syncOnceLocked() error {
	l.syncing = true
	buf, recs, seq := l.buf, l.bufRecs, l.appendSeq
	l.buf, l.bufRecs = nil, 0
	f := l.f
	l.mu.Unlock()

	start := time.Now()
	var err error
	if len(buf) > 0 {
		_, err = f.Write(buf)
	}
	if err == nil && !l.opts.NoSync {
		err = f.Sync()
	}
	l.stats.WalSyncs.Add(1)
	if err == nil {
		l.stats.WalSyncedRecords.Add(recs)
	}
	l.stats.SyncLatency.Observe(time.Since(start))

	l.mu.Lock()
	l.syncing = false
	if err != nil {
		// Latch the failure: the moved-aside records are gone without ever
		// being durable, and a partial write may have left a torn frame
		// mid-segment. Neither is recoverable in place — syncedSeq must
		// never advance past the dropped records (a waiter re-running with
		// an empty buffer would otherwise report them durable), and nothing
		// may be appended after a possible torn frame (open-time truncation
		// would discard everything behind it). The sticky error turns every
		// future Append/Sync into the refusal that keeps both invariants.
		l.failed = fmt.Errorf("wal: sync: %w", err)
		l.stats.WalSyncFailures.Add(1)
		l.cond.Broadcast()
		return l.failed
	}
	l.syncedSeq = seq
	l.size += int64(len(buf))
	if l.size >= l.opts.SegmentBytes {
		// The synced records are durable, but a failed close/reopen leaves
		// no usable active segment — poison rather than write into limbo.
		if rerr := l.rotateLocked(); rerr != nil {
			l.failed = rerr
			l.stats.WalSyncFailures.Add(1)
			l.cond.Broadcast()
			return rerr
		}
	}
	l.cond.Broadcast()
	return nil
}

// rotateLocked closes the active segment and starts the next one. Caller
// holds l.mu with no sync in flight.
func (l *Log) rotateLocked() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	return l.openSegment(l.segSeq + 1)
}

// Replay streams every record in every live segment, oldest first, through
// fn. A torn tail was already truncated at Open; any remaining invalid
// frame is corruption in a completed segment and fails loudly.
func (l *Log) Replay(fn func(*Record) error) error {
	if err := l.Sync(); err != nil { // flush so the scan sees everything
		return err
	}
	l.mu.Lock()
	segs, err := l.listSegments()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	for _, seq := range segs {
		if err := replayFile(l.segPath(seq), fn, l.stats); err != nil {
			return fmt.Errorf("wal: segment %d: %w", seq, err)
		}
	}
	return nil
}

func replayFile(path string, fn func(*Record) error, stats *metrics.Durability) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var off int64
	for {
		n, payload, err := frameAt(data, off)
		if err != nil {
			return fmt.Errorf("%w at offset %d", err, off)
		}
		if n == 0 {
			return nil
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return fmt.Errorf("%w at offset %d", err, off)
		}
		if stats != nil {
			stats.ReplayRecords.Add(1)
		}
		if err := fn(rec); err != nil {
			return err
		}
		off += n
	}
}

// WriteCheckpoint cuts a checkpoint: it rotates to a fresh segment, runs
// fill — which both emits checkpoint records (meta, then versions) into the
// checkpoint file and may Append fresh WAL records (e.g. re-logged pending
// prepares) that land in the new segment — then syncs the WAL, atomically
// installs the checkpoint file, and reclaims all segments older than the
// cut. On any error the previous checkpoint, if any, stays installed.
func (l *Log) WriteCheckpoint(fill func(emit func(*Record) error) error) error {
	// The rotation must not race a sync owner mid flush: wait it out, then
	// cut. Records appended after this point land in the new segment and
	// survive reclamation.
	l.mu.Lock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	if l.closed {
		l.mu.Unlock()
		return errors.New("wal: closed")
	}
	if err := l.syncOnceLocked(); err != nil { // drain the buffer into the old segment
		l.mu.Unlock()
		return err
	}
	if err := l.rotateLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	cut := l.segSeq
	l.mu.Unlock()

	tmp := filepath.Join(l.dir, checkpointName+".tmp")
	f, err := l.opts.openFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	defer func() { _ = os.Remove(tmp) }()
	var recs uint64
	var wbuf []byte
	emit := func(r *Record) error {
		wbuf = appendFrame(wbuf[:0], r)
		if _, err := f.Write(wbuf); err != nil {
			return err
		}
		recs++
		return nil
	}
	if err := fill(emit); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: checkpoint fill: %w", err)
	}
	if !l.opts.NoSync {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: checkpoint sync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	// Records fill re-logged into the new segment must be durable before
	// the old segments (holding their previous copies) can go away.
	if err := l.Sync(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, checkpointName)); err != nil {
		return fmt.Errorf("wal: install checkpoint: %w", err)
	}
	if !l.opts.NoSync {
		if d, err := os.Open(l.dir); err == nil {
			_ = d.Sync()
			_ = d.Close()
		}
	}
	l.stats.Checkpoints.Add(1)
	l.stats.CheckpointRecords.Add(recs)

	// Reclaim: every segment strictly older than the cut is covered by the
	// checkpoint plus the re-logged records. A crash before these removals
	// only leaves extra segments; replay dedupes against the checkpoint.
	segs, err := l.listSegments()
	if err != nil {
		return err
	}
	for _, seq := range segs {
		if seq < cut {
			_ = os.Remove(l.segPath(seq))
		}
	}
	return nil
}

// ReplayCheckpoint streams the installed checkpoint's records through fn
// and reports whether a checkpoint existed. Corruption fails loudly: a
// checkpoint is installed atomically, so a bad frame is media damage, not a
// torn write.
func (l *Log) ReplayCheckpoint(fn func(*Record) error) (bool, error) {
	path := filepath.Join(l.dir, checkpointName)
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	if err := replayFile(path, fn, l.stats); err != nil {
		return true, fmt.Errorf("wal: checkpoint: %w", err)
	}
	return true, nil
}

// Close flushes and syncs pending records, closes the active segment, and
// releases the directory lock. A crash-consistent shutdown path should just
// not call it — durability never depends on Close.
func (l *Log) Close() error {
	l.mu.Lock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.failed
	if err == nil {
		err = l.syncOnceLocked()
	}
	l.closed = true
	f := l.f
	l.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	l.release()
	return err
}
