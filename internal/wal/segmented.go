// Package wal implements the append-only write-ahead logging layer of
// the quantum database (§4 "Recovery" of the paper): the pending-
// transactions table is realized as pending/tombstone record pairs, and
// base writes are logged so the extensional store can be rebuilt from
// the initial database.
//
// The log is a SegmentedLog: N partition-affine segment files,
// batch-framed commit units stamped with a monotone global sequence
// number, per-segment group commit (concurrent synchronous appenders
// share one fsync), and recovery that merges every segment back into a
// single sequence-ordered replay stream while tolerating a torn tail per
// segment.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// This file implements the engine's production logging layer: a
// SegmentedLog of N partition-affine segment files. Each append is a
// BATCH — every record of one logical commit unit (a grounding's facts
// plus its tombstone, one pending-transaction record, one blind write) in
// a single CRC-framed frame stamped with a monotone global sequence
// number, so a torn write can never split a commit unit and recovery can
// merge all segments back into one totally-ordered replay stream.
//
// Concurrency model: the sequence counter is a global atomic; everything
// else is per segment. Appenders whose affinity keys map to different
// segments share no lock and no fsync stream — that is the point: under
// the quantum engine, groundings of disjoint partitions no longer
// serialize on a single log mutex. Within a segment, synchronous
// appenders GROUP COMMIT: whoever finds no fsync in flight becomes the
// leader, flushes the buffer, and fsyncs once for every batch buffered so
// far; appenders that arrive mid-fsync wait for the next round. A batch
// is acknowledged only after a sync covering it completes.

// Record is one logged entry: an opaque payload plus a record type chosen
// by the caller.
type Record struct {
	Type    uint8
	Payload []byte
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped by batch-decoding errors caused by a torn or
// corrupted frame body.
var ErrCorrupt = errors.New("wal: corrupt record")

// segMagic identifies a segment file; it doubles as a format version so
// a log in the retired single-file format (bare CRC frames, no header)
// is never misparsed as a segment. Version 2 added the replication term to every frame body;
// version-1 files are refused (bad magic) rather than misread, because a
// v1 body's record count would be parsed as the low bytes of a term.
const segMagic = "QDBWSEG2"

// Batch is one replayed commit unit: the records appended together by a
// single AppendBatch call, with the global sequence number and the
// replication term they were stamped with. The term is the fencing
// token of leader failover: a batch logged under term T was appended by
// the leader of term T, and replicas refuse batches from terms below
// the highest they have observed (ErrStaleTerm).
type Batch struct {
	Seq     uint64
	Term    uint64
	Records []Record
}

// SegStats is a snapshot of a SegmentedLog's activity counters, used by
// benchmarks and structural tests to prove appends actually spread across
// segments and synchronous appenders actually shared fsyncs.
type SegStats struct {
	// Segments is the configured segment count.
	Segments int
	// Appends[i] counts batches appended to segment i.
	Appends []uint64
	// Syncs[i] counts fsyncs issued on segment i.
	Syncs []uint64
	// GroupCommits counts batches acknowledged by an fsync they did not
	// lead — the group-commit piggyback count. With SyncOnAppend set,
	// sum(Appends) == sum(Syncs) + GroupCommits.
	GroupCommits uint64
}

// Hooks are crash-injection points for the durability test harness. Each
// hook may return an error, which AppendBatch propagates as if the write
// failed at that point; the engine then behaves exactly as it would on a
// real log failure, and the test "crashes" the instance by abandoning it.
// Nil hooks cost one nil check. Not for production use.
type Hooks struct {
	// AfterAppend fires after the batch is buffered (counted as the Nth
	// append overall) but before any flush or sync.
	AfterAppend func(seq uint64) error
	// AfterSync fires after the fsync covering the batch completed, before
	// the append is acknowledged to the caller.
	AfterSync func(seq uint64) error
}

// SegmentedLog is an append-only batch log sharded over N segment files
// (<path>.0 … <path>.N-1). Safe for concurrent use.
type SegmentedLog struct {
	path string
	segs []*segment
	// seq is the global batch sequence counter; the next batch gets
	// seq.Add(1), so sequence numbers start at 1 and 0 never names a
	// batch.
	seq atomic.Uint64
	// truncatedBelow is the highest sequence number any truncation may
	// have removed from the files: raised to the cut at the START of
	// TruncateBefore and to Seq() at the start of Truncate, before any
	// file is touched. ReadFrom checks it before and after scanning, so a
	// streaming reader whose resume point falls below it learns its tail
	// is gone (ErrTruncated) instead of silently skipping batches a
	// concurrent rewrite deleted mid-scan.
	truncatedBelow atomic.Uint64
	// term stamps every appended batch; fence is the minimum term still
	// allowed to append. They advance together through SetTerm/Position
	// (a legitimate term adoption), but Fence raises only the fence: the
	// whole log is then poisoned for appends — the deposed leader's own
	// stamp stays below the fence, so every in-flight mutation that
	// reaches AppendBatch after demotion is refused with ErrStaleTerm
	// instead of committing behind the new leader's back.
	term  atomic.Uint64
	fence atomic.Uint64
	// waitMu/waitCh implement WaitForSeq's append notification; hasWaiter
	// keeps the append fast path at one atomic load when nobody is
	// long-polling.
	waitMu    sync.Mutex
	waitCh    chan struct{}
	hasWaiter atomic.Bool
	// SyncOnAppend makes AppendBatch acknowledge a batch only after an
	// fsync covering it (group commit). Set once after Open, before use.
	SyncOnAppend bool
	// Hooks inject failures for crash tests; see Hooks.
	Hooks Hooks

	// Optional instrumentation, set once after Open, before use (all
	// nil-safe when unwired): AppendHist times whole AppendBatch calls —
	// with SyncOnAppend that includes the group-commit wait, i.e. the
	// durability latency a committer actually experiences; SyncHist times
	// individual flush+fsync rounds; BatchBytes records encoded frame
	// sizes.
	AppendHist *telemetry.Histogram
	SyncHist   *telemetry.Histogram
	BatchBytes *telemetry.Histogram

	groupCommits atomic.Uint64
}

// segment is one log file with its own lock, buffer, and sync state.
type segment struct {
	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File
	w    *bufio.Writer
	path string
	// scratch is the frame-encoding buffer, reused under mu.
	scratch []byte
	// appends numbers the batches buffered into this segment; it is the
	// sync "ticket": a batch with ticket t is durable once synced >= t.
	// synced advances ONLY on successful sync rounds, so `synced >=
	// ticket` is a durability proof — a batch covered by a failed round
	// observes the poisoned segment instead, never a stale success.
	appends uint64
	synced  uint64
	syncing bool
	syncs   uint64
	// failed latches the first write or sync error: a partially-written
	// frame would poison everything after it in the file (replay stops at
	// the first bad frame), and a failed fsync leaves the durable prefix
	// unknowable, so the segment refuses further appends rather than risk
	// silently losing acknowledged batches behind a torn middle.
	failed error
}

// OpenSegmented opens (creating as needed) a segmented log of n segment
// files rooted at path. Existing segments are scanned so the global
// sequence counter resumes past every batch already on disk — including
// batches in segments beyond n left over from a run with a larger
// segment count (replay still reads them; Truncate removes them).
func OpenSegmented(path string, n int) (*SegmentedLog, error) {
	if n < 1 {
		n = 1
	}
	if err := rejectLegacy(path); err != nil {
		return nil, err
	}
	l := &SegmentedLog{path: path}
	maxSeq, maxTerm, err := maxSegmentSeq(path)
	if err != nil {
		return nil, err
	}
	l.seq.Store(maxSeq)
	// Resume at the highest term on disk: a recovered leader keeps its
	// term (the fence rises with it — a reopen is not a demotion).
	l.term.Store(maxTerm)
	l.fence.Store(maxTerm)
	for i := 0; i < n; i++ {
		s, err := openSegment(segmentPath(path, i))
		if err != nil {
			for _, open := range l.segs {
				open.f.Close()
			}
			return nil, err
		}
		l.segs = append(l.segs, s)
	}
	// Durably record the segment files' EXISTENCE: fsyncing a file's data
	// does not persist its directory entry, so without a parent-directory
	// sync a machine crash can make a fully-synced segment vanish — and
	// ReadAll would silently treat it as empty. Once per open suffices:
	// the files exist for the life of the log (Truncate empties, never
	// unlinks, the configured segments).
	if err := syncDir(filepath.Dir(path)); err != nil {
		for _, open := range l.segs {
			open.f.Close()
		}
		return nil, err
	}
	return l, nil
}

// syncDir fsyncs a directory so entries created in it survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

func segmentPath(path string, i int) string {
	return fmt.Sprintf("%s.%d", path, i)
}

func openSegment(path string) (*segment, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat segment: %w", err)
	}
	if st.Size() >= int64(len(segMagic)) {
		var magic [len(segMagic)]byte
		if _, err := f.ReadAt(magic[:], 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: read segment header: %w", err)
		}
		if string(magic[:]) != segMagic {
			f.Close()
			return nil, fmt.Errorf("wal: %s is not a segment file (bad magic)", path)
		}
	}
	s := &segment{f: f, w: bufio.NewWriter(f), path: path}
	s.cond = sync.NewCond(&s.mu)
	if st.Size() < int64(len(segMagic)) {
		// Empty (or torn-during-creation) segment: (re)write the header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: init segment: %w", err)
		}
		if _, err := s.w.WriteString(segMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: init segment: %w", err)
		}
		if err := s.w.Flush(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: init segment: %w", err)
		}
	}
	return s, nil
}

// AppendBatch appends recs as one atomic commit unit to the segment
// chosen by the affinity key (callers pass their partition ID, so a
// partition's batches always land on one segment in order). It returns
// the batch's global sequence number. With SyncOnAppend set the call
// returns only after an fsync covering the batch (group commit);
// otherwise the buffer is flushed to the OS but not synced.
func (l *SegmentedLog) AppendBatch(affinity int64, recs []Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	start := time.Now()
	s := l.segs[uint64(affinity)%uint64(len(l.segs))]
	s.mu.Lock()
	if s.f == nil {
		s.mu.Unlock()
		return 0, errors.New("wal: append to closed log")
	}
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return 0, fmt.Errorf("wal: segment failed by earlier error: %w", err)
	}
	term := l.term.Load()
	if f := l.fence.Load(); f > term {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w (term %d, fenced at %d)", ErrStaleTerm, term, f)
	}
	seq := l.seq.Add(1)
	s.scratch = appendBatchFrame(s.scratch[:0], seq, term, recs)
	l.BatchBytes.Record(int64(len(s.scratch)))
	if _, err := s.w.Write(s.scratch); err != nil {
		s.failed = err
		s.mu.Unlock()
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	s.appends++
	ticket := s.appends
	if h := l.Hooks.AfterAppend; h != nil {
		if err := h(seq); err != nil {
			s.mu.Unlock()
			return 0, err
		}
	}
	if !l.SyncOnAppend {
		// Flush per append (the OS has the bytes; a process crash loses
		// nothing, a machine crash may lose the unsynced tail).
		if err := s.w.Flush(); err != nil {
			s.failed = err
			s.mu.Unlock()
			return 0, fmt.Errorf("wal: flush: %w", err)
		}
		s.mu.Unlock()
		l.wakeWaiters()
		l.AppendHist.Observe(time.Since(start))
		return seq, nil
	}
	if err := s.groupSync(l, ticket); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	if h := l.Hooks.AfterSync; h != nil {
		if err := h(seq); err != nil {
			s.mu.Unlock()
			return 0, err
		}
	}
	s.mu.Unlock()
	l.wakeWaiters()
	l.AppendHist.Observe(time.Since(start))
	return seq, nil
}

// ErrStaleTerm reports an append refused by the fence: the log's stamp
// term has been overtaken by a newer leader's term, so this instance
// must not commit anything further — its acknowledged history up to the
// fence point is exactly what the new leader replicated.
var ErrStaleTerm = errors.New("wal: append refused: replication term superseded by a newer leader")

// Term reports the term new appends are stamped with.
func (l *SegmentedLog) Term() uint64 { return l.term.Load() }

// FencedTerm reports the highest term this log has been fenced at (equal
// to Term unless a Fence demoted the log's owner).
func (l *SegmentedLog) FencedTerm() uint64 { return l.fence.Load() }

// SetTerm adopts a higher replication term as this log's own: the stamp
// and the fence rise together, so appends continue under the new term.
// Terms are monotone; a lower t is a no-op.
func (l *SegmentedLog) SetTerm(t uint64) {
	raiseSeqWatermark(&l.term, t)
	raiseSeqWatermark(&l.fence, t)
}

// Fence raises only the fence: if t exceeds the log's own term, every
// subsequent AppendBatch fails with ErrStaleTerm until SetTerm adopts a
// term at or above the fence. This is the demotion primitive — fencing a
// deposed leader's log refuses its in-flight mutations at the last
// possible moment before durability, with no cooperation needed from
// the code paths above it.
func (l *SegmentedLog) Fence(t uint64) {
	raiseSeqWatermark(&l.fence, t)
}

// Position initializes an empty log at a promotion point: the sequence
// counter resumes at seq (the promoted replica's applied watermark), the
// truncation watermark is raised to match — a subscriber resuming below
// it is told its tail is gone (ErrTruncated) and re-bootstraps from the
// new leader's image, which is the only place pre-promotion history
// lives — and the log adopts term. It refuses a log that already holds
// batches: positioning is for the fresh WAL a promotion opens, never for
// rewriting history.
func (l *SegmentedLog) Position(seq, term uint64) error {
	if got := l.seq.Load(); got != 0 {
		return fmt.Errorf("wal: Position on a non-empty log (seq %d)", got)
	}
	l.seq.Store(seq)
	raiseSeqWatermark(&l.truncatedBelow, seq)
	l.SetTerm(term)
	return nil
}

// WaitForSeq blocks until the log's sequence counter exceeds `above` or
// timeout elapses, returning the current sequence either way — the
// long-poll primitive behind push-style log shipping: a pull request
// parks here instead of making the follower poll, so replication lag
// loses its poll-interval floor. Waiters cost appenders one atomic load
// until one actually parks.
func (l *SegmentedLog) WaitForSeq(above uint64, timeout time.Duration) uint64 {
	deadline := time.Now().Add(timeout)
	for {
		if s := l.seq.Load(); s > above {
			return s
		}
		l.waitMu.Lock()
		if l.waitCh == nil {
			l.waitCh = make(chan struct{})
		}
		ch := l.waitCh
		l.hasWaiter.Store(true)
		l.waitMu.Unlock()
		// Recheck after registering: an append between the first check and
		// registration would have found hasWaiter unset and not signaled.
		if s := l.seq.Load(); s > above {
			return s
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return l.seq.Load()
		}
		t := time.NewTimer(remaining)
		select {
		case <-ch:
		case <-t.C:
		}
		t.Stop()
	}
}

// wakeWaiters releases every WaitForSeq parked on the current channel.
func (l *SegmentedLog) wakeWaiters() {
	if !l.hasWaiter.Load() {
		return
	}
	l.waitMu.Lock()
	if l.waitCh != nil {
		close(l.waitCh)
		l.waitCh = nil
	}
	l.hasWaiter.Store(false)
	l.waitMu.Unlock()
}

// groupSync blocks until a successful fsync covers ticket, leading the
// sync round itself when none is in flight. Caller holds s.mu; the fsync
// itself runs with the lock released so other appenders keep buffering
// into the segment meanwhile — those batches ride the NEXT round, whose
// leader is whichever of them wakes first.
//
// Error attribution is exact: the watermark advances only on successful
// rounds, so a batch whose covering round succeeded can never observe a
// later round's failure, and a batch whose round failed sees the
// poisoned segment (its durability is unknowable) rather than a stale
// success.
func (s *segment) groupSync(l *SegmentedLog, ticket uint64) error {
	for {
		if s.synced >= ticket {
			return nil
		}
		if s.failed != nil {
			return fmt.Errorf("wal: sync: %w", s.failed)
		}
		if s.syncing {
			// Another appender is mid-fsync; our batch was buffered after
			// its flush, so we wait for the next round — this wait IS the
			// group-commit piggyback when the next leader's flush covers us.
			s.cond.Wait()
			continue
		}
		s.syncing = true
		roundStart := time.Now()
		err := s.w.Flush()
		covered := s.appends
		if err == nil {
			s.mu.Unlock()
			err = s.f.Sync()
			s.mu.Lock()
		}
		l.SyncHist.Observe(time.Since(roundStart))
		s.syncing = false
		s.syncs++
		if err != nil {
			// A failed flush/fsync leaves the durable prefix unknowable
			// (write-back pages may have been dropped); poison the segment
			// and wake every waiter to observe it.
			s.failed = err
			s.cond.Broadcast()
			return fmt.Errorf("wal: sync: %w", err)
		}
		if prev := s.synced; covered > prev {
			// Monotone: an explicit Sync() racing this round may already
			// have advanced the watermark past our flush point.
			s.synced = covered
			if covered > prev+1 {
				l.groupCommits.Add(covered - prev - 1)
			}
		}
		s.cond.Broadcast()
	}
}

// Sync flushes and fsyncs every segment.
func (l *SegmentedLog) Sync() error {
	for _, s := range l.segs {
		s.mu.Lock()
		if s.f == nil {
			s.mu.Unlock()
			return errors.New("wal: sync on closed log")
		}
		if s.failed != nil {
			// Stay poisoned: after a failed flush/fsync the durable prefix
			// is unknowable, and a "successful" retry here would let the
			// watermark advance past batches that may already be lost.
			err := s.failed
			s.mu.Unlock()
			return fmt.Errorf("wal: sync: %w", err)
		}
		roundStart := time.Now()
		err := s.w.Flush()
		if err == nil {
			err = s.f.Sync()
			s.syncs++
		}
		l.SyncHist.Observe(time.Since(roundStart))
		if err != nil {
			// Do NOT advance the watermark: a group-commit waiter
			// acknowledged off a failed sync would treat a non-durable
			// batch as committed. Poison the segment and wake waiters to
			// observe it.
			s.failed = err
			s.cond.Broadcast()
			s.mu.Unlock()
			return err
		}
		if s.appends > s.synced {
			s.synced = s.appends
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	return nil
}

// Close flushes, fsyncs, and closes every segment: a clean shutdown must
// leave every acknowledged batch durable even when SyncOnAppend was off
// (buffered bytes are in the OS cache at best, and the process is about
// to stop being the thing that could flush them). Safe to call twice.
func (l *SegmentedLog) Close() error {
	var first error
	for _, s := range l.segs {
		s.mu.Lock()
		if s.f == nil {
			s.mu.Unlock()
			continue
		}
		err := s.w.Flush()
		if err == nil {
			err = s.f.Sync()
		}
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
		s.mu.Unlock()
		if first == nil {
			first = err
		}
	}
	return first
}

// Abandon closes the segment file descriptors WITHOUT flushing or
// syncing, simulating a crash for the durability test harness: buffered
// but unacknowledged bytes are dropped exactly as a killed process would
// drop them.
func (l *SegmentedLog) Abandon() {
	for _, s := range l.segs {
		s.mu.Lock()
		if s.f != nil {
			s.f.Close()
			s.f = nil
		}
		s.mu.Unlock()
	}
}

// Truncate discards every batch: the configured segments are reset to
// empty (header only) and leftover segment files beyond the configured
// count — from a previous run with more segments — are deleted. Used
// after a checkpoint has made the logged state redundant. The sequence
// counter is NOT reset; it is monotone for the life of the log.
//
// Truncate also UN-POISONS failed segments: buffered bytes are
// deliberately discarded (never flushed — the writer may hold a latched
// error and half a frame), the file is cut back to its header, and the
// segment accepts appends again. This is the "a checkpoint closes it"
// escape hatch — after an I/O failure the checkpoint captures the true
// state and the emptied log is consistent with it by construction.
func (l *SegmentedLog) Truncate() error {
	raiseSeqWatermark(&l.truncatedBelow, l.seq.Load())
	for _, s := range l.segs {
		s.mu.Lock()
		if s.f == nil {
			s.mu.Unlock()
			return errors.New("wal: truncate on closed log")
		}
		err := s.f.Truncate(int64(len(segMagic)))
		if err == nil {
			_, err = s.f.Seek(0, io.SeekEnd)
		}
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("wal: truncate: %w", err)
		}
		s.w.Reset(s.f)
		s.failed = nil
		// No batch is buffered or unsynced anymore; close the ticket gap
		// so nothing can mistake pre-truncate tickets for pending work.
		s.synced = s.appends
		s.mu.Unlock()
	}
	paths, err := segmentPaths(l.path)
	if err != nil {
		return err
	}
	for _, p := range paths {
		if p.index >= len(l.segs) {
			if err := os.Remove(p.path); err != nil {
				return fmt.Errorf("wal: truncate stale segment: %w", err)
			}
		}
	}
	return nil
}

// Seq returns the most recently assigned batch sequence number (0 when
// no batch was ever appended to this log's files). With every appender
// excluded — as under the engine's checkpoint cut — it names an exact
// log boundary: every batch on disk has Seq <= Seq() and every future
// batch will be stamped above it.
func (l *SegmentedLog) Seq() uint64 { return l.seq.Load() }

// ErrTruncated reports that a streaming read's resume point has fallen
// below a truncation cut: batches the reader has not yet seen may have
// been removed from the files, so tailing cannot continue losslessly.
// Log-shipping subscribers handle it by re-bootstrapping from a
// checkpoint image instead of the log.
var ErrTruncated = errors.New("wal: tail truncated below the requested sequence number")

// raiseSeqWatermark lifts an atomic watermark to at least v.
func raiseSeqWatermark(m *atomic.Uint64, v uint64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ReadFrom returns every batch with sequence number strictly above
// `after`, merged across segments in global sequence order — the
// log-shipping tail read. It is safe to call concurrently with
// appenders and with TruncateBefore:
//
//   - The read is a consistent cut at S = Seq() sampled on entry: only
//     batches with seq <= S are returned, and every acknowledged batch
//     with after < seq <= S IS returned. Any such sequence number was
//     assigned under its segment's lock and buffered before that lock
//     was released, so the per-segment flush ReadFrom performs before
//     scanning makes it file-visible. Batches appended after entry
//     (seq > S) are simply left for the next poll, whatever partial
//     file state the scan observes of them.
//   - A truncation whose cut is at or below `after` is invisible: it
//     only removes batches the caller already consumed. A truncation
//     racing past `after` returns ErrTruncated (checked before AND
//     after the scan), telling the subscriber its resume point is gone
//     and it must re-bootstrap from a checkpoint.
//
// Sequence numbers are not dense — a failed append burns its number —
// so callers must advance their resume point to the highest sequence
// returned, never by arithmetic. Each call rescans the segment files
// from the start; that keeps the reader stateless against rewrites, and
// stays cheap because checkpoints continually truncate the scanned
// prefix.
func (l *SegmentedLog) ReadFrom(after uint64) ([]Batch, error) {
	if tb := l.truncatedBelow.Load(); tb > after {
		return nil, fmt.Errorf("%w (resume %d, truncated through %d)", ErrTruncated, after, tb)
	}
	high := l.seq.Load()
	if high <= after {
		return nil, nil
	}
	// Flush every healthy segment so each batch with seq <= high is
	// file-visible. Poisoned segments are skipped: their buffer may end
	// in a torn frame, and every batch acknowledged before the poison
	// was already flushed by its own append or group-commit round.
	for _, s := range l.segs {
		s.mu.Lock()
		if s.f == nil {
			s.mu.Unlock()
			return nil, errors.New("wal: read from closed log")
		}
		if s.failed == nil && s.w.Buffered() > 0 {
			if err := s.w.Flush(); err != nil {
				s.failed = err
				s.cond.Broadcast()
				s.mu.Unlock()
				return nil, fmt.Errorf("wal: read flush: %w", err)
			}
		}
		s.mu.Unlock()
	}
	paths, err := segmentPaths(l.path)
	if err != nil {
		return nil, err
	}
	var out []Batch
	for _, p := range paths {
		var ferr error
		if err := scanSegment(p.path, func(body []byte) bool {
			seq := binary.LittleEndian.Uint64(body)
			if seq <= after || seq > high {
				return true
			}
			b, err := decodeBatchBody(body)
			if err != nil {
				ferr = err
				return false
			}
			out = append(out, b)
			return true
		}); err != nil {
			return nil, err
		}
		if ferr != nil {
			return nil, fmt.Errorf("wal: read segment %s: %w", p.path, ferr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if tb := l.truncatedBelow.Load(); tb > after {
		// A truncation raced the scan and may have removed frames in
		// (after, tb] before we reached them; the partial result cannot be
		// trusted to be gap-free.
		return nil, fmt.Errorf("%w (resume %d, truncated through %d)", ErrTruncated, after, tb)
	}
	return out, nil
}

// TruncateBefore discards every batch with sequence number <= cut and
// keeps the tail above it. Unlike Truncate it is safe to call while
// appenders are running: the engine's fuzzy checkpoint stamps its
// consistent cut with Seq(), releases its locks, and then truncates the
// now-redundant prefix concurrently with new appends (which all carry
// sequence numbers above the cut). Each segment file is rewritten —
// temp file, fsync, rename, parent-directory fsync — under its segment
// lock, so appenders to that segment stall only for one rewrite of its
// surviving tail; other segments proceed. Leftover segment files beyond
// the configured count are filtered the same way and deleted when
// nothing in them survives.
//
// Poisoned segments are un-poisoned like Truncate, with one exception:
// if flushing a healthy segment's buffer fails here, the segment is
// left poisoned — group-commit waiters buffered behind the failed flush
// cannot be acknowledged off a rewrite that may have dropped their
// frames.
func (l *SegmentedLog) TruncateBefore(cut uint64) error {
	raiseSeqWatermark(&l.truncatedBelow, cut)
	for _, s := range l.segs {
		if err := s.truncateBefore(cut); err != nil {
			return err
		}
	}
	paths, err := segmentPaths(l.path)
	if err != nil {
		return err
	}
	removed := false
	for _, p := range paths {
		if p.index < len(l.segs) {
			continue
		}
		kept, err := filterSegmentFile(p.path, cut)
		if err != nil {
			return fmt.Errorf("wal: truncate stale segment: %w", err)
		}
		if kept == 0 {
			if err := os.Remove(p.path); err != nil {
				return fmt.Errorf("wal: truncate stale segment: %w", err)
			}
			removed = true
		}
	}
	if removed {
		return syncDir(filepath.Dir(l.path))
	}
	return nil
}

func (s *segment) truncateBefore(cut uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("wal: truncate on closed log")
	}
	// Let any in-flight group-commit round finish first: its waiters must
	// be acknowledged against the round's own flush-and-fsync, not against
	// a rewrite that swapped the file out from under it.
	for s.syncing {
		s.cond.Wait()
		if s.f == nil {
			return errors.New("wal: truncate on closed log")
		}
	}
	if s.failed == nil {
		if err := s.w.Flush(); err != nil {
			// The buffer may have landed partially; a waiter's frame could be
			// the torn one and the rewrite would silently drop it. Poison the
			// segment so those waiters error out instead of being
			// acknowledged; a full Truncate (or reopen) clears it.
			s.failed = err
			s.cond.Broadcast()
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	if _, err := filterSegmentFile(s.path, cut); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncate: reopen: %w", err)
	}
	s.f.Close()
	s.f = f
	s.w.Reset(s.f)
	s.failed = nil
	// Every surviving frame was fsynced by the rewrite, and every frame a
	// live waiter could hold a ticket for survived (its sequence number is
	// above the cut and its bytes were flushed above); close the ticket
	// gap so those waiters acknowledge.
	s.synced = s.appends
	s.cond.Broadcast()
	return nil
}

// filterSegmentFile atomically rewrites the segment at path keeping
// only intact frames with sequence numbers above cut (temp file, fsync,
// rename, parent-directory fsync) and reports how many frames survived.
func filterSegmentFile(path string, cut uint64) (kept int, err error) {
	content := []byte(segMagic)
	if err := scanSegment(path, func(body []byte) bool {
		if binary.LittleEndian.Uint64(body) > cut {
			start := len(content)
			content = append(content, 0, 0, 0, 0)
			binary.LittleEndian.PutUint32(content[start:], uint32(len(body)))
			content = append(content, body...)
			content = binary.LittleEndian.AppendUint32(content, crc32.Checksum(body, crcTable))
			kept++
		}
		return true
	}); err != nil {
		return 0, err
	}
	tmp := path + ".rewrite"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	_, err = f.Write(content)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return 0, err
	}
	return kept, nil
}

// Path returns the root path of the log (segment i lives at <path>.<i>).
func (l *SegmentedLog) Path() string { return l.path }

// Segments reports the configured segment count.
func (l *SegmentedLog) Segments() int { return len(l.segs) }

// Stats snapshots the per-segment activity counters.
func (l *SegmentedLog) Stats() SegStats {
	st := SegStats{
		Segments:     len(l.segs),
		Appends:      make([]uint64, len(l.segs)),
		Syncs:        make([]uint64, len(l.segs)),
		GroupCommits: l.groupCommits.Load(),
	}
	for i, s := range l.segs {
		s.mu.Lock()
		st.Appends[i] = s.appends
		st.Syncs[i] = s.syncs
		s.mu.Unlock()
	}
	return st
}

// appendBatchFrame encodes one batch frame into buf:
//
//	4-byte LE body length | body | 4-byte CRC32C(body)
//	body = 8-byte LE seq | 8-byte LE term | uvarint record count | records
//	record = 1-byte type | uvarint payload length | payload
func appendBatchFrame(buf []byte, seq, term uint64, recs []Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length, patched below
	bodyStart := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, term)
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for _, r := range recs {
		buf = append(buf, r.Type)
		buf = binary.AppendUvarint(buf, uint64(len(r.Payload)))
		buf = append(buf, r.Payload...)
	}
	body := buf[bodyStart:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, crcTable))
}

// decodeBatchBody parses a CRC-verified batch body. The returned record
// payloads alias data.
func decodeBatchBody(data []byte) (Batch, error) {
	if len(data) < 16 {
		return Batch{}, fmt.Errorf("%w: short batch body", ErrCorrupt)
	}
	b := Batch{
		Seq:  binary.LittleEndian.Uint64(data),
		Term: binary.LittleEndian.Uint64(data[8:]),
	}
	data = data[16:]
	n, w := binary.Uvarint(data)
	// Every record costs at least two bytes (type + length), so a count
	// beyond the remaining bytes is corrupt. Checking BEFORE the
	// make() below matters: the count is untrusted input, and a
	// bit-flipped huge value must not size an allocation.
	if w <= 0 || n > uint64(len(data)-w) {
		return Batch{}, fmt.Errorf("%w: bad batch record count", ErrCorrupt)
	}
	data = data[w:]
	b.Records = make([]Record, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(data) < 1 {
			return Batch{}, fmt.Errorf("%w: truncated batch record", ErrCorrupt)
		}
		typ := data[0]
		ln, w := binary.Uvarint(data[1:])
		if w <= 0 || uint64(len(data)-1-w) < ln {
			return Batch{}, fmt.Errorf("%w: bad batch record length", ErrCorrupt)
		}
		data = data[1+w:]
		b.Records = append(b.Records, Record{Type: typ, Payload: data[:ln]})
		data = data[ln:]
	}
	if len(data) != 0 {
		return Batch{}, fmt.Errorf("%w: trailing bytes in batch", ErrCorrupt)
	}
	return b, nil
}

// rejectLegacy errors when a non-empty file sits at the log's root path
// itself: segments live at <path>.N, so such a file is almost certainly
// a log written in the retired single-file format. Silently ignoring
// it would make recovery "succeed" with zero batches — every pending
// transaction lost without a word — so opening and replaying both refuse
// until the operator migrates or moves it.
func rejectLegacy(path string) error {
	st, err := os.Stat(path)
	if err != nil || st.IsDir() || st.Size() == 0 {
		return nil // absent or empty: nothing to lose
	}
	return fmt.Errorf("wal: %s is a legacy single-file log (segments live at %s.N); "+
		"refusing to ignore it — replay it with the old build or move it aside", path, path)
}

// segmentRef names one discovered segment file.
type segmentRef struct {
	path  string
	index int
}

// segmentPaths lists every existing segment file of the log rooted at
// path (any numeric suffix, not just the configured count — a recovery
// may run with a different WALSegments than the crashed instance).
func segmentPaths(path string) ([]segmentRef, error) {
	matches, err := filepath.Glob(path + ".*")
	if err != nil {
		return nil, err
	}
	var out []segmentRef
	for _, m := range matches {
		idx, err := strconv.Atoi(m[len(path)+1:])
		if err != nil || idx < 0 {
			continue // not a segment (e.g. a checkpoint named <path>.ckpt)
		}
		out = append(out, segmentRef{path: m, index: idx})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out, nil
}

// ReadAll reads every intact batch from every segment of the log rooted
// at path and returns them merged in global sequence order — the single
// ordered replay stream recovery consumes. A torn tail (a crash mid-
// write, or unsynced bytes the OS dropped) ends that SEGMENT's stream
// without error: everything after the first bad frame of a segment is
// unacknowledged by construction, because a batch is only acknowledged
// once synced and every synced batch sits before any torn bytes in its
// file. Missing files read as empty.
//
// The whole log is materialized and sorted in memory: simple, and
// bounded in practice because checkpoints truncate the log (a k-way
// streaming merge over the per-segment iterators — each segment is
// internally seq-ascending — would cap memory at O(segments) if
// un-checkpointed logs ever need to grow past RAM).
func ReadAll(path string) ([]Batch, error) {
	if err := rejectLegacy(path); err != nil {
		return nil, err
	}
	paths, err := segmentPaths(path)
	if err != nil {
		return nil, err
	}
	var out []Batch
	for _, p := range paths {
		bs, err := readSegment(p.path)
		if err != nil {
			return nil, err
		}
		out = append(out, bs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// maxSegmentSeq scans every existing segment for the highest batch
// sequence number and the highest replication term, so a reopened log
// resumes numbering after everything on disk and keeps its term. Only
// frame headers and CRCs are verified; record payloads are not
// materialized (recovery, which needs them, does its own ReadAll — this
// keeps a plain reopen at half the decode cost of a recovery).
func maxSegmentSeq(path string) (maxSeq, maxTerm uint64, err error) {
	paths, err := segmentPaths(path)
	if err != nil {
		return 0, 0, err
	}
	for _, p := range paths {
		if err := scanSegment(p.path, func(body []byte) bool {
			if seq := binary.LittleEndian.Uint64(body); seq > maxSeq {
				maxSeq = seq
			}
			if term := binary.LittleEndian.Uint64(body[8:]); term > maxTerm {
				maxTerm = term
			}
			return true
		}); err != nil {
			return 0, 0, err
		}
	}
	return maxSeq, maxTerm, nil
}

// readSegment reads one segment's intact batches in file order, stopping
// silently at the first torn or corrupt frame (see ReadAll).
func readSegment(path string) ([]Batch, error) {
	var out []Batch
	err := scanSegment(path, func(body []byte) bool {
		b, err := decodeBatchBody(body)
		if err != nil {
			return false // malformed body despite CRC: treat as torn tail
		}
		out = append(out, b)
		return true
	})
	return out, err
}

// scanSegment walks one segment's CRC-intact frame bodies in file order,
// stopping silently at the first torn or corrupt frame; fn returning
// false also stops the walk. Every delivered body is at least 16 bytes
// (the sequence number and the term).
func scanSegment(path string, fn func(body []byte) bool) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("wal: read segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: read segment: %w", err)
	}
	size := st.Size()
	r := bufio.NewReader(f)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil // shorter than a header: empty (or torn-at-birth)
	}
	if string(magic) != segMagic {
		return fmt.Errorf("wal: %s is not a segment file (bad magic)", path)
	}
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil // clean EOF or torn header: end of segment
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		// The length is untrusted: besides the hard cap, a frame longer
		// than the file itself is necessarily torn, and rejecting it here
		// keeps a corrupted length from sizing a giant doomed allocation.
		if n < 16 || n > 1<<30 || int64(n) > size {
			return nil // implausible length: torn tail
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil
		}
		var crc [4]byte
		if _, err := io.ReadFull(r, crc[:]); err != nil {
			return nil
		}
		if binary.LittleEndian.Uint32(crc[:]) != crc32.Checksum(body, crcTable) {
			return nil
		}
		if !fn(body) {
			return nil
		}
	}
}
