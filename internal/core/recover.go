package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"

	"repro/internal/formula"
	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// WAL record types. The pending-transactions table of §4 is realized as
// the pending/grounded record pairs; base writes are logged so the
// extensional store can be rebuilt from the initial database.
//
// Records travel in BATCHES (wal.SegmentedLog.AppendBatch): one batch is
// one commit unit — a pending record, a blind write's facts, or a
// grounding's facts plus its tombstone — framed and sequence-stamped
// together, so recovery can never observe half a grounding. The engine
// appends and syncs a batch BEFORE applying its effects to the store
// (write-ahead ordering): a crash between log and apply is repaired by
// replay, never by divergence.
const (
	recPending  uint8 = 1 // payload: txn.Marshal
	recGrounded uint8 = 2 // payload: 8-byte big-endian txn ID
	recInsert   uint8 = 3 // payload: encoded GroundFact
	recDelete   uint8 = 4 // payload: encoded GroundFact
	// recAbort compensates a logged batch whose store apply then failed
	// (the fail-closed key-collision path): payload is the 8-byte
	// big-endian sequence number of the batch to skip at replay. Written
	// because the batch hit the log first — without the abort, recovery
	// would execute a grounding the live engine reported as failed.
	recAbort uint8 = 5
)

// batchEnc assembles one commit unit's records over a reusable byte
// arena; payloads are sub-slices of the arena (growing the arena leaves
// already-taken payload slices pointing at the old backing array, whose
// contents stay valid). Pooled: grounding batches are built on the hot
// path, outside any lock.
type batchEnc struct {
	buf  []byte
	recs []wal.Record
}

var batchEncPool = sync.Pool{New: func() any { return &batchEnc{} }}

func getBatchEnc() *batchEnc {
	e := batchEncPool.Get().(*batchEnc)
	e.buf, e.recs = e.buf[:0], e.recs[:0]
	return e
}

func (e *batchEnc) addFact(typ uint8, f relstore.GroundFact) {
	start := len(e.buf)
	e.buf = appendFact(e.buf, f)
	e.recs = append(e.recs, wal.Record{Type: typ, Payload: e.buf[start:]})
}

func (e *batchEnc) addID(typ uint8, id uint64) {
	start := len(e.buf)
	e.buf = binary.BigEndian.AppendUint64(e.buf, id)
	e.recs = append(e.recs, wal.Record{Type: typ, Payload: e.buf[start:]})
}

func (e *batchEnc) addFacts(inserts, deletes []relstore.GroundFact) {
	for _, f := range deletes {
		e.addFact(recDelete, f)
	}
	for _, f := range inserts {
		e.addFact(recInsert, f)
	}
}

// logPendingBatch durably records admitted transactions as ONE WAL
// batch — one append, one group-commit fsync — BEFORE any of them is
// installed: the §4 invariant wants the pending-transactions table ahead
// of any visible effect. affinity routes the batch to the partition's
// segment. Recovery and follower replay iterate every record of a batch,
// so a multi-record pending batch replays exactly like the equivalent
// sequence of single appends.
func (q *QDB) logPendingBatch(affinity int64, ts []*txn.T) error {
	if q.log == nil {
		return nil
	}
	e := getBatchEnc()
	defer batchEncPool.Put(e)
	for _, t := range ts {
		data, err := t.Marshal()
		if err != nil {
			return err
		}
		start := len(e.buf)
		e.buf = append(e.buf, data...)
		e.recs = append(e.recs, wal.Record{Type: recPending, Payload: e.buf[start:]})
	}
	_, err := q.log.AppendBatch(affinity, e.recs)
	return q.noteStaleTerm(err)
}

// logGrounding appends one grounding's whole commit unit — fact records
// plus the tombstone — as a single batch, returning its sequence number
// (0 with no log). Called BEFORE the grounding is applied to the store;
// with SyncWAL the call group-commits, so concurrent groundings of
// partitions on different segments fsync independently and groundings
// sharing a segment share one fsync.
func (q *QDB) logGrounding(affinity int64, g formula.Grounding) (uint64, error) {
	if q.log == nil {
		return 0, nil
	}
	e := getBatchEnc()
	defer batchEncPool.Put(e)
	e.addFacts(g.Inserts, g.Deletes)
	e.addID(recGrounded, uint64(g.Txn.ID))
	seq, err := q.log.AppendBatch(affinity, e.recs)
	return seq, q.noteStaleTerm(err)
}

// logWrite appends a blind write's facts as one batch, before they are
// applied.
func (q *QDB) logWrite(inserts, deletes []relstore.GroundFact) (uint64, error) {
	if q.log == nil {
		return 0, nil
	}
	e := getBatchEnc()
	defer batchEncPool.Put(e)
	e.addFacts(inserts, deletes)
	seq, err := q.log.AppendBatch(0, e.recs)
	return seq, q.noteStaleTerm(err)
}

// logAbort compensates the batch with the given sequence number after
// its apply failed; replay skips aborted batches entirely. A failing
// abort append is reported loudly: the log now claims a commit the store
// rejected, which only a checkpoint can expunge. The same caveat applies
// to a CRASH between the batch's sync and the abort's — compensation
// records are not crash-atomic with their targets (the classic CLR
// window) — in which case recovery replays the batch as committed, with
// the colliding facts absorbed by the idempotent redo; the window
// requires an apply-time key collision AND a crash inside this call, and
// a checkpoint closes it.
func (q *QDB) logAbort(affinity int64, seq uint64) error {
	if q.log == nil || seq == 0 {
		return nil
	}
	e := getBatchEnc()
	defer batchEncPool.Put(e)
	e.addID(recAbort, seq)
	if _, err := q.log.AppendBatch(affinity, e.recs); err != nil {
		return fmt.Errorf("core: compensating aborted batch %d: %w", seq, q.noteStaleTerm(err))
	}
	return nil
}

// noteStaleTerm counts WAL appends refused because the engine's
// replication term was fenced by a newer leader (the demoted-leader
// poison path); passes err through either way.
func (q *QDB) noteStaleTerm(err error) error {
	if errors.Is(err, wal.ErrStaleTerm) {
		q.stats.staleTermRefusals.Add(1)
	}
	return err
}

// crashApplyPoint is the durability test harness's fault injection point
// between a batch's WAL sync and its store apply; nil in production.
func (q *QDB) crashApplyPoint() error {
	if q.testCrashApply != nil {
		return q.testCrashApply()
	}
	return nil
}

// appendFact serializes rel name (uvarint length + bytes), arity, values
// into buf, AppendBinary-style.
func appendFact(buf []byte, f relstore.GroundFact) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(f.Rel)))
	buf = append(buf, f.Rel...)
	buf = binary.AppendUvarint(buf, uint64(len(f.Tuple)))
	for _, v := range f.Tuple {
		buf = v.AppendBinary(buf)
	}
	return buf
}

func encodeFact(f relstore.GroundFact) []byte { return appendFact(nil, f) }

func decodeFact(data []byte) (relstore.GroundFact, error) {
	n, w := binary.Uvarint(data)
	if w <= 0 || int(n) > len(data)-w {
		return relstore.GroundFact{}, fmt.Errorf("core: bad fact relation length")
	}
	rel := string(data[w : w+int(n)])
	data = data[w+int(n):]
	arity, w := binary.Uvarint(data)
	if w <= 0 {
		return relstore.GroundFact{}, fmt.Errorf("core: bad fact arity")
	}
	data = data[w:]
	tup := make(value.Tuple, 0, arity)
	for i := uint64(0); i < arity; i++ {
		v, n, err := value.DecodeBinary(data)
		if err != nil {
			return relstore.GroundFact{}, err
		}
		tup = append(tup, v)
		data = data[n:]
	}
	if len(data) != 0 {
		return relstore.GroundFact{}, fmt.Errorf("core: trailing bytes in fact record")
	}
	return relstore.GroundFact{Rel: rel, Tuple: tup}, nil
}

// Recover rebuilds a quantum database from the WAL segments rooted at
// opt.WALPath. initial must be the same extensional database the crashed
// instance started from (the paper's prototype likewise relies on the
// underlying DBMS for base durability; here base writes are replayed
// from the log). Still-pending transactions are re-admitted with their
// original IDs, which re-establishes the invariant and rebuilds
// partitions and caches. For long-lived databases, pair with
// QDB.Checkpoint and RecoverCheckpoint to bound replay length.
func Recover(initial *relstore.DB, opt Options) (*QDB, error) {
	return recoverOnto(initial, nil, 0, 0, opt)
}

// recoverOnto replays the WAL over a store, seeding the pending set with
// checkpointed transactions (the log may ground them later). Batches
// with sequence numbers at or below minSeq are skipped entirely: they
// are covered by the checkpoint cut the store came from, and after a
// crash mid-way through the fuzzy checkpoint's segment-by-segment WAL
// truncation they may survive only partially (a pending record whose
// grounding tombstone is already gone would replay as a resurrection).
//
// All segments are merged into one sequence-ordered stream (wal.ReadAll)
// and replayed in two passes: the first collects abort compensations,
// the second applies every non-aborted batch above minSeq. The fact
// redo is
// IDEMPOTENT: with write-ahead ordering a crash can sit between a
// batch's sync and its store apply, and partial-durability orders under
// SyncWAL=false can surface a logged batch whose neighbours were
// dropped, so an insert that finds its key present or a delete that
// finds its tuple absent is detected and skipped rather than fatal —
// set semantics make the skip exact (the mutation's effect is already
// there or already gone).
func recoverOnto(initial *relstore.DB, checkpointPending []*txn.T, minSeq, minTerm uint64, opt Options) (*QDB, error) {
	if opt.WALPath == "" {
		return nil, fmt.Errorf("core: Recover requires Options.WALPath")
	}
	batches, err := wal.ReadAll(opt.WALPath)
	if err != nil {
		return nil, fmt.Errorf("core: recovery replay: %w", err)
	}
	aborted := make(map[uint64]bool)
	for _, b := range batches {
		for _, r := range b.Records {
			if r.Type == recAbort {
				if len(r.Payload) != 8 {
					return nil, fmt.Errorf("core: recovery replay: bad abort record")
				}
				aborted[binary.BigEndian.Uint64(r.Payload)] = true
			}
		}
	}
	pending := make(map[int64]*txn.T)
	var maxID int64
	for _, t := range checkpointPending {
		pending[t.ID] = t
		if t.ID > maxID {
			maxID = t.ID
		}
	}
	redoSkips := 0
	for _, b := range batches {
		if b.Seq <= minSeq || aborted[b.Seq] {
			continue
		}
		for _, r := range b.Records {
			switch r.Type {
			case recPending:
				t, err := txn.Unmarshal(r.Payload)
				if err != nil {
					return nil, fmt.Errorf("core: recovery replay: %w", err)
				}
				pending[t.ID] = t
				if t.ID > maxID {
					maxID = t.ID
				}
			case recGrounded:
				if len(r.Payload) != 8 {
					return nil, fmt.Errorf("core: recovery replay: bad grounded record")
				}
				id := int64(binary.BigEndian.Uint64(r.Payload))
				delete(pending, id)
				// A tombstone also witnesses the ID was issued: without
				// SyncWAL a partial-durability order can keep a grounding
				// whose pending record was dropped, and the recovered
				// instance must still never reissue that ID.
				if id > maxID {
					maxID = id
				}
			case recInsert:
				f, err := decodeFact(r.Payload)
				if err != nil {
					return nil, fmt.Errorf("core: recovery replay: %w", err)
				}
				if err := initial.Insert(f.Rel, f.Tuple); err != nil {
					if errors.Is(err, relstore.ErrDuplicateKey) {
						redoSkips++
						continue
					}
					return nil, fmt.Errorf("core: recovery replay batch %d: %w", b.Seq, err)
				}
			case recDelete:
				f, err := decodeFact(r.Payload)
				if err != nil {
					return nil, fmt.Errorf("core: recovery replay: %w", err)
				}
				if err := initial.Delete(f.Rel, f.Tuple); err != nil {
					if errors.Is(err, relstore.ErrAbsentTuple) {
						redoSkips++
						continue
					}
					return nil, fmt.Errorf("core: recovery replay batch %d: %w", b.Seq, err)
				}
			case recAbort:
				// Collected in the first pass.
			default:
				return nil, fmt.Errorf("core: recovery replay: unknown WAL record type %d", r.Type)
			}
		}
	}
	if redoSkips > 0 {
		log.Printf("core: recovery skipped %d already-redone fact mutations (idempotent redo)", redoSkips)
	}

	q, err := New(initial, opt)
	if err != nil {
		return nil, err
	}
	// OpenSegmented already restored the max term seen in surviving
	// frames; the checkpoint's cut term covers the truncated prefix (an
	// empty post-checkpoint suffix carries no frames at all). SetTerm
	// keeps whichever is higher — a reopen is never a demotion.
	q.log.SetTerm(minTerm)
	q.mu.Lock()
	q.nextID = maxID + 1
	q.mu.Unlock()

	ids := make([]int64, 0, len(pending))
	for id := range pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := q.readmit(pending[id]); err != nil {
			q.Close()
			return nil, fmt.Errorf("core: recovery of txn %d: %w", id, err)
		}
	}
	return q, nil
}

// readmit re-installs a recovered pending transaction with its original
// ID, without re-logging it. The invariant held at crash time and base
// state is replayed exactly, so admission must succeed; failure indicates
// a corrupted log or a wrong initial database.
func (q *QDB) readmit(t *txn.T) error {
	q.admitMu.Lock()
	defer q.admitMu.Unlock()
	overlapping := q.lockOverlapping(t)
	merged := mergedTxns(overlapping, t)
	q.storeMu.RLock()
	sol, ok, err := formula.SolveChain(q.db, stripAll(merged), q.chainOpts(false))
	stamp := q.epochFingerprint(merged)
	q.storeMu.RUnlock()
	if err != nil {
		unlockPartitions(overlapping)
		return err
	}
	if !ok {
		unlockPartitions(overlapping)
		return ErrInvariantBroken
	}
	p := q.mergeLocked(overlapping)
	p.txns = merged
	if q.opt.DisableCache {
		p.cached = nil
	} else {
		p.cached = sol.Groundings
		p.cachedEpoch = stamp
	}
	p.version++
	q.mu.Lock()
	q.byTxn[t.ID] = p
	q.idx.add(t, p.id())
	q.mu.Unlock()
	q.admitSeq.Add(1)
	q.partVersion.Add(1)
	q.noteHighWater(p)
	p.shard.Unlock()
	return nil
}
