package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math/bits"
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
// one commit unit — an admission's pending records (plus the k-bound
// evictions it triggers), a blind write's facts, or the groundings one
// collapse executes — framed and sequence-stamped together, so recovery
// can never observe part of a unit. Each grounding in a unit is its
// deletes, then its inserts, then its tombstone, in chain order. The
// engine appends and syncs a batch BEFORE applying its effects to the
// store, and applies the whole unit at once (write-ahead ordering): a
// crash between log and apply is repaired by replay, never by
// divergence.
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

// unitBodyLimit bounds the frame body of a batch that carries a run of
// groundings: the WAL's in-memory tail keeps bodies up to 1 MiB
// (wal/tail.go), and a larger one would empty it, sending followers back
// to the segment files. A replay run or an admission's carried
// evictions that would exceed it are split (see batchEnc.addGroundings).
const unitBodyLimit = 1 << 20

// batchHeaderMax is the most a frame body adds around its records: seq,
// term and the uvarint record count.
const batchHeaderMax = 8 + 8 + binary.MaxVarintLen64

// batchEnc assembles one commit unit's records over a reusable byte
// arena; payloads are sub-slices of the arena (growing the arena leaves
// already-taken payload slices pointing at the old backing array, whose
// contents stay valid). body counts the records' framed bytes as the WAL
// writes them. Pooled: grounding batches are built on the hot path,
// outside any lock.
type batchEnc struct {
	buf  []byte
	recs []wal.Record
	body int
}

var batchEncPool = sync.Pool{New: func() any { return &batchEnc{} }}

func getBatchEnc() *batchEnc {
	e := batchEncPool.Get().(*batchEnc)
	e.buf, e.recs, e.body = e.buf[:0], e.recs[:0], 0
	return e
}

// push records the payload e.buf[start:] as a record of type typ.
func (e *batchEnc) push(typ uint8, start int) {
	p := e.buf[start:]
	e.recs = append(e.recs, wal.Record{Type: typ, Payload: p})
	e.body += 1 + (bits.Len64(uint64(len(p))|1)+6)/7 + len(p)
}

func (e *batchEnc) addFact(typ uint8, f relstore.GroundFact) {
	start := len(e.buf)
	e.buf = appendFact(e.buf, f)
	e.push(typ, start)
}

func (e *batchEnc) addID(typ uint8, id uint64) {
	start := len(e.buf)
	e.buf = binary.BigEndian.AppendUint64(e.buf, id)
	e.push(typ, start)
}

func (e *batchEnc) addPending(t *txn.T) error {
	data, err := t.Marshal()
	if err != nil {
		return err
	}
	start := len(e.buf)
	e.buf = append(e.buf, data...)
	e.push(recPending, start)
	return nil
}

func (e *batchEnc) addFacts(inserts, deletes []relstore.GroundFact) {
	for _, f := range deletes {
		e.addFact(recDelete, f)
	}
	for _, f := range inserts {
		e.addFact(recInsert, f)
	}
}

// addGroundings appends gs in chain order, each grounding as its
// deletes, inserts and tombstone, while the frame body stays within
// maxBody, and returns how many it took. A grounding that would overflow
// is left out unless the batch was empty before it, so a run always
// makes progress and a pending batch never grows past the bound for the
// evictions it carries.
func (e *batchEnc) addGroundings(gs []formula.Grounding, maxBody int) int {
	for i, g := range gs {
		buf, recs, body := len(e.buf), len(e.recs), e.body
		e.addFacts(g.Inserts, g.Deletes)
		e.addID(recGrounded, uint64(g.Txn.ID))
		if recs > 0 && e.body+batchHeaderMax > maxBody {
			e.buf, e.recs, e.body = e.buf[:buf], e.recs[:recs], body
			return i
		}
	}
	return len(gs)
}

// logPendingBatch durably records admitted transactions as ONE WAL
// batch — one append, one group-commit fsync — BEFORE any of them is
// installed: the §4 invariant wants the pending-transactions table ahead
// of any visible effect. After the pending records it carries the
// leading groundings of evict (the k-bound evictions the install will
// trigger) that fit within unitBodyLimit, and returns how many it
// carried and the batch's sequence number (0 with no log, which carries
// them all). affinity routes the batch to the partition's segment.
// Recovery and follower replay iterate every record of a batch in order,
// so the admissions register before the evictions ground.
func (q *QDB) logPendingBatch(affinity int64, ts []*txn.T, evict []formula.Grounding) (int, uint64, error) {
	if q.log == nil {
		return len(evict), 0, nil
	}
	e := getBatchEnc()
	defer batchEncPool.Put(e)
	for _, t := range ts {
		if err := e.addPending(t); err != nil {
			return 0, 0, err
		}
	}
	n := e.addGroundings(evict, unitBodyLimit)
	seq, err := q.log.AppendBatch(affinity, e.recs)
	return n, seq, q.noteStaleTerm(err)
}

// logGroundings appends the leading groundings of gs, in chain order, as
// one commit unit, taking as many as fit within maxBody (at least one),
// and returns how many it took and the batch's sequence number (all of
// them and 0 with no log). Called BEFORE the groundings are applied to
// the store; with SyncWAL the call group-commits, so concurrent units of
// partitions on different segments fsync independently and units sharing
// a segment share one fsync.
func (q *QDB) logGroundings(affinity int64, gs []formula.Grounding, maxBody int) (int, uint64, error) {
	if q.log == nil {
		return len(gs), 0, nil
	}
	e := getBatchEnc()
	defer batchEncPool.Put(e)
	n := e.addGroundings(gs, maxBody)
	seq, err := q.log.AppendBatch(affinity, e.recs)
	return n, seq, q.noteStaleTerm(err)
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
// its apply failed; replay skips aborted batches entirely. A pending
// batch that carried evictions also held admissions the engine keeps:
// rerecord lists them, and the compensating batch records them pending
// again, so recovery skips the evictions but still registers the
// admissions. A failing abort append is reported loudly: the log now
// claims a commit the store rejected, which only a checkpoint can
// expunge. The same caveat applies to a CRASH between the batch's sync
// and the abort's — compensation records are not crash-atomic with
// their targets (the classic CLR window) — in which case recovery
// replays the batch as committed, with the colliding facts absorbed by
// the idempotent redo; the window requires an apply-time key collision
// AND a crash inside this call, and a checkpoint closes it.
func (q *QDB) logAbort(affinity int64, seq uint64, rerecord []*txn.T) error {
	if q.log == nil || seq == 0 {
		return nil
	}
	e := getBatchEnc()
	defer batchEncPool.Put(e)
	e.addID(recAbort, seq)
	for _, t := range rerecord {
		if err := e.addPending(t); err != nil {
			return fmt.Errorf("core: compensating aborted batch %d: %w", seq, err)
		}
	}
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
	return recoverOnto(newReplicaState(initial, 1, 0, 0, nil), opt)
}

// recoverOnto is promotion from disk: st (the initial store, or a
// decoded checkpoint stamped at its cut) is a follower fed the whole
// surviving log, merged across segments into one sequence-ordered
// stream (wal.ReadAll), through the one replay routine
// (ReplicaState.ApplyBatches), and is then promoted in place over the
// reopened log. OpenSegmented already restored the highest term in the
// surviving frames; SetTerm adds the checkpoint's cut term, which
// covers the truncated prefix (an empty suffix carries no frames at
// all) — a reopen is never a demotion.
func recoverOnto(st *ReplicaState, opt Options) (*QDB, error) {
	if opt.WALPath == "" {
		return nil, fmt.Errorf("core: Recover requires Options.WALPath")
	}
	batches, err := wal.ReadAll(opt.WALPath)
	if err != nil {
		return nil, fmt.Errorf("core: recovery replay: %w", err)
	}
	if _, err := st.ApplyBatches(batches); err != nil {
		return nil, fmt.Errorf("core: recovery replay: %w", err)
	}
	if n := st.RedoSkips(); n > 0 {
		log.Printf("core: recovery skipped %d already-redone fact mutations (idempotent redo)", n)
	}
	q, err := st.promote(opt)
	if err != nil {
		return nil, err
	}
	q.log.SetTerm(st.Term())
	return q, nil
}
