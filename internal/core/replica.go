package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/wal"
)

// This file is the engine half of WAL log shipping (internal/replica
// holds the transport and the follower loop) and the one replay routine.
// The leader side hands out a checkpoint image to bootstrap from plus
// sequence-bounded WAL suffixes to tail; the follower side (ReplicaState)
// replays those batches through ApplyBatches. Crash recovery is the same
// follower fed the whole surviving log in one chunk and then promoted in
// place, so a replica is literally a recovery that never finishes — every
// record rule (idempotent redo, abort compensation, stamp-bounded skip,
// the term gate) is written once and serves recovery, replication and
// failover alike.

// ErrReplicaDiverged reports a replay stream that contradicts state the
// replica already applied — an abort compensation targeting a batch
// below the applied watermark. The replica cannot un-apply (it holds no
// undo), so the only safe continuation is a fresh bootstrap.
var ErrReplicaDiverged = errors.New("core: replica diverged from leader; re-bootstrap required")

// ErrReplicaSealed reports replay attempted after Seal: the replica has
// been promoted (or is mid-promotion) and its store now belongs to a
// live engine; applying shipped batches to it would corrupt the new
// leader.
var ErrReplicaSealed = errors.New("core: replica sealed by promotion; no further replay")

// errNoWAL is returned by the shipping handoffs on an in-memory engine.
var errNoWAL = errors.New("core: replication requires a WAL-backed database")

// CheckpointImage serializes a fuzzy-checkpoint cut to memory and
// returns it with its WAL sequence stamp: the bootstrap payload a new
// follower replays forward from. It is exactly Checkpoint minus the
// durability and minus the truncation — the leader's WAL keeps every
// batch above (and below) the stamp, so the follower can tail from it.
// The engine stays live; the pause is the cut only.
func (q *QDB) CheckpointImage() ([]byte, uint64, error) {
	if q.log == nil {
		return nil, 0, errNoWAL
	}
	sp := q.met.checkpoint.Start()
	defer sp.End()
	sp.Mark()
	cut := q.checkpointCut()
	sp.Stage(stageCheckpointCut)
	defer cut.snap.Release()
	var buf bytes.Buffer
	if err := writeCheckpointTo(&buf, cut); err != nil {
		return nil, 0, err
	}
	sp.Stage(stageCheckpointSerialize)
	return buf.Bytes(), cut.stamp, nil
}

// WALBatchesFrom returns the committed WAL batches with sequence
// numbers above after, merged across segments in sequence order, at
// most max of them (max <= 0: all) — the shipper's pull primitive. A
// wal.ErrTruncated result means the leader checkpointed past the
// subscriber's position; the caller must fall back to CheckpointImage.
func (q *QDB) WALBatchesFrom(after uint64, max int) ([]wal.Batch, error) {
	if q.log == nil {
		return nil, errNoWAL
	}
	return q.log.ReadFrom(after, max)
}

// WALSeq reports the highest WAL sequence number assigned so far; the
// follower's lag is WALSeq minus its applied watermark. 0 without a WAL.
func (q *QDB) WALSeq() uint64 {
	if q.log == nil {
		return 0
	}
	return q.log.Seq()
}

// NoteReplicaAck records a subscriber's applied watermark and counts
// the pull that carried it; Stats.ReplicaAckSeq and the
// qdb_replica_lag gauge derive from it. With several subscribers the
// ack high-water tracks the most caught-up one.
func (q *QDB) NoteReplicaAck(seq uint64) {
	q.stats.replicaPulls.Add(1)
	raiseMax(&q.stats.replicaAckSeq, int64(seq))
}

// ReplicaState is the follower half: a store bootstrapped from a
// leader's checkpoint image, advanced by replaying shipped WAL batches
// through the recovery apply path, serving lock-free snapshot reads at
// a monotone applied-sequence watermark. It has no admission path, no
// solver, and no WAL of its own — mutations arrive only as replayed
// leader batches.
type ReplicaState struct {
	mu      sync.Mutex // serializes ApplyBatches; reads are lock-free
	db      *relstore.DB
	applied atomic.Uint64 // highest applied (or checkpoint-covered) seq
	nextID  int64
	pending map[int64]*txn.T
	// term is the highest replication term this replica has observed —
	// from its bootstrap image or from any replayed batch. Batches
	// stamped with a LOWER term are refused (a deposed leader's late
	// ships); a higher term is adopted (a promotion happened upstream).
	term atomic.Uint64
	// sealed (under mu) refuses all further replay: set by Seal when
	// promotion hands the store to a live engine.
	sealed bool
	// batchesReplayed and redoSkips feed the follower's own telemetry;
	// staleRefusals counts chunks refused for carrying a stale term.
	batchesReplayed atomic.Int64
	redoSkips       atomic.Int64
	staleRefusals   atomic.Int64
}

// BootReplica constructs a follower store from a leader CheckpointImage
// payload. The returned state's applied watermark is the image's WAL
// stamp: every batch at or below it is covered by the cut and will be
// skipped if redelivered.
func BootReplica(image []byte) (*ReplicaState, error) {
	st, err := decodeReplicaState(bytes.NewReader(image))
	if err != nil {
		return nil, fmt.Errorf("core: replica bootstrap: %w", err)
	}
	return st, nil
}

// decodeReplicaState reads a checkpoint stream (writeCheckpointTo) into a
// replay state stamped at the cut's sequence number and term. Shared by
// BootReplica (a shipped image) and RecoverCheckpoint (a file).
func decodeReplicaState(r io.Reader) (*ReplicaState, error) {
	store, nextID, walSeq, term, pending, err := decodeCheckpoint(r)
	if err != nil {
		return nil, err
	}
	return newReplicaState(store, nextID, walSeq, term, pending), nil
}

// newReplicaState starts replay over store: every batch with Seq <= stamp
// is already reflected in it, pending is its pending-transactions table,
// and no ID below nextID may be issued again.
func newReplicaState(store *relstore.DB, nextID int64, stamp, term uint64, pending []*txn.T) *ReplicaState {
	r := &ReplicaState{db: store, nextID: nextID, pending: make(map[int64]*txn.T, len(pending))}
	for _, t := range pending {
		r.pending[t.ID] = t
		r.noteID(t.ID)
	}
	r.applied.Store(stamp)
	r.term.Store(term)
	return r
}

// noteID records that id was issued, so it is never reissued.
func (r *ReplicaState) noteID(id int64) {
	if id >= r.nextID {
		r.nextID = id + 1
	}
}

// ApplyBatches replays a chunk of batches in sequence order, returning
// the count actually applied: the one replay routine, run incrementally
// by a follower and once over the whole merged log by recovery.
// Batches at or below the applied watermark are skipped entirely, abort
// records included: the bootstrap cut or a prior chunk covers them, and
// after a crash mid-way through a checkpoint's segment-by-segment
// truncation they may survive only partially (a pending record whose
// tombstone is gone would resurrect its transaction; an abort whose
// target is gone proves nothing). An abort above the watermark skips
// its target batch. Fact redo is IDEMPOTENT: a crash can sit between a
// batch's sync and its store apply, and without SyncWAL a logged batch
// can survive its dropped neighbours, so an insert that finds its key
// present or a delete that finds its tuple absent is counted
// (RedoSkips) and skipped — set semantics make the skip exact. An abort
// of a batch below the watermark that this chunk did not itself carry
// means the state holds what the leader then compensated: divergence
// (ErrReplicaDiverged), not repair, because replay cannot un-apply.
func (r *ReplicaState) ApplyBatches(batches []wal.Batch) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sealed {
		return 0, ErrReplicaSealed
	}
	// Term gate: a batch stamped below the replica's observed term is a
	// deposed leader's late ship — refuse the whole chunk before any of
	// it applies. Higher terms are adopted: a promotion happened
	// upstream and this follower now tails the new leader's log. Terms
	// only rise along one log, so recovery's single chunk never trips it.
	for _, b := range batches {
		if cur := r.term.Load(); b.Term < cur {
			r.staleRefusals.Add(1)
			return 0, fmt.Errorf("%w (batch %d term %d, replica at term %d)",
				wal.ErrStaleTerm, b.Seq, b.Term, cur)
		} else if b.Term > cur {
			r.term.Store(b.Term)
		}
	}
	watermark := r.applied.Load()
	var aborted map[uint64]bool
	for _, b := range batches {
		if b.Seq <= watermark {
			continue
		}
		for _, rec := range b.Records {
			if rec.Type != recAbort {
				continue
			}
			if len(rec.Payload) != 8 {
				return 0, fmt.Errorf("core: replay: bad abort record")
			}
			seq := binary.BigEndian.Uint64(rec.Payload)
			if seq <= watermark && !slices.ContainsFunc(batches, func(b wal.Batch) bool { return b.Seq == seq }) {
				return 0, fmt.Errorf("%w (abort of applied batch %d)", ErrReplicaDiverged, seq)
			}
			if aborted == nil {
				aborted = make(map[uint64]bool)
			}
			aborted[seq] = true
		}
	}
	applied := 0
	for _, b := range batches {
		if b.Seq <= r.applied.Load() {
			continue // redelivered: covered by the cut, a prior chunk, or a duplicate in this one
		}
		if !aborted[b.Seq] {
			if err := r.applyBatchLocked(b); err != nil {
				return applied, err
			}
		}
		// Aborted batches still advance the watermark: their sequence
		// number is consumed and must not be waited for.
		r.applied.Store(b.Seq)
		applied++
	}
	r.batchesReplayed.Add(int64(applied))
	return applied, nil
}

// applyBatchLocked replays one batch's records: the one place the record
// types are dispatched.
func (r *ReplicaState) applyBatchLocked(b wal.Batch) error {
	for _, rec := range b.Records {
		switch rec.Type {
		case recPending:
			t, err := txn.Unmarshal(rec.Payload)
			if err != nil {
				return fmt.Errorf("core: replay: %w", err)
			}
			r.pending[t.ID] = t
			r.noteID(t.ID)
		case recGrounded:
			if len(rec.Payload) != 8 {
				return fmt.Errorf("core: replay: bad grounded record")
			}
			id := int64(binary.BigEndian.Uint64(rec.Payload))
			delete(r.pending, id)
			// A tombstone also witnesses the ID was issued: without
			// SyncWAL a partial-durability order can keep a grounding
			// whose pending record was dropped.
			r.noteID(id)
		case recInsert:
			f, err := decodeFact(rec.Payload)
			if err != nil {
				return fmt.Errorf("core: replay: %w", err)
			}
			if err := r.db.Insert(f.Rel, f.Tuple); err != nil {
				if errors.Is(err, relstore.ErrDuplicateKey) {
					r.redoSkips.Add(1)
					continue
				}
				return fmt.Errorf("core: replay batch %d: %w", b.Seq, err)
			}
		case recDelete:
			f, err := decodeFact(rec.Payload)
			if err != nil {
				return fmt.Errorf("core: replay: %w", err)
			}
			if err := r.db.Delete(f.Rel, f.Tuple); err != nil {
				if errors.Is(err, relstore.ErrAbsentTuple) {
					r.redoSkips.Add(1)
					continue
				}
				return fmt.Errorf("core: replay batch %d: %w", b.Seq, err)
			}
		case recAbort:
			// Read by ApplyBatches before any batch applies.
		default:
			return fmt.Errorf("core: replay: unknown WAL record type %d", rec.Type)
		}
	}
	return nil
}

// AppliedSeq reports the follower's monotone applied watermark: every
// leader batch with Seq at or below it has taken effect here (or was
// aborted). It is the resume point for pulls and the seq the follower
// acks upstream.
func (r *ReplicaState) AppliedSeq() uint64 { return r.applied.Load() }

// Term reports the highest replication term the replica has observed:
// its bootstrap image's, raised by the batches it replays. Nothing else
// raises it, so a follower about to be promoted still accepts the
// fenced leader's old-term batches while it drains them.
func (r *ReplicaState) Term() uint64 { return r.term.Load() }

// Seal permanently stops replay: every later ApplyBatches returns
// ErrReplicaSealed. Promotion seals first, then hands the store to a
// live engine — after the handoff the ReplicaState is a dead husk and
// only the engine may mutate the store.
func (r *ReplicaState) Seal() {
	r.mu.Lock()
	r.sealed = true
	r.mu.Unlock()
}

// StaleTermRefusals counts replay chunks refused for carrying a term
// below the replica's observed one.
func (r *ReplicaState) StaleTermRefusals() int64 { return r.staleRefusals.Load() }

// BatchesReplayed reports the cumulative count of batches applied.
func (r *ReplicaState) BatchesReplayed() int64 { return r.batchesReplayed.Load() }

// RedoSkips reports fact mutations skipped by the idempotent redo.
func (r *ReplicaState) RedoSkips() int64 { return r.redoSkips.Load() }

// PendingCount reports the replica's view of the leader's pending-
// transactions table (pending records replayed minus tombstones).
func (r *ReplicaState) PendingCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// CowStats reports the replica store's copy-on-write copies and bytes
// (relstore.DB.CowStats): what follower reads cost the replay path.
func (r *ReplicaState) CowStats() (copies, bytes int64) { return r.db.CowStats() }

// Snapshot pins a COW view of the replica store. Reads against it are
// lock-free and never block (or are blocked by) batch replay. Release
// when done.
func (r *ReplicaState) Snapshot() *relstore.Snapshot { return r.db.Snapshot() }

// QuerySnapshot is the follower's one-shot read: pin, evaluate,
// release. Results reflect replayed committed state only — the same
// collapse-free semantics as the leader's QueryAt over a fresh
// Snapshot, at the replica's applied watermark.
func (r *ReplicaState) QuerySnapshot(query []logic.Atom) (*relstore.RowSet, error) {
	snap := r.db.Snapshot()
	defer snap.Release()
	return relstore.Query{Atoms: query}.Rows(snap)
}

// EncodeState writes the replica store in the canonical snapshot
// format — byte-comparable against the leader's Snapshot.Encode when
// both are quiesced at the same sequence number.
func (r *ReplicaState) EncodeState(w io.Writer) error {
	snap := r.db.Snapshot()
	defer snap.Release()
	return snap.Encode(w)
}

// EncodeImage writes the replica's CURRENT state in the checkpoint wire
// format — the same layout a leader's CheckpointImage ships — stamped
// with the applied watermark and observed term. It is the follower's
// persistent-cache spill payload: a restarted follower boots from it
// and tails the leader from the embedded stamp instead of re-pulling
// the full image over the network.
func (r *ReplicaState) EncodeImage(w io.Writer) error {
	r.mu.Lock()
	snap := r.db.Snapshot()
	pending := make([]*txn.T, 0, len(r.pending))
	for _, t := range r.pending {
		pending = append(pending, t)
	}
	cut := checkpointCut{
		snap:    snap,
		nextID:  r.nextID,
		stamp:   r.applied.Load(),
		term:    r.term.Load(),
		pending: pending,
	}
	r.mu.Unlock()
	defer snap.Release()
	sort.Slice(cut.pending, func(i, j int) bool { return cut.pending[i].ID < cut.pending[j].ID })
	return writeCheckpointTo(w, cut)
}
