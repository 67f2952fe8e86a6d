package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Checkpoint bounds recovery time: it writes a consistent cut of the
// extensional store plus the pending-transactions table to path
// (atomically: temp file, fsync, rename, parent-directory fsync) and
// discards the WAL prefix the cut makes redundant. A subsequent
// RecoverCheckpoint loads the checkpoint and replays only the
// post-checkpoint log suffix.
//
// Checkpoint layout: relstore snapshot, then uvarint nextID, then the
// uvarint WAL sequence stamp of the cut, then the uvarint replication
// term the cut was taken under, then a uvarint count of pending
// transactions followed by their length-prefixed serializations.
//
// The checkpoint is FUZZY: the engine quiesces only for the cut itself
// — every live partition's shard, then the admission lock, are held just
// long enough to pin a copy-on-write store snapshot, copy the
// pending-transaction pointers, and read the WAL sequence stamp. That
// pause is O(pending + tables), independent of row count.
// Serialization then runs against the pinned snapshot with the engine
// fully live (admissions, groundings, and writes proceed and keep
// logging), and the WAL is truncated below the stamp concurrently with
// new appends above it.
// Stats.CheckpointPauseNs accumulates only the cut time.
//
// Serialization is incremental (relstore.Snapshot.Encode): the store
// keeps each relation's canonical rows from the previous encode and
// journals the keys written since, so a checkpoint sorts and encodes only
// those, O(changed keys · log + bytes) rather than a full sort of every
// row, and writes the same bytes a full encode would. Pending
// transactions are immutable, and each marshals once (txn.T.Marshal).
//
// Checkpoints are serialized, cut through truncation (checkpointMu).
// Two at once would share the temp file, and an older cut could replace
// the file of a newer one after that one truncated the log below its own
// stamp, losing every batch between the two stamps.
//
// The stamp is exact: at the cut every batch with Seq <= stamp has its
// effect in the snapshot, and every later batch — including groundings
// racing the serialization — is stamped above it and survives truncation
// for replay. A grounding appends, waits and applies under its
// partition's shard. An admission appends and installs under admitMu and
// then holds its survivor's shard through its WAL wait and its carried
// evictions, so the cut, which takes every live shard, sees either all of
// it or none. A blind write is such an admission: its home is the
// survivor — a fresh, empty partition when no pending transaction
// unifies with it — held until its facts apply, so the cut waits for
// every write in flight. It waits for shards without admitMu, and takes
// admitMu only to count the live partitions: no partition appears under
// it, so an equal count means the cut holds them all. A partition
// created since was created by a cycle that overlapped nothing the cut
// holds; the cut locks it and counts again. Cycles that touch a held
// partition wait for the cut, so only such fresh partitions can extend
// it.
func (q *QDB) Checkpoint(path string) error {
	if q.log == nil {
		return fmt.Errorf("core: Checkpoint requires a WAL-backed database")
	}
	q.checkpointMu.Lock()
	defer q.checkpointMu.Unlock()
	sp := q.met.checkpoint.Start()
	defer sp.End()
	sp.Mark()
	cut := q.checkpointCut()
	sp.Stage(stageCheckpointCut)
	defer cut.snap.Release()
	if h := q.testCheckpointCut; h != nil {
		h()
	}

	// Everything below runs with the engine live. Pending *txn.T are
	// immutable after admission, so marshaling the cut's pointers is safe
	// even as concurrent groundings retire them from their partitions.
	if err := writeCheckpointFile(path, cut); err != nil {
		return err
	}
	sp.Stage(stageCheckpointSerialize)
	if h := q.testCheckpointCrash; h != nil {
		if err := h(); err != nil {
			return err
		}
	}
	// Batches at or below the stamp are covered by the durable checkpoint.
	truncStart := time.Now()
	err := q.log.TruncateBefore(cut.stamp)
	sp.Add(stageCheckpointTruncate, time.Since(truncStart))
	return err
}

// checkpointCut is the state a checkpoint cut pins: everything a
// recovering instance (or a bootstrapping replica) needs besides the
// post-stamp WAL suffix. snap must be Released by the consumer.
type checkpointCut struct {
	snap    *relstore.Snapshot
	nextID  int64
	stamp   uint64
	term    uint64
	pending []*txn.T
}

// checkpointCut executes the fuzzy checkpoint's locked cut — the only
// quiescent moment: every live partition's shard and the admission lock
// are held just long enough to pin a COW store snapshot, copy the
// pending-transaction pointers, and read the WAL sequence stamp. Shared
// by Checkpoint (which then serializes to a file and truncates the WAL)
// and CheckpointImage (which serializes to memory for replica bootstrap
// and truncates nothing). Stats.CheckpointPauseNs accumulates the time
// from the first shard lock to the release.
func (q *QDB) checkpointCut() checkpointCut {
	cutStart := time.Now()
	var locked []*partition
	var nextID int64
	for {
		locked = q.lockAllPartitions(locked)
		q.admitMu.Lock()
		q.mu.Lock()
		all := len(q.parts) == len(locked)
		nextID = q.nextID
		q.mu.Unlock()
		if all {
			break
		}
		q.admitMu.Unlock()
	}
	var pending []*txn.T
	for _, p := range locked {
		pending = append(pending, p.txns...)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].ID < pending[j].ID })
	snap := q.db.Snapshot()
	stamp := q.log.Seq()
	term := q.log.Term()
	unlockPartitions(locked)
	q.admitMu.Unlock()
	q.stats.checkpointPauseNs.Add(time.Since(cutStart).Nanoseconds())
	return checkpointCut{snap: snap, nextID: nextID, stamp: stamp, term: term, pending: pending}
}

// writeCheckpointTo streams a cut in the checkpoint wire format:
// relstore snapshot, uvarint nextID, uvarint WAL stamp, uvarint
// replication term, uvarint pending count, length-prefixed pending
// transactions. Shared by the durable file path, the in-memory
// replica-bootstrap image, and the follower's persistent cache spill.
func writeCheckpointTo(w io.Writer, cut checkpointCut) error {
	bw := bufio.NewWriter(w)
	if err := cut.snap.Encode(bw); err != nil {
		return fmt.Errorf("core: checkpoint snapshot: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(cut.nextID))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	n = binary.PutUvarint(buf[:], cut.stamp)
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	n = binary.PutUvarint(buf[:], cut.term)
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	n = binary.PutUvarint(buf[:], uint64(len(cut.pending)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	for _, t := range cut.pending {
		data, err := t.Marshal()
		if err != nil {
			return err
		}
		n = binary.PutUvarint(buf[:], uint64(len(data)))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		if _, err := bw.Write(data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// decodeCheckpoint reads a checkpoint stream written by
// writeCheckpointTo back into its parts. Shared by RecoverCheckpoint
// (from a file) and replica bootstrap (from a shipped image).
func decodeCheckpoint(r io.Reader) (store *relstore.DB, nextID int64, walSeq, term uint64, pending []*txn.T, err error) {
	br := bufio.NewReader(r)
	store, err = relstore.DecodeSnapshot(br)
	if err != nil {
		return nil, 0, 0, 0, nil, fmt.Errorf("core: checkpoint snapshot: %w", err)
	}
	id, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, 0, 0, nil, fmt.Errorf("core: checkpoint nextID: %w", err)
	}
	walSeq, err = binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, 0, 0, nil, fmt.Errorf("core: checkpoint WAL stamp: %w", err)
	}
	term, err = binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, 0, 0, nil, fmt.Errorf("core: checkpoint term: %w", err)
	}
	nPending, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, 0, 0, nil, fmt.Errorf("core: checkpoint pending count: %w", err)
	}
	for i := uint64(0); i < nPending; i++ {
		ln, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, 0, 0, nil, err
		}
		if ln > 1<<26 {
			return nil, 0, 0, 0, nil, fmt.Errorf("core: implausible pending txn length %d", ln)
		}
		data := make([]byte, ln)
		if _, err := io.ReadFull(br, data); err != nil {
			return nil, 0, 0, 0, nil, err
		}
		t, err := txn.Unmarshal(data)
		if err != nil {
			return nil, 0, 0, 0, nil, err
		}
		pending = append(pending, t)
	}
	return store, int64(id), walSeq, term, pending, nil
}

// writeCheckpointFile serializes a checkpoint durably and atomically
// through wal.ReplaceFile: a crash mid-write leaves the previous
// checkpoint intact, and one right after the rename cannot lose the
// directory entry the WAL truncation is about to rely on.
func writeCheckpointFile(path string, cut checkpointCut) error {
	if err := wal.ReplaceFile(path, func(w io.Writer) error {
		return writeCheckpointTo(w, cut)
	}); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// lockAllPartitions locks every live partition above locked's last ID
// and returns locked with them appended, ascending by shard ID;
// partitions that drained between snapshot and lock are skipped. Every
// live partition missing from locked is among them: IDs are handed out
// in order (mergeLocked), each registered within the admitMu hold that
// took it, so one registered after the snapshot that filled locked has
// a higher ID than all of locked.
func (q *QDB) lockAllPartitions(locked []*partition) []*partition {
	for _, p := range q.livePartitions() {
		if n := len(locked); n > 0 && p.id() <= locked[n-1].id() {
			continue
		}
		p.shard.Lock()
		if !p.shard.Alive() {
			p.shard.Unlock()
			continue
		}
		locked = append(locked, p)
	}
	return locked
}

// RecoverCheckpoint rebuilds a quantum database from a checkpoint file
// plus the WAL suffix written after it. The schema and base rows come
// from the checkpoint, so no initial database is needed: recovery starts
// the replay state from the decoded cut — store, pending table, nextID,
// stamp and term — and replays the log over it (recoverOnto).
//
// Replay skips every batch at or below the checkpoint's WAL sequence
// stamp, abort records included: those are covered by the cut by
// construction. The skip is load-bearing, not just an optimization —
// WAL truncation after a fuzzy checkpoint rewrites segment files one at
// a time, so a crash mid-truncation can leave a commit unit's pending
// record on one segment while its grounding tombstone (also below the
// stamp) is already gone from another; replaying that orphaned prefix
// record would resurrect a grounded transaction. The stamp rules the
// whole prefix out at once.
func RecoverCheckpoint(checkpointPath string, opt Options) (*QDB, error) {
	if opt.WALPath == "" {
		return nil, fmt.Errorf("core: RecoverCheckpoint requires Options.WALPath")
	}
	f, err := os.Open(checkpointPath)
	if err != nil {
		return nil, fmt.Errorf("core: open checkpoint: %w", err)
	}
	defer f.Close()
	st, err := decodeReplicaState(f)
	if err != nil {
		return nil, err
	}
	return recoverOnto(st, opt)
}
