package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/relstore"
	"repro/internal/txn"
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
// — the admission lock and every live partition's shard are held just
// long enough to pin a copy-on-write store snapshot, copy the
// pending-transaction pointers, and read the WAL sequence stamp. That
// pause is O(pending + tables), independent of row count.
// Serialization then runs against the pinned snapshot with the engine
// fully live (admissions, groundings, and writes proceed and keep
// logging), and the WAL is truncated below the stamp concurrently with
// new appends above it.
// Stats.CheckpointPauseNs accumulates only the cut time.
//
// The stamp is exact: every WAL appender runs under the admission lock
// or a partition shard and applies before releasing it (an admission's
// carried evictions apply under the survivor's shard, locked before the
// admission lock is released), so at the cut
// every batch with Seq <= stamp has its effect in the snapshot, and
// every later batch — including groundings racing the serialization —
// is stamped above it and survives truncation for replay.
func (q *QDB) Checkpoint(path string) error {
	if q.log == nil {
		return fmt.Errorf("core: Checkpoint requires a WAL-backed database")
	}
	sp := q.met.checkpoint.Start()
	defer sp.End()
	sp.Mark()
	cut := q.checkpointCut()
	sp.Stage(stageCheckpointCut)
	defer cut.snap.Release()

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
// quiescent moment: the admission lock and every live partition's shard
// are held just long enough to pin a COW store snapshot, copy the
// pending-transaction pointers, and read the WAL sequence stamp. Shared
// by Checkpoint (which
// then serializes to a file and truncates the WAL) and CheckpointImage
// (which serializes to memory for replica bootstrap and truncates
// nothing). Stats.CheckpointPauseNs accumulates the hold time.
func (q *QDB) checkpointCut() checkpointCut {
	q.admitMu.Lock()
	cutStart := time.Now()
	locked := q.lockAllPartitions()
	q.mu.Lock()
	nextID := q.nextID
	q.mu.Unlock()
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

// writeCheckpointFile serializes a checkpoint durably and atomically:
// temp file, fsync, rename over path, fsync of the parent directory
// (without which a crash right after the rename could lose the
// directory entry — and with it the checkpoint the WAL truncation is
// about to rely on).
func writeCheckpointFile(path string, cut checkpointCut) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	defer os.Remove(tmp)
	if err := writeCheckpointTo(f, cut); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: checkpoint rename: %w", err)
	}
	return syncParentDir(path)
}

// syncParentDir fsyncs the directory containing path so a just-renamed
// entry survives a crash.
func syncParentDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("core: checkpoint dir sync: %w", err)
	}
	return nil
}

// lockAllPartitions locks every live partition, ascending by shard ID.
// Caller holds admitMu, so no new partition can appear; partitions that
// drained between snapshot and lock are skipped.
func (q *QDB) lockAllPartitions() []*partition {
	parts := q.livePartitions()
	locked := parts[:0]
	for _, p := range parts {
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
