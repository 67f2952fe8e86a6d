package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Fuzzy-checkpoint suite: the checkpoint pauses the engine only for the
// cut (snapshot pin + WAL stamp), serializes off-lock while admissions,
// groundings, and writes proceed, and truncates the WAL below the stamp
// concurrently with appends above it. These tests pin the three claims:
// the engine stays live through a checkpoint, the pause is a strict
// sub-interval of the checkpoint's wall time, and every crash point
// inside the fuzzy window recovers to exactly the live state.

// TestCheckpointDoesNotQuiesce runs checkpoints while a writer churns
// and asserts the structural signals: the accumulated lock-held pause
// is nonzero but strictly smaller than checkpoint wall time (the
// serialization and truncation ran off-lock), the churn made progress,
// and recovery from the last checkpoint + WAL suffix reproduces the
// live state exactly.
func TestCheckpointDoesNotQuiesce(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "qdb.wal")
	ckpt := filepath.Join(dir, "qdb.ckpt")
	opts := Options{WALPath: walPath, WALSegments: 2, Workers: 4}
	q, err := New(worldDB([]int{1, 2}, 6), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(book("A", 1)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writes atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		scratch := []relstore.GroundFact{{Rel: "Available", Tuple: tup(2, "9Z")}}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := q.Write(scratch, nil); err != nil {
				t.Errorf("churn insert: %v", err)
				return
			}
			if err := q.Write(nil, scratch); err != nil {
				t.Errorf("churn delete: %v", err)
				return
			}
			writes.Add(1)
		}
	}()

	var wall time.Duration
	for i := 0; i < 5; i++ {
		pre := writes.Load()
		start := time.Now()
		if err := q.Checkpoint(ckpt); err != nil {
			t.Fatal(err)
		}
		wall += time.Since(start)
		// Force real interleaving on single-core schedulers: don't take
		// the next cut until the writer has moved the store past this one.
		for deadline := time.Now().Add(10 * time.Second); writes.Load() <= pre; {
			if time.Now().After(deadline) {
				t.Fatalf("writer made no progress after checkpoint %d", i)
			}
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()

	s := q.Stats()
	if s.CheckpointPauseNs <= 0 {
		t.Fatal("CheckpointPauseNs not accounted")
	}
	if s.CheckpointPauseNs >= wall.Nanoseconds() {
		t.Fatalf("pause %dns >= checkpoint wall time %dns: serialization ran under the cut's locks",
			s.CheckpointPauseNs, wall.Nanoseconds())
	}
	if s.SnapshotsLive != 0 {
		t.Fatalf("checkpoints leaked %d snapshot pins", s.SnapshotsLive)
	}
	if writes.Load() == 0 {
		t.Fatal("writer made no progress across 5 checkpoints")
	}

	want := stateOf(q)
	q.Close()
	r, err := RecoverCheckpoint(ckpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := stateOf(r); got != want {
		t.Errorf("recovered state:\n got %+v\nwant %+v", got, want)
	}
}

// TestCheckpointStaysLiveDuringFuzzyWindow drives a full admit+ground
// cycle from INSIDE the checkpoint (the test hook fires after the cut's
// locks are released, before the WAL truncation). If the checkpoint
// held any engine lock across serialization this deadlocks; and the
// mid-checkpoint booking — stamped above the cut — must survive the
// truncation and be replayed by recovery.
func TestCheckpointStaysLiveDuringFuzzyWindow(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "qdb.wal")
	ckpt := filepath.Join(dir, "qdb.ckpt")
	opts := Options{WALPath: walPath, WALSegments: 2}
	q, err := New(worldDB([]int{1, 2}, 6), opts)
	if err != nil {
		t.Fatal(err)
	}
	idA, err := q.Submit(book("A", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Ground(idA); err != nil {
		t.Fatal(err)
	}
	q.testCheckpointCrash = func() error {
		id, err := q.Submit(book("B", 2))
		if err != nil {
			return fmt.Errorf("mid-checkpoint submit: %w", err)
		}
		if err := q.Ground(id); err != nil {
			return fmt.Errorf("mid-checkpoint ground: %w", err)
		}
		return nil
	}
	if err := q.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	q.testCheckpointCrash = nil

	want := stateOf(q)
	q.Close()
	r, err := RecoverCheckpoint(ckpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := stateOf(r); got != want {
		t.Errorf("recovered state:\n got %+v\nwant %+v", got, want)
	}
	if n := r.Store().Len("Bookings"); n != 2 {
		t.Fatalf("recovered %d bookings, want 2 (the mid-checkpoint one must replay from the suffix)", n)
	}
}

// TestCheckpointCrashBeforeTruncateRecoversExactly crashes in the fuzzy
// window's most delicate spot: the checkpoint file is durable (renamed
// and directory-fsynced) but the WAL prefix it covers was never
// truncated. Recovery sees BOTH the checkpoint and the full log and
// must land exactly on the live state at the crash — the stamp skip
// keeps the covered prefix from replaying over the cut.
func TestCheckpointCrashBeforeTruncateRecoversExactly(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "qdb.wal")
	ckpt := filepath.Join(dir, "qdb.ckpt")
	opts := Options{WALPath: walPath, SyncWAL: true, WALSegments: 2}
	q, err := New(worldDB([]int{1, 2}, 6), opts)
	if err != nil {
		t.Fatal(err)
	}
	idA, err := q.Submit(book("A", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(book("B", 2)); err != nil {
		t.Fatal(err)
	}
	if err := q.Ground(idA); err != nil {
		t.Fatal(err)
	}
	q.testCheckpointCrash = func() error { return errInjectedCrash }
	if err := q.Checkpoint(ckpt); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("Checkpoint = %v, want injected crash", err)
	}
	q.testCheckpointCrash = nil
	want := stateOf(q)
	q.log.Abandon()

	// The untruncated prefix is really still there — the recovery below
	// must be skipping it, not finding an already-clean log.
	batches, err := wal.ReadAll(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) == 0 {
		t.Fatal("WAL empty at the fault point; the crash window is vacuous")
	}

	r, err := RecoverCheckpoint(ckpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := stateOf(r); got != want {
		t.Errorf("recovered state:\n got %+v\nwant %+v", got, want)
	}
	if err := r.GroundAll(); err != nil {
		t.Fatal(err)
	}
	if n := r.Store().Len("Bookings"); n != 2 {
		t.Fatalf("bookings after recovered GroundAll = %d, want 2", n)
	}
}

// TestRecoverCheckpointSkipsOrphanedPrefixRecords reproduces the
// pending-resurrection hazard the checkpoint's WAL stamp exists to
// close. Segment-by-segment truncation can crash having pruned the
// segment holding a grounding's tombstone while the segment holding the
// SAME transaction's pending record survives. Both are below the stamp;
// replaying the orphaned pending record would resurrect a transaction
// the checkpoint already recorded as grounded.
func TestRecoverCheckpointSkipsOrphanedPrefixRecords(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "qdb.wal")
	ckpt := filepath.Join(dir, "qdb.ckpt")

	l, err := wal.OpenSegmented(walPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Pending record on segment 1; its grounding commit unit (facts +
	// tombstone) on segment 0 — the cross-segment split a merged
	// partition's changed affinity produces.
	pend := book("A", 1)
	pend.ID = 1
	data, err := pend.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(1, []wal.Record{{Type: recPending, Payload: data}}); err != nil {
		t.Fatal(err)
	}
	e := getBatchEnc()
	e.addFacts(
		[]relstore.GroundFact{{Rel: "Bookings", Tuple: tup("A", 1, "1A")}},
		[]relstore.GroundFact{{Rel: "Available", Tuple: tup(1, "1A")}})
	e.addID(recGrounded, 1)
	stamp, err := l.AppendBatch(0, e.recs)
	batchEncPool.Put(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint cut covered both batches: its snapshot carries the
	// applied grounding and its pending table is empty.
	db := worldDB([]int{1}, 3)
	if err := db.Apply(
		[]relstore.GroundFact{{Rel: "Bookings", Tuple: tup("A", 1, "1A")}},
		[]relstore.GroundFact{{Rel: "Available", Tuple: tup(1, "1A")}}); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if err := writeCheckpointFile(ckpt, checkpointCut{snap: snap, nextID: 2, stamp: stamp}); err != nil {
		t.Fatal(err)
	}
	snap.Release()

	// Crash mid-truncation: the tombstone's segment is gone, the pending
	// record's segment untouched.
	if err := os.Remove(walPath + ".0"); err != nil {
		t.Fatal(err)
	}
	surviving, err := wal.ReadAll(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(surviving) != 1 || surviving[0].Records[0].Type != recPending {
		t.Fatalf("setup broken: surviving log = %d batches, want the orphaned pending record", len(surviving))
	}

	r, err := RecoverCheckpoint(ckpt, Options{WALPath: walPath, WALSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.PendingCount(); n != 0 {
		t.Fatalf("orphaned prefix record resurrected %d grounded transactions", n)
	}
	if !r.Store().Contains("Bookings", tup("A", 1, "1A")) {
		t.Fatal("checkpointed booking missing after recovery")
	}
	if r.Store().Contains("Available", tup(1, "1A")) {
		t.Fatal("checkpointed delete undone after recovery")
	}
	// The recovered instance must not reissue the grounded transaction's
	// ID either — the checkpoint's nextID carried it forward.
	id, err := r.Submit(book("B", 1))
	if err != nil {
		t.Fatal(err)
	}
	if id <= 1 {
		t.Fatalf("recovered instance reissued ID %d", id)
	}
}

// TestRecoverCheckpointSkipsOrphanedAbort is the abort half of the same
// hazard: truncation can crash having pruned the segment holding a
// batch while the segment holding that batch's abort compensation
// survives. Both are below the stamp, so the checkpoint already covers
// what the abort says; replay must not read it, or it would report the
// cut as diverged from a batch the cut never applied.
func TestRecoverCheckpointSkipsOrphanedAbort(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "qdb.wal")
	ckpt := filepath.Join(dir, "qdb.ckpt")

	l, err := wal.OpenSegmented(walPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A blind write's batch on segment 0 whose apply failed, and the
	// abort compensating it on segment 1.
	e := getBatchEnc()
	e.addFacts(
		[]relstore.GroundFact{{Rel: "Bookings", Tuple: tup("A", 1, "1A")}},
		[]relstore.GroundFact{{Rel: "Available", Tuple: tup(1, "1A")}})
	target, err := l.AppendBatch(0, e.recs)
	batchEncPool.Put(e)
	if err != nil {
		t.Fatal(err)
	}
	e = getBatchEnc()
	e.addID(recAbort, target)
	stamp, err := l.AppendBatch(1, e.recs)
	batchEncPool.Put(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint cut covered both batches: the aborted write never
	// reached its store, and one transaction was pending.
	pend := book("P", 1)
	pend.ID = 1
	pend = pend.RenamedApart()
	db := worldDB([]int{1}, 3)
	snap := db.Snapshot()
	var want bytes.Buffer
	if err := snap.Encode(&want); err != nil {
		t.Fatal(err)
	}
	err = writeCheckpointFile(ckpt, checkpointCut{snap: snap, nextID: 2, stamp: stamp, pending: []*txn.T{pend}})
	snap.Release()
	if err != nil {
		t.Fatal(err)
	}

	// Crash mid-truncation: the target's segment is gone, the abort's
	// segment untouched.
	if err := os.Remove(walPath + ".0"); err != nil {
		t.Fatal(err)
	}
	surviving, err := wal.ReadAll(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(surviving) != 1 || surviving[0].Records[0].Type != recAbort {
		t.Fatalf("setup broken: surviving log = %d batches, want the orphaned abort", len(surviving))
	}

	r, err := RecoverCheckpoint(ckpt, Options{WALPath: walPath, WALSegments: 2})
	if err != nil {
		t.Fatalf("orphaned abort below the stamp: %v", err)
	}
	defer r.Close()
	got := r.Snapshot()
	var have bytes.Buffer
	err = got.Encode(&have)
	got.Release()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have.Bytes(), want.Bytes()) {
		t.Fatalf("recovered store is not the checkpoint's: %d vs %d canonical bytes", have.Len(), want.Len())
	}
	if ids := fmt.Sprint(r.PendingIDs()); ids != "[1]" {
		t.Fatalf("recovered pending IDs %s, want the checkpoint's [1]", ids)
	}
	id, err := r.Submit(book("B", 1))
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("next Submit got ID %d, want the checkpoint's nextID 2", id)
	}
}
