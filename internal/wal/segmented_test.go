package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openSeg(t *testing.T, n int) (*SegmentedLog, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.wal")
	l, err := OpenSegmented(path, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func rec(typ uint8, payload string) Record {
	return Record{Type: typ, Payload: []byte(payload)}
}

func TestSegmentedRoundTripMergesBySequence(t *testing.T) {
	l, path := openSeg(t, 3)
	// Interleave appends across affinities so file order within a segment
	// differs from global order; replay must come back sequence-sorted.
	want := make(map[uint64][]Record)
	for i := 0; i < 30; i++ {
		recs := []Record{
			rec(1, fmt.Sprintf("a%d", i)),
			rec(2, fmt.Sprintf("b%d", i)),
		}
		seq, err := l.AppendBatch(int64(i%5), recs)
		if err != nil {
			t.Fatal(err)
		}
		if seq == 0 {
			t.Fatal("sequence number 0 assigned to a real batch")
		}
		want[seq] = recs
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("replayed %d batches, want 30", len(got))
	}
	var prev uint64
	for _, b := range got {
		if b.Seq <= prev {
			t.Fatalf("batches out of sequence order: %d after %d", b.Seq, prev)
		}
		prev = b.Seq
		w := want[b.Seq]
		if len(b.Records) != len(w) {
			t.Fatalf("batch %d has %d records, want %d", b.Seq, len(b.Records), len(w))
		}
		for i := range w {
			if b.Records[i].Type != w[i].Type || !bytes.Equal(b.Records[i].Payload, w[i].Payload) {
				t.Fatalf("batch %d record %d mismatch", b.Seq, i)
			}
		}
	}
}

func TestSegmentedAffinityRouting(t *testing.T) {
	l, _ := openSeg(t, 4)
	for i := 0; i < 8; i++ {
		if _, err := l.AppendBatch(2, []Record{rec(1, "x")}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Appends[2] != 8 {
		t.Fatalf("affinity 2 appends = %v, want all 8 on segment 2", st.Appends)
	}
	for i, n := range st.Appends {
		if i != 2 && n != 0 {
			t.Fatalf("segment %d got %d appends, want 0", i, n)
		}
	}
}

func TestSegmentedTornTailPerSegment(t *testing.T) {
	l, path := openSeg(t, 2)
	// Two batches on segment 0, one on segment 1.
	if _, err := l.AppendBatch(0, []Record{rec(1, "keep0")}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(1, []Record{rec(1, "keep1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(0, []Record{rec(1, "to be torn")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last bytes off segment 0; segment 1 stays intact.
	p0 := segmentPath(path, 0)
	data, err := os.ReadFile(p0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p0, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatalf("torn tail must not fail replay: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("replayed %d batches, want 2 (torn one dropped)", len(got))
	}
	if string(got[0].Records[0].Payload) != "keep0" || string(got[1].Records[0].Payload) != "keep1" {
		t.Fatalf("surviving batches wrong: %q %q", got[0].Records[0].Payload, got[1].Records[0].Payload)
	}
}

func TestSegmentedReopenResumesSequence(t *testing.T) {
	l, path := openSeg(t, 2)
	var last uint64
	for i := 0; i < 5; i++ {
		seq, err := l.AppendBatch(int64(i), []Record{rec(1, "x")})
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with a DIFFERENT segment count; numbering must still resume
	// past everything on disk.
	l2, err := OpenSegmented(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seq, err := l2.AppendBatch(3, []Record{rec(1, "y")})
	if err != nil {
		t.Fatal(err)
	}
	if seq <= last {
		t.Fatalf("reopened log reused sequence %d (last was %d)", seq, last)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || got[5].Seq != seq {
		t.Fatalf("merged replay across reopen: %d batches, tail seq %d", len(got), got[len(got)-1].Seq)
	}
}

func TestSegmentedTruncateClearsAllSegmentsAndStaleFiles(t *testing.T) {
	l, path := openSeg(t, 3)
	for i := 0; i < 9; i++ {
		if _, err := l.AppendBatch(int64(i), []Record{rec(1, "x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen narrower: segment 2 becomes a stale leftover.
	l2, err := OpenSegmented(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Truncate(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("%d batches survived truncate", len(got))
	}
	if _, err := os.Stat(segmentPath(path, 2)); !os.IsNotExist(err) {
		t.Fatalf("stale segment 2 survived truncate: %v", err)
	}
	// The log keeps working and keeps its monotone numbering.
	seq, err := l2.AppendBatch(0, []Record{rec(2, "after")})
	if err != nil {
		t.Fatal(err)
	}
	if seq < 9 {
		t.Fatalf("sequence counter reset by truncate: %d", seq)
	}
	got, err = ReadAll(path)
	if err != nil || len(got) != 1 || got[0].Records[0].Type != 2 {
		t.Fatalf("post-truncate replay: %v %v", got, err)
	}
}

func TestSegmentedTruncateUnpoisonsFailedSegment(t *testing.T) {
	l, path := openSeg(t, 2)
	if _, err := l.AppendBatch(0, []Record{rec(1, "before")}); err != nil {
		t.Fatal(err)
	}
	// Poison segment 0 as a failed write would (the field is latched by
	// append/sync error paths).
	l.segs[0].mu.Lock()
	l.segs[0].failed = errors.New("synthetic I/O failure")
	l.segs[0].mu.Unlock()
	if _, err := l.AppendBatch(0, []Record{rec(1, "refused")}); err == nil {
		t.Fatal("append to poisoned segment succeeded")
	}
	// Truncate is the checkpoint's escape hatch: the emptied segment is
	// consistent again and must accept appends.
	if err := l.Truncate(); err != nil {
		t.Fatalf("truncate of poisoned segment: %v", err)
	}
	if _, err := l.AppendBatch(0, []Record{rec(2, "after")}); err != nil {
		t.Fatalf("append after un-poisoning truncate: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil || len(got) != 1 || got[0].Records[0].Type != 2 {
		t.Fatalf("post-truncate replay: %v %v", got, err)
	}
}

func TestSegmentedGroupCommit(t *testing.T) {
	l, _ := openSeg(t, 1)
	l.SyncOnAppend = true
	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := l.AppendBatch(0, []Record{rec(1, fmt.Sprintf("p%d", i))})
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Appends[0] != n {
		t.Fatalf("appends = %d, want %d", st.Appends[0], n)
	}
	// Every batch was acknowledged by exactly one covering fsync: syncs
	// plus piggybacked group commits account for all appends. (Whether any
	// piggybacking happened is scheduling-dependent, so only the identity
	// is asserted unconditionally.)
	if st.Syncs[0]+st.GroupCommits != n {
		t.Fatalf("syncs %d + group commits %d != appends %d", st.Syncs[0], st.GroupCommits, n)
	}
	if st.Syncs[0] == 0 {
		t.Fatal("no fsync issued under SyncOnAppend")
	}
}

func TestSegmentedSyncedBatchSurvivesAbandon(t *testing.T) {
	l, path := openSeg(t, 2)
	l.SyncOnAppend = true
	if _, err := l.AppendBatch(0, []Record{rec(1, "durable")}); err != nil {
		t.Fatal(err)
	}
	// Crash without flush/close: the acknowledged batch must already be on
	// disk.
	l.Abandon()
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Records[0].Payload) != "durable" {
		t.Fatalf("synced batch lost on abandon: %v", got)
	}
}

func TestSegmentedCloseFlushesUnsyncedAppends(t *testing.T) {
	l, path := openSeg(t, 2)
	// SyncOnAppend off: appends are buffered/flushed but not fsynced.
	if _, err := l.AppendBatch(0, []Record{rec(1, "buffered")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil || len(got) != 1 {
		t.Fatalf("clean close lost buffered batch: %v %v", got, err)
	}
}

func TestSegmentedHooksInjectFailures(t *testing.T) {
	l, path := openSeg(t, 1)
	l.SyncOnAppend = true
	boom := errors.New("injected")
	calls := 0
	l.Hooks.AfterAppend = func(seq uint64) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	}
	if _, err := l.AppendBatch(0, []Record{rec(1, "first")}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(0, []Record{rec(1, "second")}); !errors.Is(err, boom) {
		t.Fatalf("hook error not propagated: %v", err)
	}
	l.Hooks.AfterAppend = nil
	l.Hooks.AfterSync = func(seq uint64) error { return boom }
	if _, err := l.AppendBatch(0, []Record{rec(1, "third")}); !errors.Is(err, boom) {
		t.Fatalf("after-sync hook error not propagated: %v", err)
	}
	l.Hooks.AfterSync = nil
	// The crash simulation: abandon and replay. The first batch was synced
	// and acknowledged. The second errored after buffering — but a failed
	// append may still become durable if the process lives long enough for
	// a later flush to carry it (here the third append's sync round), the
	// same ambiguity a crash between write and acknowledgment leaves. The
	// third was synced before its hook fired, so it too is durable despite
	// the caller seeing an error. Recovery's idempotent redo and re-solve
	// absorb both: an unacknowledged batch is a solver-validated intention
	// either way.
	l.Abandon()
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d batches, want 3 (failed appends may still be durable)", len(got))
	}
	if string(got[0].Records[0].Payload) != "first" || string(got[2].Records[0].Payload) != "third" {
		t.Fatalf("wrong survivors: %q %q", got[0].Records[0].Payload, got[2].Records[0].Payload)
	}
}

func TestSegmentedRejectsLegacyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.wal")
	// A legacy single-file log where a segment should be.
	writeLegacyLog(t, segmentPath(path, 0), rec(1, "legacy"))
	if _, err := OpenSegmented(path, 1); err == nil {
		t.Fatal("legacy-format file accepted as a segment")
	}
}

func TestSegmentedRejectsLegacyRootFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.wal")
	// A pre-segmentation deployment logged to <path> ITSELF. Opening or
	// replaying the segmented log rooted there must refuse — silently
	// globbing only <path>.N would "recover" zero batches and lose every
	// pending transaction without a word.
	writeLegacyLog(t, path, rec(1, "pending txn"))
	if _, err := OpenSegmented(path, 2); err == nil {
		t.Fatal("OpenSegmented silently ignored a legacy log at the root path")
	}
	if _, err := ReadAll(path); err == nil {
		t.Fatal("ReadAll silently ignored a legacy log at the root path")
	}
	// An empty root file (e.g. touched by tooling) is harmless.
	empty := filepath.Join(dir, "empty.wal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenSegmented(empty, 1)
	if err != nil {
		t.Fatalf("empty root file rejected: %v", err)
	}
	l.Close()
}

func TestSegmentedEmptyBatchIsNoOp(t *testing.T) {
	l, path := openSeg(t, 2)
	seq, err := l.AppendBatch(0, nil)
	if err != nil || seq != 0 {
		t.Fatalf("empty batch: seq=%d err=%v", seq, err)
	}
	l.Close()
	got, err := ReadAll(path)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch left something on disk: %v %v", got, err)
	}
}

// TestAppendAllocFree guards the scratch buffer: a steady-state
// SegmentedLog.AppendBatch (sync off) allocates nothing once buffers are
// warm.
func TestAppendAllocFree(t *testing.T) {
	r := Record{Type: 1, Payload: bytes.Repeat([]byte{0xCD}, 256)}
	sl, _ := openSeg(t, 2)
	recs := []Record{r, {Type: 2, Payload: []byte("tombstone")}}
	if _, err := sl.AppendBatch(1, recs); err != nil { // warm the scratch buffer
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := sl.AppendBatch(1, recs); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("SegmentedLog.AppendBatch allocates %.1f per batch, want 0", allocs)
	}
}
