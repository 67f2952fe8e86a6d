package wal

import (
	"fmt"
	"os"
	"sync"
	"testing"
)

// TestTruncateBeforeDropsCoveredBatches appends across two segments,
// truncates below a cut, and checks replay returns exactly the batches
// above it — the fuzzy-checkpoint contract: everything at or below the
// checkpoint's WAL stamp is gone, everything newer survives in order.
func TestTruncateBeforeDropsCoveredBatches(t *testing.T) {
	l, path := openSeg(t, 2)
	seqs := make([]uint64, 0, 10)
	for i := 0; i < 10; i++ {
		seq, err := l.AppendBatch(int64(i), []Record{rec(1, fmt.Sprintf("b%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	cut := seqs[5]
	if err := l.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}

	// New appends continue the sequence above the cut on the live log.
	post, err := l.AppendBatch(0, []Record{rec(1, "post")})
	if err != nil {
		t.Fatal(err)
	}
	if post <= seqs[9] {
		t.Fatalf("post-truncate seq %d did not advance past %d", post, seqs[9])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]uint64(nil), seqs[6:]...), post)
	if len(got) != len(want) {
		t.Fatalf("replayed %d batches, want %d", len(got), len(want))
	}
	for i, b := range got {
		if b.Seq != want[i] {
			t.Fatalf("batch %d has seq %d, want %d", i, b.Seq, want[i])
		}
		if b.Seq <= cut {
			t.Fatalf("batch %d (seq %d) survived a cut at %d", i, b.Seq, cut)
		}
	}
}

// TestTruncateBeforeReopenResumesSequence checks a reopened log resumes
// numbering from the surviving tail, not from the truncated floor.
func TestTruncateBeforeReopenResumesSequence(t *testing.T) {
	l, path := openSeg(t, 2)
	var last uint64
	for i := 0; i < 6; i++ {
		seq, err := l.AppendBatch(int64(i), []Record{rec(1, "x")})
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	if err := l.TruncateBefore(last - 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSegmented(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seq, err := re.AppendBatch(0, []Record{rec(1, "resumed")})
	if err != nil {
		t.Fatal(err)
	}
	if seq <= last {
		t.Fatalf("reopened log assigned seq %d, want > %d", seq, last)
	}
}

// TestTruncateBeforeEverything cuts above every batch: all segment
// files end up holding nothing but their header, and replay is empty.
func TestTruncateBeforeEverything(t *testing.T) {
	l, path := openSeg(t, 2)
	var last uint64
	for i := 0; i < 4; i++ {
		seq, err := l.AppendBatch(int64(i), []Record{rec(1, "x")})
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	if err := l.TruncateBefore(last); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("replayed %d batches after a full cut, want 0", len(got))
	}
}

// TestTruncateBeforeRemovesStaleSegments reproduces a reconfiguration
// shape: a log reopened with fewer segments still
// owns old higher-index segment files. TruncateBefore must filter those
// too — covered batches in a stale file would otherwise resurrect on
// recovery — and remove the ones left empty.
func TestTruncateBeforeRemovesStaleSegments(t *testing.T) {
	l, path := openSeg(t, 3)
	var seqs []uint64
	for aff := int64(0); aff < 3; aff++ {
		seq, err := l.AppendBatch(aff, []Record{rec(1, fmt.Sprintf("s%d", aff))})
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen narrower: segment 2's file is now stale but still on disk.
	re, err := OpenSegmented(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.TruncateBefore(seqs[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segmentPath(path, 2)); !os.IsNotExist(err) {
		t.Fatalf("stale segment not removed after full cut: %v", err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("%d batches survived a cut covering everything", len(got))
	}
}

// TestTruncateBeforeConcurrentAppends races TruncateBefore against
// appenders (the fuzzy-checkpoint shape: groundings keep logging while
// the checkpoint prunes). Every batch appended after the cut was taken
// must survive, in order, regardless of interleaving.
func TestTruncateBeforeConcurrentAppends(t *testing.T) {
	l, path := openSeg(t, 2)
	var pre []uint64
	for i := 0; i < 8; i++ {
		seq, err := l.AppendBatch(int64(i), []Record{rec(1, "pre")})
		if err != nil {
			t.Fatal(err)
		}
		pre = append(pre, seq)
	}
	cut := pre[len(pre)-1]

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs <- l.TruncateBefore(cut)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := l.AppendBatch(int64(i), []Record{rec(1, fmt.Sprintf("post%d", i))}); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("replayed %d batches, want the 50 post-cut appends", len(got))
	}
	var prev uint64
	for _, b := range got {
		if b.Seq <= cut {
			t.Fatalf("seq %d survived the cut at %d", b.Seq, cut)
		}
		if b.Seq <= prev {
			t.Fatalf("out of order: %d after %d", b.Seq, prev)
		}
		prev = b.Seq
	}
}
