package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReadFromBasicTail appends across segments and tails the log in
// increments, checking each poll returns exactly the batches above the
// resume point, merged in global sequence order.
func TestReadFromBasicTail(t *testing.T) {
	l, _ := openSeg(t, 3)
	var seqs []uint64
	for i := 0; i < 12; i++ {
		seq, err := l.AppendBatch(int64(i), []Record{rec(1, fmt.Sprintf("b%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	var acked uint64
	var got []uint64
	for {
		// Cap the poll at 5 batches to exercise resumption mid-stream.
		bs, err := l.ReadFrom(acked, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(bs) == 0 {
			break
		}
		if len(bs) > 5 {
			t.Fatalf("ReadFrom(%d, 5) returned %d batches", acked, len(bs))
		}
		for _, b := range bs {
			got = append(got, b.Seq)
		}
		acked = bs[len(bs)-1].Seq
	}
	if len(got) != len(seqs) {
		t.Fatalf("tailed %d batches, want %d", len(got), len(seqs))
	}
	for i, s := range got {
		if s != seqs[i] {
			t.Fatalf("position %d: got seq %d, want %d", i, s, seqs[i])
		}
	}
}

// TestReadFromSeesBufferedBatches checks that a batch acknowledged in
// SyncOnAppend=false mode (flushed to the OS, never fsynced) is visible
// to the tail read immediately.
func TestReadFromSeesBufferedBatches(t *testing.T) {
	l, _ := openSeg(t, 1)
	seq, err := l.AppendBatch(0, []Record{rec(1, "x")})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := l.ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 || bs[0].Seq != seq {
		t.Fatalf("ReadFrom(0) = %v, want the single batch seq %d", bs, seq)
	}
	if string(bs[0].Records[0].Payload) != "x" {
		t.Fatalf("payload %q, want %q", bs[0].Records[0].Payload, "x")
	}
}

// TestReadFromTruncatedResume checks the re-bootstrap signal: a resume
// point below a TruncateBefore cut must observe ErrTruncated rather
// than a silent gap, while a resume point at or above the cut keeps
// tailing.
func TestReadFromTruncatedResume(t *testing.T) {
	l, _ := openSeg(t, 2)
	var seqs []uint64
	for i := 0; i < 8; i++ {
		seq, err := l.AppendBatch(int64(i), []Record{rec(1, "x")})
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	cut := seqs[4]
	if err := l.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadFrom(cut-1, 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFrom below the cut: err = %v, want ErrTruncated", err)
	}
	bs, err := l.ReadFrom(cut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("ReadFrom(cut) returned %d batches, want the 3 survivors", len(bs))
	}
	// A full Truncate invalidates every resume point below Seq().
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadFrom(seqs[6], 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFrom after full Truncate: err = %v, want ErrTruncated", err)
	}
	if bs, err := l.ReadFrom(seqs[7], 0); err != nil || len(bs) != 0 {
		t.Fatalf("ReadFrom(Seq()) after Truncate = %v, %v; want empty, nil", bs, err)
	}
}

// TestReadFromConcurrentAppend is the streaming-read race the truncation
// tests left uncovered: a tailing reader polls ReadFrom while appenders
// race 100 appends across segments and a TruncateBefore prunes below the
// reader's published watermark (the checkpoint discipline: a leader only
// truncates what its subscribers acked). Run under -race in CI. The
// reader must deliver every committed sequence number exactly once, in
// order, with no poll ever observing ErrTruncated.
func TestReadFromConcurrentAppend(t *testing.T) {
	l, _ := openSeg(t, 4)
	const appenders, perAppender = 4, 25

	var acked atomic.Uint64 // reader's published watermark
	var failed atomic.Bool  // lets the reader bail instead of spinning
	errs := make(chan error, appenders+2)
	fail := func(err error) {
		failed.Store(true)
		errs <- err
	}
	appended := make([]uint64, 0, appenders*perAppender)
	var appendedMu sync.Mutex
	var appendWG sync.WaitGroup
	for a := 0; a < appenders; a++ {
		appendWG.Add(1)
		go func(a int) {
			defer appendWG.Done()
			for i := 0; i < perAppender; i++ {
				seq, err := l.AppendBatch(int64(a), []Record{rec(1, fmt.Sprintf("a%d-%d", a, i))})
				if err != nil {
					fail(err)
					return
				}
				appendedMu.Lock()
				appended = append(appended, seq)
				appendedMu.Unlock()
			}
		}(a)
	}
	// Truncator: repeatedly prune below what the reader already consumed.
	stop := make(chan struct{})
	truncDone := make(chan struct{})
	go func() {
		defer close(truncDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if cut := acked.Load(); cut > 0 {
				if err := l.TruncateBefore(cut); err != nil {
					fail(err)
					return
				}
			}
		}
	}()
	// Reader: tail until every append is seen.
	seen := make([]uint64, 0, appenders*perAppender)
	seenSet := make(map[uint64]bool)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(seen) < appenders*perAppender && !failed.Load() {
			bs, err := l.ReadFrom(acked.Load(), 0)
			if err != nil {
				fail(fmt.Errorf("reader: %w", err))
				return
			}
			for _, b := range bs {
				if seenSet[b.Seq] {
					fail(fmt.Errorf("reader: seq %d delivered twice", b.Seq))
					return
				}
				if len(seen) > 0 && b.Seq <= seen[len(seen)-1] {
					fail(fmt.Errorf("reader: seq %d out of order after %d", b.Seq, seen[len(seen)-1]))
					return
				}
				seenSet[b.Seq] = true
				seen = append(seen, b.Seq)
			}
			if len(bs) > 0 {
				acked.Store(bs[len(bs)-1].Seq)
			}
		}
	}()
	appendWG.Wait()
	<-done
	close(stop)
	<-truncDone
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != appenders*perAppender {
		t.Fatalf("reader saw %d batches, want %d", len(seen), appenders*perAppender)
	}
	appendedMu.Lock()
	defer appendedMu.Unlock()
	for _, s := range appended {
		if !seenSet[s] {
			t.Fatalf("committed seq %d never delivered", s)
		}
	}
}
