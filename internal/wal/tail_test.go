package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// The in-memory tail must be invisible: for every resume point and cap,
// ReadFrom answered from the tails returns exactly what a flush-and-scan
// of the segment files returns. tailModel drives one log through a
// program of appends, truncations, repositioning, segment poisoning and
// reopens, and checks that after every step.

// Append sizes: a small body, one that fills the arena in a few hundred
// appends, one that fills it in a handful, and one larger than the arena.
const (
	tailSmall    = 48
	tailMedium   = 6 << 10
	tailLarge    = 160 << 10
	tailOversize = tailBytes + 1
)

type tailModel struct {
	tb   testing.TB
	path string
	l    *SegmentedLog
	n    int // payloads appended, so every payload is distinct
}

func newTailModel(tb testing.TB, segments int) *tailModel {
	m := &tailModel{tb: tb, path: filepath.Join(tb.TempDir(), "tail.wal")}
	m.open(segments)
	tb.Cleanup(func() { m.l.Close() })
	return m
}

func (m *tailModel) open(segments int) {
	l, err := OpenSegmented(m.path, segments)
	if err != nil {
		m.tb.Fatal(err)
	}
	m.l = l
}

// appendBatch appends a batch of one to three records whose payloads
// total about size bytes. Appends to a poisoned segment fail, which is
// part of the model.
func (m *tailModel) appendBatch(affinity int64, size int) {
	m.n++
	nrec := 1 + m.n%3
	recs := make([]Record, nrec)
	for i := range recs {
		p := bytes.Repeat([]byte{byte(m.n), byte(i)}, size/(2*nrec)+1)
		recs[i] = Record{Type: uint8(m.n), Payload: p}
	}
	m.l.AppendBatch(affinity, recs)
}

// poison fails the next write to segment i the way a dying disk would:
// its file descriptor goes away under the writer.
func (m *tailModel) poison(i int) {
	s := m.l.segs[i%len(m.l.segs)]
	s.mu.Lock()
	healthy := s.failed == nil && s.f != nil
	if healthy {
		s.f.Close()
	}
	s.mu.Unlock()
	if healthy {
		m.appendBatch(int64(i%len(m.l.segs)), tailSmall)
	}
}

func (m *tailModel) reopen(segments int) {
	m.l.Close()
	m.open(segments)
}

// run interprets prog as a program, two bytes per step: an operation and
// its argument. It checks the log after every step.
func (m *tailModel) run(prog []byte) {
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i]%16, prog[i+1]
		switch {
		case op < 6:
			m.appendBatch(int64(arg), 1+int(arg)%tailSmall)
		case op < 8:
			m.appendBatch(int64(arg), tailMedium+int(arg))
		case op < 10:
			m.appendBatch(int64(arg), tailLarge+int(arg))
		case op == 10:
			m.appendBatch(int64(arg), tailOversize)
		case op == 11:
			if err := m.l.TruncateBefore(m.l.Seq() * uint64(arg) / 255); err != nil {
				m.tb.Fatalf("TruncateBefore: %v", err)
			}
		case op == 12:
			// A poisoned segment's closed descriptor makes Truncate fail
			// part-way; the log must stay consistent regardless.
			m.l.Truncate()
		case op == 13:
			if m.l.Seq() == 0 {
				if err := m.l.Position(uint64(arg), uint64(arg%4)); err != nil {
					m.tb.Fatalf("Position: %v", err)
				}
			}
		case op == 14:
			m.poison(int(arg))
		default:
			m.reopen(1 + int(arg)%4)
		}
		m.check()
	}
}

// check compares ReadFrom with a forced file scan. Every resume point
// from the tail floor to Seq() is read capped at one and at three
// batches, which pins each batch's successor; uncapped reads, and the
// resume points below the floor (where ReadFrom is itself a file scan),
// are checked at a few points. Resume points at or above the floor must
// be answered from memory.
func (m *tailModel) check() {
	m.tb.Helper()
	l := m.l
	high, cut, floor := l.Seq(), l.truncatedBelow.Load(), l.tailFloor.Load()
	bodies, err := l.fileBodies(0, high)
	if err != nil {
		m.tb.Fatalf("file scan: %v", err)
	}
	all, err := decodeBodies(bodies, 0)
	if err != nil {
		m.tb.Fatalf("file scan: %v", err)
	}
	if cut > 0 {
		if _, err := l.ReadFrom(cut-1, 0); !errors.Is(err, ErrTruncated) {
			m.tb.Fatalf("ReadFrom(%d) below the cut %d: err = %v, want ErrTruncated", cut-1, cut, err)
		}
	}
	read := func(after uint64, max int) {
		want := all
		for len(want) > 0 && want[0].Seq <= after {
			want = want[1:]
		}
		if max > 0 && len(want) > max {
			want = want[:max]
		}
		scans := l.fileScans.Load()
		got, err := l.ReadFrom(after, max)
		if err != nil {
			m.tb.Fatalf("ReadFrom(%d, %d): %v", after, max, err)
		}
		if after >= floor && l.fileScans.Load() != scans {
			m.tb.Fatalf("ReadFrom(%d, %d) at tail floor %d scanned the files", after, max, floor)
		}
		if err := sameBatches(got, want); err != nil {
			m.tb.Fatalf("ReadFrom(%d, %d) (tail floor %d, seq %d): %v", after, max, floor, high, err)
		}
	}
	for _, after := range []uint64{cut, (cut + floor) / 2, floor - 1, floor, (floor + high) / 2, high - 1, high} {
		if after >= cut && after <= high {
			read(after, 0)
		}
	}
	for after := max(cut, floor); after <= high; after++ {
		read(after, 1)
		read(after, 3)
	}
}

func sameBatches(got, want []Batch) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d batches, file scan has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Term != w.Term || len(g.Records) != len(w.Records) {
			return fmt.Errorf("batch %d: seq %d term %d with %d records, file scan has seq %d term %d with %d",
				i, g.Seq, g.Term, len(g.Records), w.Seq, w.Term, len(w.Records))
		}
		for j := range g.Records {
			if g.Records[j].Type != w.Records[j].Type || !bytes.Equal(g.Records[j].Payload, w.Records[j].Payload) {
				return fmt.Errorf("batch %d (seq %d) record %d differs from the file's", i, g.Seq, j)
			}
		}
	}
	return nil
}

// TestTailReadFromMatchesFileScan runs seeded random programs over one to
// four segments, then the shapes a random program rarely reaches.
func TestTailReadFromMatchesFileScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			prog := make([]byte, 2*48)
			rng.Read(prog)
			newTailModel(t, 1+int(seed)%4).run(prog)
		})
	}
	t.Run("evict-by-bytes", func(t *testing.T) {
		m := newTailModel(t, 2)
		for i := 0; i < 20; i++ {
			m.appendBatch(int64(i), tailLarge)
		}
		if m.l.tailFloor.Load() == 0 {
			t.Fatal("3 MiB of appends to two segments evicted nothing")
		}
		m.check()
	})
	t.Run("evict-by-entries", func(t *testing.T) {
		m := newTailModel(t, 1)
		for i := 0; i < tailEntries+40; i++ {
			m.appendBatch(0, tailSmall)
		}
		if got := m.l.tailFloor.Load(); got != 40 {
			t.Fatalf("tail floor %d after %d appends, want 40", got, tailEntries+40)
		}
		m.check()
	})
	t.Run("oversize", func(t *testing.T) {
		m := newTailModel(t, 1)
		m.run([]byte{0, 0, 0, 1, 10, 0, 0, 2})
		if got := m.l.tailFloor.Load(); got != 3 {
			t.Fatalf("tail floor %d after an oversize third batch, want 3", got)
		}
	})
	t.Run("position-then-reopen", func(t *testing.T) {
		m := newTailModel(t, 3)
		m.run([]byte{13, 40, 0, 1, 6, 2, 0, 3, 15, 1, 0, 4, 0, 5})
	})
	t.Run("poison-then-truncate-before", func(t *testing.T) {
		m := newTailModel(t, 2)
		m.run([]byte{0, 0, 0, 1, 6, 0, 14, 0, 0, 0, 0, 1, 11, 128, 0, 0, 0, 1, 12, 0})
	})
}

// FuzzTailReadFrom fuzzes the same model: any program of appends,
// truncations, repositioning, poisoning and reopens keeps ReadFrom equal
// to a forced file scan at every resume point.
func FuzzTailReadFrom(f *testing.F) {
	f.Add(byte(2), []byte{0, 0, 0, 1, 0, 2, 11, 128, 0, 3})
	f.Add(byte(1), []byte{8, 0, 9, 0, 8, 0, 9, 0, 8, 0, 9, 0, 8, 0, 0, 1})
	f.Add(byte(4), []byte{13, 9, 0, 0, 14, 1, 0, 1, 15, 2, 0, 3})
	f.Add(byte(3), []byte{0, 0, 10, 1, 0, 2, 12, 0, 0, 3})
	f.Fuzz(func(t *testing.T, segments byte, prog []byte) {
		if len(prog) > 128 {
			prog = prog[:128]
		}
		newTailModel(t, 1+int(segments)%4).run(prog)
	})
}

// TestTailConcurrentAppendReadTruncate races appenders, tailing readers
// and TruncateBefore. The batches are large, so each segment's tail holds
// a few dozen and evicts as the run goes: a reader that falls behind
// crosses the floor and reads from the files, and evictions race the
// tail copies. Every reader must deliver every batch exactly once, in
// order and without a gap, with the payload it was appended with, and
// never see ErrTruncated: the truncator cuts only below what every
// reader has consumed. A further reader resumes at the tail floor itself,
// where evictions land mid-copy, and checks each answer for gaps. Run it
// under -race -count=10.
func TestTailConcurrentAppendReadTruncate(t *testing.T) {
	l, _ := openSeg(t, 3)
	const appenders, perAppender, readers = 3, 80, 2
	const total = appenders * perAppender

	var appended sync.Map // seq -> payload
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				size := 32
				if i%2 == 1 {
					size = 48 << 10
				}
				p := bytes.Repeat([]byte{byte(a), byte(i)}, size/2)
				seq, err := l.AppendBatch(int64(a), []Record{{Type: 1, Payload: p}})
				if err != nil {
					t.Error(err)
					return
				}
				appended.Store(seq, p)
			}
		}(a)
	}

	var acked [readers]atomic.Uint64
	got := make([]map[uint64][]byte, readers)
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		got[r] = make(map[uint64][]byte)
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			var last uint64
			for len(got[r]) < total && !t.Failed() {
				bs, err := l.ReadFrom(last, 2+5*r)
				if err != nil {
					t.Errorf("reader %d: ReadFrom(%d): %v", r, last, err)
					return
				}
				for _, b := range bs {
					// No append fails, so sequence numbers are dense.
					if b.Seq != last+1 {
						t.Errorf("reader %d: seq %d after %d", r, b.Seq, last)
						return
					}
					last = b.Seq
					got[r][b.Seq] = b.Records[0].Payload
				}
				acked[r].Store(last)
			}
		}(r)
	}

	stop := make(chan struct{})
	truncated := make(chan struct{})
	go func() {
		defer close(truncated)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			cut := acked[0].Load()
			for r := 1; r < readers; r++ {
				cut = min(cut, acked[r].Load())
			}
			if cut < last+16 {
				runtime.Gosched()
				continue
			}
			if err := l.TruncateBefore(cut); err != nil {
				t.Error(err)
				return
			}
			last = cut
		}
	}()

	edged := make(chan struct{})
	go func() {
		defer close(edged)
		for {
			select {
			case <-stop:
				return
			default:
			}
			after := l.tailFloor.Load()
			bs, err := l.ReadFrom(after, 4)
			if errors.Is(err, ErrTruncated) {
				continue
			}
			if err != nil {
				t.Errorf("edge reader: ReadFrom(%d): %v", after, err)
				return
			}
			for i, b := range bs {
				if b.Seq != after+1+uint64(i) {
					t.Errorf("edge reader: ReadFrom(%d) returned seq %d in place %d", after, b.Seq, i)
					return
				}
			}
		}
	}()

	wg.Wait()
	rwg.Wait()
	close(stop)
	<-truncated
	<-edged
	if t.Failed() {
		return
	}
	for r := range got {
		if len(got[r]) != total {
			t.Fatalf("reader %d delivered %d batches, want %d", r, len(got[r]), total)
		}
		for seq, p := range got[r] {
			want, ok := appended.Load(seq)
			if !ok || !bytes.Equal(p, want.([]byte)) {
				t.Fatalf("reader %d: seq %d payload differs from the appended one", r, seq)
			}
		}
	}
}
