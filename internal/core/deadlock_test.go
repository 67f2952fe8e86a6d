package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relstore"
	"repro/internal/txn"
)

// TestCreateTableDuringSolves races a Submit stream against CreateTable
// on the engine's store. CreateTable stays open on an owned store (and is
// reachable over the wire) and takes db.mu exclusively; a chain solve
// whose evaluator re-entered db.mu's read side from inside a scan
// callback would park behind that queued writer and never return. The
// test fails with a goroutine dump when Submit stalls, and checks from
// Stats that every Submit ran a solve under a view (the extension over
// the cached solution or a full solve) rather than a probe answer.
func TestCreateTableDuringSolves(t *testing.T) {
	db := worldDB([]int{1}, 300)
	q := mustQDB(t, db, Options{K: 8})

	var submitted atomic.Int64
	done, stop := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		// 200 stays below the flight's capacity: past it every Submit is a
		// pigeonhole unsatisfiability proof, too slow under -race.
		for i := 0; i < 200; i++ {
			if _, err := q.Submit(book(fmt.Sprintf("u%d", i), 1)); err != nil {
				if !errors.Is(err, ErrRejected) {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				if err := q.GroundAll(); err != nil {
					t.Errorf("GroundAll: %v", err)
					return
				}
			}
			submitted.Add(1)
		}
	}()
	created := make(chan struct{})
	go func() {
		defer close(created)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := relstore.Schema{Name: fmt.Sprintf("Side%d", i), Columns: []string{"a"}}
			if err := q.Store().CreateTable(s); err != nil {
				t.Errorf("CreateTable: %v", err)
				return
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()

	last, since := int64(-1), time.Now()
	for {
		select {
		case <-done:
			close(stop)
			<-created
			st := q.Stats()
			if n := submitted.Load(); int64(st.CacheHits+st.CacheMisses) != n || st.NegativeCacheHits != 0 {
				t.Fatalf("%d submits, %d extension + %d full solves, %d probe answers: want one solve each",
					n, st.CacheHits, st.CacheMisses, st.NegativeCacheHits)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
		if n := submitted.Load(); n != last {
			last, since = n, time.Now()
			continue
		}
		if time.Since(since) > 2*time.Second {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			close(stop)
			t.Fatalf("no Submit progress for 2s after %d submits:\n%s", last, buf)
		}
	}
}

// TestWriteReleasesUntouchedPartitions holds a blind write between its
// WAL append and its apply, then grounds a pending transaction whose
// partition the overlap index lists as a candidate for the write but
// which the write cannot touch: Pair(x, x) holds variables where the
// write's Pair(2, 3) holds constants, and only the exact unification
// test sees the repeated x. The write must have released that partition
// before logging, so the Ground finishes while the write is held.
func TestWriteReleasesUntouchedPartitions(t *testing.T) {
	db := relstore.NewDB()
	db.MustCreateTable(relstore.Schema{Name: "Pair", Columns: []string{"a", "b"}})
	db.MustCreateTable(relstore.Schema{Name: "Taken", Columns: []string{"a"}})
	db.MustInsert("Pair", tup(1, 1))
	q := mustQDB(t, db, Options{})
	id, err := q.Submit(txn.MustParse("-Pair(x, x), +Taken(x) :-1 Pair(x, x)"))
	if err != nil {
		t.Fatal(err)
	}

	var first atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	q.testCrashApply = func() error {
		if first.CompareAndSwap(false, true) {
			close(held)
			<-release
		}
		return nil
	}
	wrote := make(chan error, 1)
	go func() { wrote <- q.Write([]relstore.GroundFact{{Rel: "Pair", Tuple: tup(2, 3)}}, nil) }()
	<-held
	grounded := make(chan error, 1)
	go func() { grounded <- q.Ground(id) }()
	var gerr error
	select {
	case gerr = <-grounded:
		close(release)
	case <-time.After(2 * time.Second):
		close(release)
		<-wrote
		<-grounded
		t.Fatal("Ground blocked for 2s behind a write that cannot touch its partition")
	}
	if err := <-wrote; err != nil {
		t.Fatalf("Write: %v", err)
	}
	q.testCrashApply = nil
	if gerr != nil {
		t.Fatalf("Ground: %v", gerr)
	}
	if q.PendingCount() != 0 || q.Store().Len("Taken") != 1 || q.Store().Len("Pair") != 1 {
		t.Fatalf("pending %d, Taken %d rows, Pair %d rows; want 0, 1 and 1",
			q.PendingCount(), q.Store().Len("Taken"), q.Store().Len("Pair"))
	}
}
