package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relstore"
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
