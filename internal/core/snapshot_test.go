package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/value"
)

func availQuery(f int) []logic.Atom {
	return []logic.Atom{logic.NewAtom("Available",
		logic.Const(value.NewInt(int64(f))), logic.Var("s"))}
}

// TestSnapshotIsolationUnderChurn pins snapshots and re-reads them while
// submits, groundings, blind writes, and collapsing reads churn the
// engine (run under -race in CI). Every re-read of a pinned snapshot
// must return exactly the row set it was pinned with — the snapshot-
// isolation contract of the copy-on-write store.
func TestSnapshotIsolationUnderChurn(t *testing.T) {
	const flights = 4
	var fs []int
	for f := 1; f <= flights; f++ {
		fs = append(fs, f)
	}
	db := worldDB(fs, 6)
	q := mustQDB(t, db, Options{Workers: 4})

	var wg sync.WaitGroup
	for f := 1; f <= flights; f++ {
		f := f
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, err := q.Submit(book(fmt.Sprintf("f%du%d", f, i), f)); err != nil && !errors.Is(err, ErrRejected) {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
		// One snapshot reader per flight: pin, then repeatedly verify the
		// pinned view while the collapse storm rages.
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap := q.Snapshot()
			defer snap.Release()
			epoch := snap.Epoch()
			base, err := q.QueryAt(snap, availQuery(f))
			if err != nil {
				t.Errorf("snapshot read: %v", err)
				return
			}
			for i := 0; i < 50; i++ {
				sols, err := q.QueryAt(snap, availQuery(f))
				if err != nil {
					t.Errorf("snapshot re-read: %v", err)
					return
				}
				if sols.N != base.N {
					t.Errorf("flight %d: pinned snapshot moved: %d rows, pinned %d", f, sols.N, base.N)
					return
				}
				if snap.Epoch() != epoch {
					t.Errorf("flight %d: snapshot epoch moved", f)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := q.GroundAll(); err != nil {
				t.Errorf("groundall: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	if n := q.Stats().SnapshotsLive; n != 0 {
		t.Fatalf("%d snapshots still pinned after the storm", n)
	}
}

// TestSlowSnapshotReadDoesNotDelayGround is the gate-freedom check in
// its most direct form: a snapshot held open across a grounding must
// not block it (the pre-MVCC read path held the store gate shared for
// the whole evaluation, which a grounding's exclusive apply had to wait
// out). The grounding runs to completion WHILE the snapshot is pinned,
// the pinned view stays pre-collapse, and a fresh read then sees the
// collapsed world.
func TestSlowSnapshotReadDoesNotDelayGround(t *testing.T) {
	db := worldDB([]int{1}, 6)
	q := mustQDB(t, db, Options{})
	id, err := q.Submit(book("A", 1))
	if err != nil {
		t.Fatal(err)
	}

	if st := q.Stats(); st.CowCopies != 0 || st.CowBytes != 0 {
		t.Fatalf("copy-on-write counted with no snapshot ever pinned: %d copies, %d bytes", st.CowCopies, st.CowBytes)
	}
	snap := q.Snapshot() // the "slow analytical read" holds its view...
	defer snap.Release()
	if err := q.Ground(id); err != nil { // ...and grounding proceeds anyway
		t.Fatalf("Ground blocked or failed under a live snapshot: %v", err)
	}
	// The grounding wrote tables the snapshot pins: the pages it touched
	// were copied, and Stats says so.
	if st := q.Stats(); st.CowCopies == 0 || st.CowBytes == 0 {
		t.Fatalf("write under a live snapshot counted %d copies, %d bytes", st.CowCopies, st.CowBytes)
	}
	sols, err := q.QueryAt(snap, availQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	if sols.N != 6 {
		t.Fatalf("pinned snapshot saw %d available seats, want the pre-collapse 6", sols.N)
	}
	booked := []logic.Atom{logic.NewAtom("Bookings", logic.Var("n"),
		logic.Const(value.NewInt(1)), logic.Var("s"))}
	if sols, err := q.QueryAt(snap, booked); err != nil || sols.N != 0 {
		t.Fatalf("pinned snapshot sees the post-pin booking (%+v, err %v)", sols, err)
	}
	// A fresh snapshot sees the collapsed world.
	if sols, err := q.QuerySnapshot(booked); err != nil || sols.N != 1 {
		t.Fatalf("fresh snapshot: %+v, err %v, want 1 booking", sols, err)
	}
}

// TestReadNoAffectedUsesSnapshotPath: a collapsing Read whose query
// unifies with no pending transaction is answered on the snapshot path
// (gate-free evaluation), visible as a SnapshotReads increment.
func TestReadNoAffectedUsesSnapshotPath(t *testing.T) {
	db := worldDB([]int{1, 2}, 3)
	q := mustQDB(t, db, Options{})
	if _, err := q.Submit(book("A", 2)); err != nil { // pending on flight 2 only
		t.Fatal(err)
	}
	sols, err := q.Read(availQuery(1)) // flight 1: nothing pending unifies
	if err != nil {
		t.Fatal(err)
	}
	if sols.N != 3 {
		t.Fatalf("read %d rows, want 3", sols.N)
	}
	s := q.Stats()
	if s.SnapshotReads != 1 {
		t.Fatalf("SnapshotReads = %d, want 1 (unaffected Read must take the snapshot path)", s.SnapshotReads)
	}
	if s.Grounded != 0 {
		t.Fatalf("unaffected read collapsed %d transactions", s.Grounded)
	}
	if s.SnapshotsLive != 0 {
		t.Fatalf("read leaked %d snapshot pins", s.SnapshotsLive)
	}
}
