package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/formula"
	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/value"
)

func tup(vs ...any) value.Tuple {
	t := make(value.Tuple, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case int:
			t[i] = value.NewInt(int64(x))
		case string:
			t[i] = value.NewString(x)
		default:
			panic("tup: unsupported type")
		}
	}
	return t
}

// worldDB builds the travel schema with the given flights, each seating
// nSeats in rows of three with paper-style adjacency (§5.2).
func worldDB(flights []int, nSeats int) *relstore.DB {
	db := relstore.NewDB()
	db.MustCreateTable(relstore.Schema{Name: "Flights", Columns: []string{"fno", "dest"}, Key: []int{0}})
	db.MustCreateTable(relstore.Schema{Name: "Available", Columns: []string{"fno", "sno"}})
	db.MustCreateTable(relstore.Schema{Name: "Bookings", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
	db.MustCreateTable(relstore.Schema{Name: "Adjacent", Columns: []string{"fno", "s1", "s2"}})
	for _, f := range flights {
		db.MustInsert("Flights", tup(f, "LA"))
		for r := 0; r*3 < nSeats; r++ {
			var rowSeats []string
			for c := 0; c < 3 && r*3+c < nSeats; c++ {
				s := fmt.Sprintf("%d%c", r+1, 'A'+c)
				rowSeats = append(rowSeats, s)
				db.MustInsert("Available", tup(f, s))
			}
			for i := 0; i+1 < len(rowSeats); i++ {
				db.MustInsert("Adjacent", tup(f, rowSeats[i], rowSeats[i+1]))
				db.MustInsert("Adjacent", tup(f, rowSeats[i+1], rowSeats[i]))
			}
		}
	}
	return db
}

// book returns a plain booking transaction for user on flight f.
func book(user string, f int) *txn.T {
	t := txn.MustParse(fmt.Sprintf("-Available(%d, s), +Bookings('%s', %d, s) :-1 Available(%d, s)", f, user, f, f))
	t.Tag = user
	return t
}

// bookSeat requests one specific seat (a hard constraint).
func bookSeat(user string, f int, seat string) *txn.T {
	t := txn.MustParse(fmt.Sprintf("-Available(%d, '%s'), +Bookings('%s', %d, '%s') :-1 Available(%d, '%s')",
		f, seat, user, f, seat, f, seat))
	t.Tag = user
	return t
}

// bookNextTo books any seat on f, optionally adjacent to friend's booking
// (the entangled pattern of Figure 1 / §5.1).
func bookNextTo(user, friend string, f int) *txn.T {
	t := txn.MustParse(fmt.Sprintf(
		"-Available(%d, s), +Bookings('%s', %d, s) :-1 Available(%d, s), ?Bookings('%s', %d, m), ?Adjacent(%d, s, m)",
		f, user, f, f, friend, f, f))
	t.Tag = user
	t.PartnerTag = friend
	return t
}

func mustQDB(t *testing.T, db *relstore.DB, opt Options) *QDB {
	t.Helper()
	q, err := New(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

func TestSubmitDefersExecution(t *testing.T) {
	db := worldDB([]int{1}, 3)
	q := mustQDB(t, db, Options{})
	id, err := q.Submit(book("Mickey", 1))
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("no ID assigned")
	}
	// Committed but not executed: the store is untouched.
	if n := db.Len("Bookings"); n != 0 {
		t.Fatalf("bookings after commit = %d, want 0 (deferred)", n)
	}
	if n := db.Len("Available"); n != 3 {
		t.Fatalf("available after commit = %d, want 3", n)
	}
	if q.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", q.PendingCount())
	}
	// Grounding executes the update portion.
	if err := q.Ground(id); err != nil {
		t.Fatal(err)
	}
	if n := db.Len("Bookings"); n != 1 {
		t.Fatalf("bookings after ground = %d, want 1", n)
	}
	if q.PendingCount() != 0 {
		t.Fatalf("pending after ground = %d, want 0", q.PendingCount())
	}
}

func TestSubmitRejectsWhenWorldsEmpty(t *testing.T) {
	db := worldDB([]int{1}, 2)
	q := mustQDB(t, db, Options{})
	for _, u := range []string{"A", "B"} {
		if _, err := q.Submit(book(u, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Third booking on a 2-seat flight must be rejected and leave state
	// intact.
	_, err := q.Submit(book("C", 1))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if q.PendingCount() != 2 {
		t.Fatalf("pending after reject = %d, want 2", q.PendingCount())
	}
	st := q.Stats()
	if st.Rejected != 1 || st.Accepted != 2 || st.Submitted != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// The two accepted transactions still ground fine.
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	if n := db.Len("Bookings"); n != 2 {
		t.Fatalf("bookings = %d, want 2", n)
	}
}

func TestSubmitValidatesTxn(t *testing.T) {
	q := mustQDB(t, worldDB([]int{1}, 3), Options{})
	bad := &txn.T{Body: []txn.BodyAtom{{Atom: logic.NewAtom("Available", logic.Int(1), logic.Var("s"))}}}
	if _, err := q.Submit(bad); err == nil {
		t.Fatal("empty-update txn accepted")
	}
}

// seatOf returns the first row's value of the query variable s.
func seatOf(rows *relstore.RowSet) value.Value {
	v, _ := rows.Cell(0, rows.Col("s"))
	return v
}

func TestReadForcesGroundingAndIsRepeatable(t *testing.T) {
	db := worldDB([]int{1}, 6)
	q := mustQDB(t, db, Options{})
	if _, err := q.Submit(book("Mickey", 1)); err != nil {
		t.Fatal(err)
	}
	query := []logic.Atom{logic.NewAtom("Bookings", logic.Str("Mickey"), logic.Var("f"), logic.Var("s"))}
	sols, err := q.Read(query)
	if err != nil {
		t.Fatal(err)
	}
	if sols.N != 1 {
		t.Fatalf("read returned %d rows, want 1", sols.N)
	}
	seat := seatOf(sols)
	if q.PendingCount() != 0 {
		t.Fatal("read did not collapse the pending txn")
	}
	st := q.Stats()
	if st.ForcedByRead != 1 || st.Reads != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Repeatable: the same read returns the same seat.
	sols2, err := q.Read(query)
	if err != nil || sols2.N != 1 {
		t.Fatalf("second read: %v, %+v", err, sols2)
	}
	if seatOf(sols2) != seat {
		t.Fatalf("read not repeatable: %v then %v", seat, seatOf(sols2))
	}
}

func TestReadUnrelatedDoesNotCollapse(t *testing.T) {
	db := worldDB([]int{1, 2}, 3)
	q := mustQDB(t, db, Options{})
	if _, err := q.Submit(book("Mickey", 1)); err != nil {
		t.Fatal(err)
	}
	// Reading flight 2's bookings does not unify with Mickey's pending
	// update on flight 1 (distinct flight constants).
	if _, err := q.Read([]logic.Atom{
		logic.NewAtom("Bookings", logic.Var("n"), logic.Int(2), logic.Var("s")),
	}); err != nil {
		t.Fatal(err)
	}
	if q.PendingCount() != 1 {
		t.Fatal("unrelated read collapsed a pending txn")
	}
	// Reading the Flights relation never collapses (no pending updates
	// touch it).
	if _, err := q.Read([]logic.Atom{logic.NewAtom("Flights", logic.Var("f"), logic.Var("d"))}); err != nil {
		t.Fatal(err)
	}
	if q.PendingCount() != 1 {
		t.Fatal("read of untouched relation collapsed a pending txn")
	}
}

// TestPlutoTakesMickeysOptionalSeat reproduces the §2 design decision:
// optional constraints yield to later hard constraints.
func TestPlutoTakesMickeysOptionalSeat(t *testing.T) {
	db := worldDB([]int{1}, 6)
	// Goofy already holds 1B extensionally.
	if err := db.Apply(
		[]relstore.GroundFact{{Rel: "Bookings", Tuple: tup("Goofy", 1, "1B")}},
		[]relstore.GroundFact{{Rel: "Available", Tuple: tup(1, "1B")}},
	); err != nil {
		t.Fatal(err)
	}
	q := mustQDB(t, db, Options{})
	// Mickey wants any seat, preferably next to Goofy (1A or 1C).
	mID, err := q.Submit(bookNextTo("Mickey", "Goofy", 1))
	if err != nil {
		t.Fatal(err)
	}
	// Pluto hard-requests 1A.
	if _, err := q.Submit(bookSeat("Pluto", 1, "1A")); err != nil {
		t.Fatalf("Pluto's hard request rejected: %v", err)
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	// Pluto must hold 1A; Mickey should have been reseated to 1C (still
	// adjacent to Goofy, optional satisfied).
	if !db.Contains("Bookings", tup("Pluto", 1, "1A")) {
		t.Error("Pluto did not get 1A")
	}
	if !db.Contains("Bookings", tup("Mickey", 1, "1C")) {
		rows := db.All("Bookings")
		t.Errorf("Mickey not in 1C; bookings: %v", rows)
	}
	_ = mID
}

func TestKBoundForcesOldestGrounding(t *testing.T) {
	db := worldDB([]int{1}, 12)
	q := mustQDB(t, db, Options{K: 2})
	ids := make([]int64, 4)
	for i := range ids {
		id, err := q.Submit(book(fmt.Sprintf("u%d", i), 1))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// With k=2, submitting 4 means the two oldest were force-grounded.
	if q.PendingCount() != 2 {
		t.Fatalf("pending = %d, want 2", q.PendingCount())
	}
	st := q.Stats()
	if st.ForcedByK != 2 || st.Grounded != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// The grounded ones are the oldest: u0 and u1 are booked.
	for i := 0; i < 2; i++ {
		sols, err := q.Read([]logic.Atom{
			logic.NewAtom("Bookings", logic.Str(fmt.Sprintf("u%d", i)), logic.Int(1), logic.Var("s")),
		})
		if err != nil || sols.N != 1 {
			t.Fatalf("u%d not booked: %v %+v", i, err, sols)
		}
	}
}

func TestPartitionIndependenceAndMerge(t *testing.T) {
	db := worldDB([]int{1, 2}, 6)
	q := mustQDB(t, db, Options{})
	if _, err := q.Submit(book("A", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(book("B", 2)); err != nil {
		t.Fatal(err)
	}
	if got := q.Partitions(); len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Fatalf("partitions = %v, want [1 1]", got)
	}
	// A flight-agnostic booking unifies with both and merges them.
	fa := txn.MustParse("-Available(f, s), +Bookings('C', f, s) :-1 Available(f, s)")
	if _, err := q.Submit(fa); err != nil {
		t.Fatal(err)
	}
	if got := q.Partitions(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("partitions after merge = %v, want [3]", got)
	}
	if st := q.Stats(); st.PartitionMerges != 1 {
		t.Fatalf("PartitionMerges = %d, want 1", st.PartitionMerges)
	}
}

func TestWriteRejectedWhenItEmptiesWorlds(t *testing.T) {
	db := worldDB([]int{1}, 3)
	q := mustQDB(t, db, Options{})
	for _, u := range []string{"A", "B", "C"} {
		if _, err := q.Submit(book(u, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Deleting a seat now would leave only 2 seats for 3 pending txns.
	err := q.Write(nil, []relstore.GroundFact{{Rel: "Available", Tuple: tup(1, "1A")}})
	if !errors.Is(err, ErrWriteRejected) {
		t.Fatalf("err = %v, want ErrWriteRejected", err)
	}
	if !db.Contains("Available", tup(1, "1A")) {
		t.Fatal("rejected write mutated the store")
	}
	// Adding a seat is always fine.
	if err := q.Write([]relstore.GroundFact{{Rel: "Available", Tuple: tup(1, "9Z")}}, nil); err != nil {
		t.Fatal(err)
	}
	// Now there is slack: deleting one seat succeeds.
	if err := q.Write(nil, []relstore.GroundFact{{Rel: "Available", Tuple: tup(1, "1A")}}); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.WritesAccepted != 2 || st.WritesRejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := q.GroundAll(); err != nil {
		t.Fatalf("grounding after writes: %v", err)
	}
}

func TestWriteInvalidFact(t *testing.T) {
	q := mustQDB(t, worldDB([]int{1}, 3), Options{})
	if err := q.Write(nil, []relstore.GroundFact{{Rel: "Available", Tuple: tup(1, "nope")}}); err == nil {
		t.Fatal("delete of absent tuple accepted")
	}
	if err := q.Write([]relstore.GroundFact{{Rel: "Available", Tuple: tup(1, "1A")}}, nil); err == nil {
		t.Fatal("duplicate insert accepted")
	}
}

func TestGroundUnknownTxn(t *testing.T) {
	q := mustQDB(t, worldDB([]int{1}, 3), Options{})
	if err := q.Ground(99); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("err = %v, want ErrUnknownTxn", err)
	}
}

func TestSemanticReorderOnRead(t *testing.T) {
	db := worldDB([]int{1}, 6)
	q := mustQDB(t, db, Options{Mode: Semantic})
	if _, err := q.Submit(book("First", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(book("Second", 1)); err != nil {
		t.Fatal(err)
	}
	// Reading Second's booking grounds only Second under semantic mode.
	sols, err := q.Read([]logic.Atom{
		logic.NewAtom("Bookings", logic.Str("Second"), logic.Int(1), logic.Var("s")),
	})
	if err != nil || sols.N != 1 {
		t.Fatalf("read: %v, %+v", err, sols)
	}
	if q.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1 (First still pending)", q.PendingCount())
	}
	st := q.Stats()
	if st.SemanticReorders != 1 {
		t.Fatalf("SemanticReorders = %d, want 1", st.SemanticReorders)
	}
}

func TestStrictModeGroundsPrefix(t *testing.T) {
	db := worldDB([]int{1}, 6)
	q := mustQDB(t, db, Options{Mode: Strict})
	if _, err := q.Submit(book("First", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(book("Second", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Read([]logic.Atom{
		logic.NewAtom("Bookings", logic.Str("Second"), logic.Int(1), logic.Var("s")),
	}); err != nil {
		t.Fatal(err)
	}
	// Strict grounds First too.
	if q.PendingCount() != 0 {
		t.Fatalf("pending = %d, want 0 under strict", q.PendingCount())
	}
	if n := db.Len("Bookings"); n != 2 {
		t.Fatalf("bookings = %d, want 2", n)
	}
}

// TestSemanticReorderPreservesLateComer: semantic reordering must refuse
// reorders that strand earlier transactions. Seat-specific case: First
// wants any seat, Second wants specifically 1A; with only 1A and 1B left
// and a read forcing Second first, Second must NOT take First's only
// option in a way that breaks First. Both orders work here (First takes
// 1B), so this documents that the reorder checks the full chain.
func TestSemanticReorderChecksWholeChain(t *testing.T) {
	db := worldDB([]int{1}, 2) // seats 1A, 1B
	q := mustQDB(t, db, Options{Mode: Semantic})
	if _, err := q.Submit(bookSeat("First", 1, "1A")); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(book("Second", 1)); err != nil {
		t.Fatal(err)
	}
	// Ground Second first (move-to-front). Second must get 1B: taking 1A
	// would strand First, so the solver backtracks.
	sols, err := q.Read([]logic.Atom{
		logic.NewAtom("Bookings", logic.Str("Second"), logic.Int(1), logic.Var("s")),
	})
	if err != nil || sols.N != 1 {
		t.Fatalf("read: %v, %+v", err, sols)
	}
	if got := seatOf(sols); got != value.NewString("1B") {
		t.Fatalf("Second's seat = %v, want 1B (1A reserved for First)", got)
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	if !db.Contains("Bookings", tup("First", 1, "1A")) {
		t.Error("First lost the seat the invariant promised")
	}
}

func TestCacheHitsOnIndependentSubmissions(t *testing.T) {
	db := worldDB([]int{1}, 30)
	q := mustQDB(t, db, Options{})
	for i := 0; i < 10; i++ {
		if _, err := q.Submit(book(fmt.Sprintf("u%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := q.Stats()
	if st.CacheHits < 8 {
		t.Fatalf("cache hits = %d, want most of 10 admissions", st.CacheHits)
	}
}

func TestGroundPairCoordinates(t *testing.T) {
	db := worldDB([]int{1}, 6)
	q := mustQDB(t, db, Options{})
	mID, err := q.Submit(bookNextTo("Mickey", "Goofy", 1))
	if err != nil {
		t.Fatal(err)
	}
	gID, err := q.Submit(bookNextTo("Goofy", "Mickey", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.GroundGroup([]int64{mID, gID}); err != nil {
		t.Fatal(err)
	}
	assertAdjacent(t, db, "Mickey", "Goofy")
}

// TestGroundPairBacktracksOverFirstSeat is the crucial coordination case:
// a naive first-fit for Mickey would pick a seat without a free neighbor;
// hardening Goofy's forward constraint forces backtracking.
func TestGroundPairBacktracksOverFirstSeat(t *testing.T) {
	db := worldDB([]int{1}, 6)
	// Occupy 1B and 1C so row 1 has only 1A free (no free adjacency);
	// row 2 (2A, 2B, 2C) is fully free.
	for _, s := range []string{"1B", "1C"} {
		if err := db.Apply(
			[]relstore.GroundFact{{Rel: "Bookings", Tuple: tup("X"+s, 1, s)}},
			[]relstore.GroundFact{{Rel: "Available", Tuple: tup(1, s)}},
		); err != nil {
			t.Fatal(err)
		}
	}
	q := mustQDB(t, db, Options{})
	mID, err := q.Submit(bookNextTo("Mickey", "Goofy", 1))
	if err != nil {
		t.Fatal(err)
	}
	gID, err := q.Submit(bookNextTo("Goofy", "Mickey", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.GroundGroup([]int64{mID, gID}); err != nil {
		t.Fatal(err)
	}
	assertAdjacent(t, db, "Mickey", "Goofy")
}

func TestGroundPairFallsBackWhenCoordinationImpossible(t *testing.T) {
	db := worldDB([]int{1}, 6)
	// Occupy 1B and 2B: the remaining seats (1A, 1C, 2A, 2C) have no free
	// adjacent pair.
	for _, s := range []string{"1B", "2B"} {
		if err := db.Apply(
			[]relstore.GroundFact{{Rel: "Bookings", Tuple: tup("X"+s, 1, s)}},
			[]relstore.GroundFact{{Rel: "Available", Tuple: tup(1, s)}},
		); err != nil {
			t.Fatal(err)
		}
	}
	q := mustQDB(t, db, Options{})
	mID, err := q.Submit(bookNextTo("Mickey", "Goofy", 1))
	if err != nil {
		t.Fatal(err)
	}
	gID, err := q.Submit(bookNextTo("Goofy", "Mickey", 1))
	if err != nil {
		t.Fatal(err)
	}
	// Coordination impossible, but both must still get seats.
	if err := q.GroundGroup([]int64{mID, gID}); err != nil {
		t.Fatal(err)
	}
	if q.PendingCount() != 0 {
		t.Fatal("pair not fully grounded")
	}
	if n := db.Len("Bookings"); n != 4 {
		t.Fatalf("bookings = %d, want 4", n)
	}
}

func assertAdjacent(t *testing.T, db *relstore.DB, a, b string) {
	t.Helper()
	q := relstore.Query{Atoms: []logic.Atom{
		logic.NewAtom("Bookings", logic.Str(a), logic.Var("f"), logic.Var("s1")),
		logic.NewAtom("Bookings", logic.Str(b), logic.Var("f"), logic.Var("s2")),
		logic.NewAtom("Adjacent", logic.Var("f"), logic.Var("s1"), logic.Var("s2")),
	}}
	if _, ok, err := q.FindOne(db, nil); err != nil || !ok {
		t.Errorf("%s and %s are not adjacent; bookings: %v", a, b, db.All("Bookings"))
	}
}

func TestCoordinatorEndToEnd(t *testing.T) {
	db := worldDB([]int{1}, 12)
	q := mustQDB(t, db, Options{})
	c := NewCoordinator(q)
	// Mickey arrives first; Goofy later; then a second unrelated pair in
	// reverse naming order.
	if _, err := c.Submit(bookNextTo("Mickey", "Goofy", 1)); err != nil {
		t.Fatal(err)
	}
	if q.PendingCount() != 1 {
		t.Fatal("Mickey should wait for Goofy")
	}
	if _, err := c.Submit(bookNextTo("Goofy", "Mickey", 1)); err != nil {
		t.Fatal(err)
	}
	if q.PendingCount() != 0 {
		t.Fatal("pair not grounded on partner arrival")
	}
	if c.CoordinatedPairs() != 1 {
		t.Fatalf("CoordinatedPairs = %d, want 1", c.CoordinatedPairs())
	}
	assertAdjacent(t, db, "Mickey", "Goofy")

	if _, err := c.Submit(bookNextTo("Donald", "Daisy", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(bookNextTo("Daisy", "Donald", 1)); err != nil {
		t.Fatal(err)
	}
	assertAdjacent(t, db, "Donald", "Daisy")
	if c.CoordinatedPairs() != 2 {
		t.Fatalf("CoordinatedPairs = %d, want 2", c.CoordinatedPairs())
	}
}

func TestCoordinatorPartnerNeverArrives(t *testing.T) {
	db := worldDB([]int{1}, 6)
	q := mustQDB(t, db, Options{})
	c := NewCoordinator(q)
	if _, err := c.Submit(bookNextTo("Mickey", "Ghost", 1)); err != nil {
		t.Fatal(err)
	}
	// Mickey still gets a seat when observation forces it.
	sols, err := q.Read([]logic.Atom{
		logic.NewAtom("Bookings", logic.Str("Mickey"), logic.Int(1), logic.Var("s")),
	})
	if err != nil || sols.N != 1 {
		t.Fatalf("read: %v, %+v", err, sols)
	}
}

func TestCoordinatorPruneAfterForcedGrounding(t *testing.T) {
	db := worldDB([]int{1}, 12)
	q := mustQDB(t, db, Options{K: 1})
	c := NewCoordinator(q)
	// With k=1 Mickey is force-grounded as soon as Goofy's submission
	// lands in the same partition; the coordinator must cope.
	if _, err := c.Submit(bookNextTo("Mickey", "Goofy", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(bookNextTo("Goofy", "Mickey", 1)); err != nil {
		t.Fatal(err)
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	if n := db.Len("Bookings"); n != 2 {
		t.Fatalf("bookings = %d, want 2", n)
	}
}

func TestChooserSamplingIsConsulted(t *testing.T) {
	db := worldDB([]int{1}, 6)
	called := 0
	q := mustQDB(t, db, Options{
		ChooserSample: 3,
		Chooser: func(cands []formula.Grounding, src relstore.Source) int {
			called++
			if len(cands) < 2 {
				t.Errorf("chooser offered %d candidates, want several", len(cands))
			}
			return len(cands) - 1
		},
	})
	id, err := q.Submit(book("Mickey", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Ground(id); err != nil {
		t.Fatal(err)
	}
	if called == 0 {
		t.Fatal("chooser never consulted")
	}
}
