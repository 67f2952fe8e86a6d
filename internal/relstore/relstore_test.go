package relstore

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/value"
)

func tup(vs ...any) value.Tuple {
	t := make(value.Tuple, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case int:
			t[i] = value.NewInt(int64(x))
		case int64:
			t[i] = value.NewInt(x)
		case string:
			t[i] = value.NewString(x)
		default:
			panic("tup: unsupported type")
		}
	}
	return t
}

func flightsDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	db.MustCreateTable(Schema{Name: "Flights", Columns: []string{"fno", "dest"}, Key: []int{0}})
	db.MustCreateTable(Schema{Name: "Available", Columns: []string{"fno", "sno"}})
	db.MustCreateTable(Schema{Name: "Bookings", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
	db.MustInsert("Flights", tup(123, "LA"))
	db.MustInsert("Flights", tup(456, "NYC"))
	for _, s := range []string{"1A", "1B", "1C"} {
		db.MustInsert("Available", tup(123, s))
		db.MustInsert("Available", tup(456, s))
	}
	return db
}

func TestSchemaValidate(t *testing.T) {
	bad := []Schema{
		{Name: "", Columns: []string{"a"}},
		{Name: "R", Columns: nil},
		{Name: "R", Columns: []string{"a", "a"}},
		{Name: "R", Columns: []string{"a", ""}},
		{Name: "R", Columns: []string{"a"}, Key: []int{3}},
		{Name: "R", Columns: []string{"a"}, Key: []int{-1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, s)
		}
	}
	good := Schema{Name: "R", Columns: []string{"a", "b"}, Key: []int{0}}
	if err := good.Validate(); err != nil {
		t.Errorf("good schema rejected: %v", err)
	}
}

func TestInsertDeleteContains(t *testing.T) {
	db := flightsDB(t)
	if !db.Contains("Available", tup(123, "1A")) {
		t.Fatal("inserted tuple missing")
	}
	if db.Contains("Available", tup(123, "9Z")) {
		t.Fatal("phantom tuple present")
	}
	if err := db.Insert("Available", tup(123, "1A")); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if err := db.Delete("Available", tup(123, "1A")); err != nil {
		t.Fatal(err)
	}
	if db.Contains("Available", tup(123, "1A")) {
		t.Fatal("deleted tuple still present")
	}
	if err := db.Delete("Available", tup(123, "1A")); err == nil {
		t.Fatal("double delete succeeded")
	}
	// Reinsert after delete works and index is consistent.
	if err := db.Insert("Available", tup(123, "1A")); err != nil {
		t.Fatal(err)
	}
	if got := db.IndexCount("Available", 0, value.NewInt(123)); got != 3 {
		t.Fatalf("IndexCount = %d, want 3", got)
	}
}

func TestKeyedSemantics(t *testing.T) {
	db := NewDB()
	db.MustCreateTable(Schema{Name: "B", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
	db.MustInsert("B", tup("Mickey", 123, "1A"))
	// Same key (flight+seat), different name: must be rejected — one seat,
	// one passenger.
	if err := db.Insert("B", tup("Goofy", 123, "1A")); err == nil {
		t.Fatal("key violation accepted")
	}
	// Deleting with a mismatched non-key column must fail.
	if err := db.Delete("B", tup("Goofy", 123, "1A")); err == nil {
		t.Fatal("delete with wrong non-key columns succeeded")
	}
}

func TestArityAndUnknownRelationErrors(t *testing.T) {
	db := flightsDB(t)
	if err := db.Insert("Available", tup(1)); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := db.Insert("Nope", tup(1)); err == nil {
		t.Error("insert into unknown relation accepted")
	}
	if err := db.Delete("Nope", tup(1)); err == nil {
		t.Error("delete from unknown relation accepted")
	}
	if err := db.CreateTable(Schema{Name: "Flights", Columns: []string{"x"}}); err == nil {
		t.Error("duplicate CreateTable accepted")
	}
	q := Query{Atoms: []logic.Atom{logic.NewAtom("Nope", logic.Var("x"))}}
	if _, _, err := q.FindOne(db, nil); err == nil {
		t.Error("query over unknown relation accepted")
	}
	q = Query{Atoms: []logic.Atom{logic.NewAtom("Flights", logic.Var("x"))}}
	if _, _, err := q.FindOne(db, nil); err == nil {
		t.Error("query with wrong arity accepted")
	}
}

func TestScanEarlyStop(t *testing.T) {
	db := flightsDB(t)
	n := 0
	db.Scan("Available", func(value.Tuple) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("scan visited %d rows after early stop, want 2", n)
	}
}

func TestIndexScan(t *testing.T) {
	db := flightsDB(t)
	var seats []string
	db.IndexScan("Available", 0, value.NewInt(123), func(tp value.Tuple) bool {
		seats = append(seats, tp[1].Str())
		return true
	})
	if len(seats) != 3 {
		t.Fatalf("IndexScan found %d rows, want 3", len(seats))
	}
	if got := db.IndexCount("Available", 1, value.NewString("1A")); got != 2 {
		t.Fatalf("IndexCount(sno=1A) = %d, want 2", got)
	}
}

func TestApplyAtomicity(t *testing.T) {
	db := flightsDB(t)
	before := len(db.All("Available"))
	// Second delete fails; the first delete and the insert must be undone.
	err := db.Apply(
		[]GroundFact{{Rel: "Bookings", Tuple: tup("M", 123, "1A")}},
		[]GroundFact{
			{Rel: "Available", Tuple: tup(123, "1A")},
			{Rel: "Available", Tuple: tup(123, "9Z")}, // absent
		},
	)
	if err == nil {
		t.Fatal("Apply with failing delete succeeded")
	}
	if got := len(db.All("Available")); got != before {
		t.Fatalf("rollback failed: %d rows, want %d", got, before)
	}
	if db.Contains("Bookings", tup("M", 123, "1A")) {
		t.Fatal("rollback failed: insert survived")
	}
	// A valid batch applies fully.
	if err := db.Apply(
		[]GroundFact{{Rel: "Bookings", Tuple: tup("M", 123, "1A")}},
		[]GroundFact{{Rel: "Available", Tuple: tup(123, "1A")}},
	); err != nil {
		t.Fatal(err)
	}
	if !db.Contains("Bookings", tup("M", 123, "1A")) || db.Contains("Available", tup(123, "1A")) {
		t.Fatal("valid Apply did not take effect")
	}
}

func TestCloneIndependence(t *testing.T) {
	db := flightsDB(t)
	c := db.Clone()
	if err := c.Delete("Available", tup(123, "1A")); err != nil {
		t.Fatal(err)
	}
	if !db.Contains("Available", tup(123, "1A")) {
		t.Fatal("clone delete leaked into original")
	}
	if len(c.Relations()) != len(db.Relations()) {
		t.Fatal("clone lost relations")
	}
}

func TestQueryJoin(t *testing.T) {
	db := flightsDB(t)
	// Find an available seat on a flight to LA.
	q := Query{Atoms: []logic.Atom{
		logic.NewAtom("Flights", logic.Var("f"), logic.Str("LA")),
		logic.NewAtom("Available", logic.Var("f"), logic.Var("s")),
	}}
	s, ok, err := q.FindOne(db, nil)
	if err != nil || !ok {
		t.Fatalf("FindOne: ok=%v err=%v", ok, err)
	}
	if got := s.Walk(logic.Var("f")); got != logic.Int(123) {
		t.Errorf("f = %v, want 123", got)
	}
	n, err := q.Count(db)
	if err != nil || n != 3 {
		t.Fatalf("Count = %d (err %v), want 3", n, err)
	}
}

func TestQueryRepeatedVariable(t *testing.T) {
	db := NewDB()
	db.MustCreateTable(Schema{Name: "E", Columns: []string{"a", "b"}})
	db.MustInsert("E", tup(1, 2))
	db.MustInsert("E", tup(3, 3))
	q := Query{Atoms: []logic.Atom{logic.NewAtom("E", logic.Var("x"), logic.Var("x"))}}
	all, err := q.FindAll(db, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].Walk(logic.Var("x")) != logic.Int(3) {
		t.Fatalf("repeated-var query = %v", all)
	}
}

func TestQueryWithInitialBinding(t *testing.T) {
	db := flightsDB(t)
	init := logic.NewSubst()
	init["f"] = logic.Int(456)
	q := Query{Atoms: []logic.Atom{logic.NewAtom("Available", logic.Var("f"), logic.Var("s"))}}
	all, err := q.FindAll(db, init, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("got %d solutions, want 3", len(all))
	}
	for _, s := range all {
		if s.Walk(logic.Var("f")) != logic.Int(456) {
			t.Fatalf("initial binding not respected: %v", s)
		}
	}
}

func TestQueryNeqCheck(t *testing.T) {
	db := flightsDB(t)
	q := Query{
		Atoms: []logic.Atom{
			logic.NewAtom("Available", logic.Int(123), logic.Var("s")),
		},
		Checks: []Check{NeqCheck(logic.Var("s"), logic.Str("1A"))},
	}
	all, err := q.FindAll(db, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("got %d solutions, want 2 (1A excluded)", len(all))
	}
	for _, s := range all {
		if s.Walk(logic.Var("s")) == logic.Str("1A") {
			t.Fatal("Neq check violated")
		}
	}
}

func TestQueryEqCheck(t *testing.T) {
	db := flightsDB(t)
	q := Query{
		Atoms:  []logic.Atom{logic.NewAtom("Available", logic.Var("f"), logic.Var("s"))},
		Checks: []Check{EqCheck(logic.Var("f"), logic.Int(456))},
	}
	n, err := q.Count(db)
	if err != nil || n != 3 {
		t.Fatalf("Count = %d (err %v), want 3", n, err)
	}
}

func TestQueryGroundAtomProbe(t *testing.T) {
	db := flightsDB(t)
	q := Query{Atoms: []logic.Atom{
		logic.NewAtom("Flights", logic.Int(123), logic.Str("LA")),
		logic.NewAtom("Available", logic.Int(123), logic.Var("s")),
	}}
	n, err := q.Count(db)
	if err != nil || n != 3 {
		t.Fatalf("Count = %d (err %v), want 3", n, err)
	}
	q = Query{Atoms: []logic.Atom{logic.NewAtom("Flights", logic.Int(999), logic.Str("LA"))}}
	if _, ok, _ := q.FindOne(db, nil); ok {
		t.Fatal("ground probe of absent tuple matched")
	}
}

func TestPlannerModesAgree(t *testing.T) {
	db := flightsDB(t)
	atoms := []logic.Atom{
		logic.NewAtom("Available", logic.Var("f"), logic.Var("s")),
		logic.NewAtom("Flights", logic.Var("f"), logic.Str("LA")),
	}
	dyn := Query{Atoms: atoms, Planner: PlanDynamic}
	sta := Query{Atoms: atoms, Planner: PlanStatic}
	n1, err1 := dyn.Count(db)
	n2, err2 := sta.Count(db)
	if err1 != nil || err2 != nil || n1 != n2 {
		t.Fatalf("planner disagreement: dynamic=%d static=%d (%v, %v)", n1, n2, err1, err2)
	}
}

func TestOverlayBasics(t *testing.T) {
	db := flightsDB(t)
	o := NewOverlay(db)
	if err := o.Delete("Available", tup(123, "1A")); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert("Bookings", tup("M", 123, "1A")); err != nil {
		t.Fatal(err)
	}
	if o.Contains("Available", tup(123, "1A")) {
		t.Error("tombstoned tuple visible in overlay")
	}
	if !o.Contains("Bookings", tup("M", 123, "1A")) {
		t.Error("virtual insert invisible in overlay")
	}
	if !db.Contains("Available", tup(123, "1A")) {
		t.Error("overlay delete leaked into base")
	}
	if db.Contains("Bookings", tup("M", 123, "1A")) {
		t.Error("overlay insert leaked into base")
	}
	if got, want := o.Len("Available"), 5; got != want {
		t.Errorf("overlay Len = %d, want %d", got, want)
	}
}

func TestOverlayErrors(t *testing.T) {
	db := flightsDB(t)
	o := NewOverlay(db)
	if err := o.Insert("Available", tup(123, "1A")); err == nil {
		t.Error("duplicate overlay insert over base accepted")
	}
	if err := o.Delete("Available", tup(123, "9Z")); err == nil {
		t.Error("overlay delete of absent tuple accepted")
	}
	if err := o.Delete("Available", tup(123, "1A")); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete("Available", tup(123, "1A")); err == nil {
		t.Error("double overlay delete accepted")
	}
	if err := o.Insert("Nope", tup(1)); err == nil {
		t.Error("overlay insert into unknown relation accepted")
	}
	if err := o.Insert("Available", tup(1)); err == nil {
		t.Error("overlay arity mismatch accepted")
	}
}

func TestOverlayReinsertAfterDelete(t *testing.T) {
	db := flightsDB(t)
	o := NewOverlay(db)
	if err := o.Delete("Available", tup(123, "1A")); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert("Available", tup(123, "1A")); err != nil {
		t.Fatalf("reinsert after overlay delete: %v", err)
	}
	if !o.Contains("Available", tup(123, "1A")) {
		t.Fatal("reinserted tuple missing")
	}
	// The delete is retained alongside the add (it must keep suppressing
	// the base row, which can differ in non-key columns).
	if n := o.Len("Available"); n != 6 {
		t.Fatalf("Len after delete+reinsert = %d, want 6", n)
	}
	// 6 base rows: the tombstoned one is suppressed, the add restores it —
	// crucially NOT both at once.
	var rows int
	o.Scan("Available", func(value.Tuple) bool { rows++; return true })
	if rows != 6 {
		t.Fatalf("Scan saw %d rows after delete+reinsert, want 6", rows)
	}
}

func TestOverlayScanAndIndexScan(t *testing.T) {
	db := flightsDB(t)
	o := NewOverlay(db)
	if err := o.Delete("Available", tup(123, "1A")); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert("Available", tup(123, "9Z")); err != nil {
		t.Fatal(err)
	}
	var got []string
	o.IndexScan("Available", 0, value.NewInt(123), func(tp value.Tuple) bool {
		got = append(got, tp[1].Str())
		return true
	})
	if len(got) != 3 {
		t.Fatalf("overlay IndexScan rows = %v, want 3 rows", got)
	}
	seen := map[string]bool{}
	for _, s := range got {
		seen[s] = true
	}
	if seen["1A"] || !seen["9Z"] {
		t.Fatalf("overlay IndexScan contents wrong: %v", got)
	}
	// Early stop must not panic and must stop.
	n := 0
	o.Scan("Available", func(value.Tuple) bool { n++; return false })
	if n != 1 {
		t.Fatalf("overlay Scan early stop visited %d", n)
	}
}

func TestOverlayQueryEvaluation(t *testing.T) {
	db := flightsDB(t)
	o := NewOverlay(db)
	if err := o.Delete("Available", tup(123, "1A")); err != nil {
		t.Fatal(err)
	}
	q := Query{Atoms: []logic.Atom{logic.NewAtom("Available", logic.Int(123), logic.Var("s"))}}
	n, err := q.Count(o)
	if err != nil || n != 2 {
		t.Fatalf("Count over overlay = %d (err %v), want 2", n, err)
	}
}

func TestOverlayNesting(t *testing.T) {
	db := flightsDB(t)
	o1 := NewOverlay(db)
	if err := o1.Delete("Available", tup(123, "1A")); err != nil {
		t.Fatal(err)
	}
	o2 := NewOverlay(o1)
	if err := o2.Delete("Available", tup(123, "1B")); err != nil {
		t.Fatal(err)
	}
	if o2.Contains("Available", tup(123, "1A")) || o2.Contains("Available", tup(123, "1B")) {
		t.Error("nested overlay sees deleted tuples")
	}
	if !o1.Contains("Available", tup(123, "1B")) {
		t.Error("inner overlay affected by outer delete")
	}
	q := Query{Atoms: []logic.Atom{logic.NewAtom("Available", logic.Int(123), logic.Var("s"))}}
	n, err := q.Count(o2)
	if err != nil || n != 1 {
		t.Fatalf("Count over nested overlay = %d (err %v), want 1", n, err)
	}
}

// TestOverlayMarkUndo: Undo rolls back exactly the ops since its mark,
// nested marks included, and a failed ApplyFacts leaves nothing behind.
func TestOverlayMarkUndo(t *testing.T) {
	db := flightsDB(t)
	o := NewOverlay(db)
	if err := o.Delete("Available", tup(123, "1A")); err != nil {
		t.Fatal(err)
	}
	outer := o.Mark()
	if err := o.Delete("Available", tup(123, "1B")); err != nil {
		t.Fatal(err)
	}
	inner := o.Mark()
	if err := o.Insert("Bookings", tup("M", 123, "1B")); err != nil {
		t.Fatal(err)
	}
	o.Undo(inner)
	if o.Contains("Bookings", tup("M", 123, "1B")) || o.Contains("Available", tup(123, "1B")) {
		t.Fatal("inner Undo rolled back too little or too much")
	}
	o.Undo(outer)
	if !o.Contains("Available", tup(123, "1B")) || o.Contains("Available", tup(123, "1A")) {
		t.Fatal("outer Undo did not restore the state at its mark")
	}
	// The second delete fails: the first must not stick.
	bad := []GroundFact{{Rel: "Available", Tuple: tup(123, "1B")}, {Rel: "Available", Tuple: tup(123, "9Z")}}
	if err := o.ApplyFacts(nil, bad); err == nil {
		t.Fatal("ApplyFacts deleting an absent tuple succeeded")
	}
	if !o.Contains("Available", tup(123, "1B")) || o.Len("Available") != db.Len("Available")-1 {
		t.Fatal("failed ApplyFacts left part of its batch applied")
	}
}

func TestQueryUnsatisfiable(t *testing.T) {
	db := flightsDB(t)
	q := Query{Atoms: []logic.Atom{
		logic.NewAtom("Flights", logic.Var("f"), logic.Str("Mars")),
	}}
	if _, ok, err := q.FindOne(db, nil); ok || err != nil {
		t.Fatalf("ok=%v err=%v, want unsatisfiable", ok, err)
	}
}

func TestFindAllLimit(t *testing.T) {
	db := flightsDB(t)
	q := Query{Atoms: []logic.Atom{logic.NewAtom("Available", logic.Var("f"), logic.Var("s"))}}
	all, err := q.FindAll(db, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("limit ignored: got %d", len(all))
	}
}
