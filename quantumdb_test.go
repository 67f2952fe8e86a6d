package quantumdb

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/value"
)

func travelDB(t *testing.T, opt Options) *DB {
	t.Helper()
	db, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	seedTravel(db)
	return db
}

func travelSchema(db *DB) {
	db.MustCreateTable(Table{Name: "Available", Columns: []string{"fno", "sno"}})
	db.MustCreateTable(Table{Name: "Bookings", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
	db.MustCreateTable(Table{Name: "Adjacent", Columns: []string{"fno", "s1", "s2"}, Indexes: [][]int{{0, 1}, {0, 2}}})
}

func seedTravel(db *DB) {
	travelSchema(db)
	db.MustExec("+Available(123, '1A'), +Available(123, '1B'), +Available(123, '1C')")
	db.MustExec("+Adjacent(123, '1A', '1B'), +Adjacent(123, '1B', '1A')")
	db.MustExec("+Adjacent(123, '1B', '1C'), +Adjacent(123, '1C', '1B')")
}

func TestFacadeQuickstartFlow(t *testing.T) {
	db := travelDB(t, Options{})
	id, err := db.Submit("-Available(f, s), +Bookings('Mickey', f, s) :-1 Available(f, s)")
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 || db.Pending() != 1 {
		t.Fatalf("id=%d pending=%d", id, db.Pending())
	}
	rows, err := db.Query("Bookings('Mickey', f, s)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	seat := rows[0]["s"]
	if seat.Kind() != 0 && seat.Str() == "" {
		t.Fatalf("no seat bound: %v", rows[0])
	}
	if db.Pending() != 0 {
		t.Fatal("observation did not collapse")
	}
	// Repeatable.
	rows2, err := db.Query("Bookings('Mickey', f, s)")
	if err != nil || len(rows2) != 1 || rows2[0]["s"] != seat {
		t.Fatalf("not repeatable: %v vs %v (%v)", rows2, seat, err)
	}
}

func TestFacadeRejection(t *testing.T) {
	db := travelDB(t, Options{})
	for i := 0; i < 3; i++ {
		if _, err := db.Submit("-Available(123, s), +Bookings('u" + string(rune('0'+i)) + "', 123, s) :-1 Available(123, s)"); err != nil {
			t.Fatal(err)
		}
	}
	_, err := db.Submit("-Available(123, s), +Bookings('u3', 123, s) :-1 Available(123, s)")
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestFacadeExecRejectedWrite(t *testing.T) {
	db := travelDB(t, Options{})
	for _, u := range []string{"a", "b", "c"} {
		if _, err := db.Submit("-Available(123, s), +Bookings('" + u + "', 123, s) :-1 Available(123, s)"); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Exec("-Available(123, '1A')"); !errors.Is(err, core.ErrWriteRejected) {
		t.Fatalf("err = %v, want ErrWriteRejected", err)
	}
}

func TestFacadeExecParsing(t *testing.T) {
	db := travelDB(t, Options{})
	bad := []string{
		"",
		"Available(1, 'x')",     // missing sign
		"+Available(1, y)",      // variable
		"+Available(1, 'x'), ,", // empty atom
	}
	for _, s := range bad {
		if err := db.Exec(s); err == nil {
			t.Errorf("Exec(%q) accepted", s)
		}
	}
	// Quoted comma and parens must not confuse the splitter.
	db.MustCreateTable(Table{Name: "Notes", Columns: []string{"txt"}})
	if err := db.Exec(`+Notes('a, (b)')`); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("Notes(x)")
	if err != nil || len(rows) != 1 || rows[0]["x"].Str() != "a, (b)" {
		t.Fatalf("rows = %v, err=%v", rows, err)
	}
}

func TestFacadeCoordinator(t *testing.T) {
	db := travelDB(t, Options{})
	co := db.NewCoordinator()
	mickey := "-Available(123, s), +Bookings('Mickey', 123, s) :-1 Available(123, s), ?Bookings('Goofy', 123, m), ?Adjacent(123, s, m)"
	goofy := "-Available(123, s), +Bookings('Goofy', 123, s) :-1 Available(123, s), ?Bookings('Mickey', 123, m), ?Adjacent(123, s, m)"
	if _, err := co.Submit(mickey, "Mickey", "Goofy"); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Submit(goofy, "Goofy", "Mickey"); err != nil {
		t.Fatal(err)
	}
	if co.CoordinatedPairs() != 1 {
		t.Fatalf("pairs = %d", co.CoordinatedPairs())
	}
	rows, err := db.Query("Bookings('Mickey', 123, s), Bookings('Goofy', 123, m), Adjacent(123, s, m)")
	if err != nil || len(rows) == 0 {
		t.Fatalf("not adjacent: %v err=%v", rows, err)
	}
}

func TestFacadeGroundExplicit(t *testing.T) {
	db := travelDB(t, Options{})
	id, err := db.Submit("-Available(123, s), +Bookings('X', 123, s) :-1 Available(123, s)")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ground(id); err != nil {
		t.Fatal(err)
	}
	if err := db.GroundAll(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Grounded != 1 || st.Accepted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFacadeRecover(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "facade.wal")
	db, err := Open(Options{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	seedTravel(db)
	if _, err := db.Submit("-Available(123, s), +Bookings('M', 123, s) :-1 Available(123, s)"); err != nil {
		t.Fatal(err)
	}
	db.Close()

	r, err := Recover(Options{WALPath: wal}, func(fresh *DB) error {
		travelSchema(fresh) // rows replay from the log
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Pending() != 1 {
		t.Fatalf("pending after recover = %d", r.Pending())
	}
	rows, err := r.Query("Bookings('M', 123, s)")
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %v err=%v", rows, err)
	}
}

// TestFacadeStoreIsReadOnly: the raw store behind a live engine refuses
// writes, while schema changes and blind writes through the facade still
// work, and a Recover setup callback can still seed rows through Exec
// (the engine takes the store only after the callback).
func TestFacadeStoreIsReadOnly(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "owned.wal")
	q, err := core.New(relstore.NewDB(), core.Options{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	db := FromEngine(q)
	travelSchema(db)
	db.MustExec("+Available(123, '1A')")
	seat := []relstore.GroundFact{{Rel: "Available", Tuple: value.Tuple{value.NewInt(123), value.NewString("1B")}}}
	if err := db.Engine().Store().Apply(seat, nil); !errors.Is(err, relstore.ErrOwned) {
		t.Fatalf("write around the engine: %v, want ErrOwned", err)
	}
	if err := db.CreateTable(Table{Name: "Lounges", Columns: []string{"fno"}}); err != nil {
		t.Fatal(err)
	}
	db.MustExec("+Lounges(123)")
	if rows, err := db.Query("Available(123, s)"); err != nil || len(rows) != 1 {
		t.Fatalf("Available = %v, %v; want only the Exec'd seat", rows, err)
	}
	db.Close()

	r, err := Recover(Options{WALPath: filepath.Join(t.TempDir(), "seeded.wal")}, func(fresh *DB) error {
		travelSchema(fresh)
		return fresh.Exec("+Available(123, '1A'), +Available(123, '1B')")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rows, err := r.Query("Available(123, s)"); err != nil || len(rows) != 2 {
		t.Fatalf("seeded Available = %v, %v; want 2 rows", rows, err)
	}
	if err := r.Engine().Store().Apply(seat, nil); !errors.Is(err, relstore.ErrOwned) {
		t.Fatalf("write around the recovered engine: %v, want ErrOwned", err)
	}
}

func TestFacadeSubmitSQL(t *testing.T) {
	db := travelDB(t, Options{})
	id, err := db.SubmitSQL(`
		SELECT A.fno AS @f, A.sno AS @s
		FROM Available A
		WHERE A.fno = 123
		CHOOSE 1
		FOLLOWED BY (
			DELETE (@f, @s) FROM Available;
			INSERT ('Minnie', @f, @s) INTO Bookings; )`)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 || db.Pending() != 1 {
		t.Fatalf("id=%d pending=%d", id, db.Pending())
	}
	rows, err := db.Query("Bookings('Minnie', 123, s)")
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
	if _, err := db.SubmitSQL("SELECT garbage"); err == nil {
		t.Error("bad SQL accepted")
	}
}

func TestFacadeBadInputs(t *testing.T) {
	db := travelDB(t, Options{})
	if _, err := db.Submit("not a txn"); err == nil {
		t.Error("bad txn accepted")
	}
	if _, err := db.Query("not a query ((("); err == nil {
		t.Error("bad query accepted")
	}
	if err := db.CreateTable(Table{Name: "Available", Columns: []string{"x"}}); err == nil {
		t.Error("duplicate table accepted")
	}
}
