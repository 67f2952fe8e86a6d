package relstore

import (
	"errors"
	"testing"

	"repro/internal/value"
)

// ownedDB returns an owned two-table store with one row in A.
func ownedDB(t *testing.T) (*DB, *Writer) {
	t.Helper()
	db := epochDB(t)
	db.MustInsert("A", value.Tuple{value.NewInt(1)})
	w, err := db.Own()
	if err != nil {
		t.Fatal(err)
	}
	return db, w
}

func TestOwnedStoreRefusesRowWrites(t *testing.T) {
	db, w := ownedDB(t)
	epoch, a, b := db.Epoch(), db.TableEpoch("A"), db.TableEpoch("B")
	one, two := value.Tuple{value.NewInt(1)}, value.Tuple{value.NewInt(2)}
	writes := map[string]func() error{
		"Insert": func() error { return db.Insert("A", two) },
		"Delete": func() error { return db.Delete("A", one) },
		"Apply": func() error {
			return db.Apply([]GroundFact{{Rel: "B", Tuple: two}}, []GroundFact{{Rel: "A", Tuple: one}})
		},
	}
	for name, write := range writes {
		if err := write(); !errors.Is(err, ErrOwned) {
			t.Errorf("%s on an owned store: %v, want ErrOwned", name, err)
		}
	}
	if db.Epoch() != epoch || db.TableEpoch("A") != a || db.TableEpoch("B") != b {
		t.Fatalf("refused writes moved epochs: %d/%d/%d, want %d/%d/%d",
			db.Epoch(), db.TableEpoch("A"), db.TableEpoch("B"), epoch, a, b)
	}
	if db.Len("A") != 1 || !db.Contains("A", one) || db.Len("B") != 0 {
		t.Fatalf("refused writes changed the rows: A=%v B=%v", db.All("A"), db.All("B"))
	}
	// The owner's Writer still writes.
	if err := w.Apply([]Unit{{Inserts: []GroundFact{{Rel: "B", Tuple: two}}}}); err != nil {
		t.Fatal(err)
	}
	if !db.Contains("B", two) || db.TableEpoch("B") == b {
		t.Fatal("the owner's Apply did not land")
	}
}

func TestOwnTwiceFails(t *testing.T) {
	db, _ := ownedDB(t)
	if w, err := db.Own(); !errors.Is(err, ErrOwned) || w != nil {
		t.Fatalf("second Own = %v, %v; want nil, ErrOwned", w, err)
	}
}

func TestCloneOfOwnedStoreIsWritable(t *testing.T) {
	db, _ := ownedDB(t)
	c := db.Clone()
	two := value.Tuple{value.NewInt(2)}
	if err := c.Apply([]GroundFact{{Rel: "A", Tuple: two}}, nil); err != nil {
		t.Fatalf("Apply on a clone of an owned store: %v", err)
	}
	if _, err := c.Own(); err != nil {
		t.Fatalf("a clone starts unowned: %v", err)
	}
	if db.Contains("A", two) {
		t.Fatal("a write to the clone reached the original")
	}
}

// TestCreateTableOnOwnedStoreKeepsEpochs pins why CreateTable stays open
// on an owned store: it moves no existing epoch, and the new relation's
// epoch is 0, the same as an unknown relation's, so no epoch fingerprint
// taken before the table existed changes.
func TestCreateTableOnOwnedStoreKeepsEpochs(t *testing.T) {
	db, _ := ownedDB(t)
	epoch, a, b, c := db.Epoch(), db.TableEpoch("A"), db.TableEpoch("B"), db.TableEpoch("C")
	if err := db.CreateTable(Schema{Name: "C", Columns: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != epoch || db.TableEpoch("A") != a || db.TableEpoch("B") != b || db.TableEpoch("C") != c {
		t.Fatalf("CreateTable moved epochs: %d/%d/%d/%d, want %d/%d/%d/%d",
			db.Epoch(), db.TableEpoch("A"), db.TableEpoch("B"), db.TableEpoch("C"), epoch, a, b, c)
	}
}

// TestWriterApplyUnitsAllOrNothing: the owner's units apply in order
// under one lock, and a failure in a later unit undoes the earlier ones.
func TestWriterApplyUnitsAllOrNothing(t *testing.T) {
	db := flightsDB(t)
	w, err := db.Own()
	if err != nil {
		t.Fatal(err)
	}
	book := func(name, seat string) Unit {
		return Unit{
			Inserts: []GroundFact{{Rel: "Bookings", Tuple: tup(name, 123, seat)}},
			Deletes: []GroundFact{{Rel: "Available", Tuple: tup(123, seat)}},
		}
	}
	before := len(db.All("Available"))
	// The second unit takes the seat the first one booked: its delete
	// finds the row gone, and the first unit must be undone too.
	if err := w.Apply([]Unit{book("M", "1A"), book("G", "1A")}); err == nil {
		t.Fatal("Apply with a failing second unit succeeded")
	}
	if got := len(db.All("Available")); got != before || db.Len("Bookings") != 0 {
		t.Fatalf("rollback failed: %d seats (want %d), %d bookings (want 0)", got, before, db.Len("Bookings"))
	}
	// Later units see earlier ones: the second unit deletes what the first
	// inserted.
	move := Unit{
		Inserts: []GroundFact{{Rel: "Bookings", Tuple: tup("M", 123, "1B")}},
		Deletes: []GroundFact{{Rel: "Bookings", Tuple: tup("M", 123, "1A")}},
	}
	if err := w.Apply([]Unit{book("M", "1A"), move}); err != nil {
		t.Fatal(err)
	}
	if db.Contains("Bookings", tup("M", 123, "1A")) || !db.Contains("Bookings", tup("M", 123, "1B")) ||
		db.Contains("Available", tup(123, "1A")) {
		t.Fatal("units did not apply in order")
	}
}
