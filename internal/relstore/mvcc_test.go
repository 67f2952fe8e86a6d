package relstore

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/value"
)

// snapDump renders a snapshot's contents like relDump renders a DB's.
func snapDump(s *Snapshot) string {
	db := NewDB()
	for rel := range s.tables {
		sch, _ := s.SchemaOf(rel)
		db.MustCreateTable(sch)
		s.Scan(rel, func(t value.Tuple) bool {
			db.MustInsert(rel, t)
			return true
		})
	}
	return relDump(db)
}

// TestSnapshotFrozenView pins a snapshot and mutates the live store
// through every committed-write entry point (Insert, Delete, Apply):
// the snapshot's contents, epoch, and index structure must not move,
// and the live store must see all the mutations.
func TestSnapshotFrozenView(t *testing.T) {
	db := flightsDB(t)
	snap := db.Snapshot()
	defer snap.Release()
	before := snapDump(snap)
	epoch := snap.Epoch()

	if err := db.Insert("Available", tup(123, "9F")); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("Available", tup(456, "1A")); err != nil {
		t.Fatal(err)
	}
	if err := db.Apply(
		[]GroundFact{{Rel: "Bookings", Tuple: tup("Mickey", 123, "1A")}},
		[]GroundFact{{Rel: "Available", Tuple: tup(123, "1A")}},
	); err != nil {
		t.Fatal(err)
	}

	if got := snapDump(snap); got != before {
		t.Fatalf("snapshot moved:\nbefore %s\nafter  %s", before, got)
	}
	if snap.Epoch() != epoch {
		t.Fatalf("snapshot epoch moved: %d -> %d", epoch, snap.Epoch())
	}
	// The frozen view answers point and index lookups from its own
	// version, not the catalog's.
	if !snap.Contains("Available", tup(123, "1A")) {
		t.Fatal("snapshot lost a row deleted after the pin")
	}
	if snap.Contains("Bookings", tup("Mickey", 123, "1A")) {
		t.Fatal("snapshot sees a row inserted after the pin")
	}
	if n := snap.IndexCount("Available", 0, value.NewInt(123)); n != 3 {
		t.Fatalf("snapshot index count = %d, want the pinned 3", n)
	}
	// The live store saw everything.
	if db.Contains("Available", tup(123, "1A")) || !db.Contains("Available", tup(123, "9F")) {
		t.Fatal("live store missed a mutation")
	}
	if !db.Contains("Bookings", tup("Mickey", 123, "1A")) {
		t.Fatal("live store missed the applied insert")
	}
}

// TestSnapshotRefcounting checks the pin accounting: SnapshotsLive
// tracks takes and releases, Release is idempotent, and once every pin
// is gone mutations go back to in-place (no clone installed).
func TestSnapshotRefcounting(t *testing.T) {
	db := flightsDB(t)
	s1 := db.Snapshot()
	s2 := db.Snapshot()
	if n := db.SnapshotsLive(); n != 2 {
		t.Fatalf("SnapshotsLive = %d, want 2", n)
	}
	s1.Release()
	s1.Release() // idempotent
	if n := db.SnapshotsLive(); n != 1 {
		t.Fatalf("SnapshotsLive after release = %d, want 1", n)
	}
	// s2 still pins: a write must clone, leaving s2's version frozen.
	if err := db.Insert("Available", tup(123, "9F")); err != nil {
		t.Fatal(err)
	}
	if s2.Contains("Available", tup(123, "9F")) {
		t.Fatal("write leaked into a live snapshot")
	}
	s2.Release()
	if n := db.SnapshotsLive(); n != 0 {
		t.Fatalf("SnapshotsLive after all releases = %d, want 0", n)
	}
	// No pins left: the next write mutates the catalog version in place.
	tab := db.tables["Available"]
	if err := db.Insert("Available", tup(123, "9G")); err != nil {
		t.Fatal(err)
	}
	if db.tables["Available"] != tab {
		t.Fatal("unpinned write installed a clone")
	}
	// A released snapshot stays readable (it just no longer pins).
	if !s2.Contains("Available", tup(123, "1A")) {
		t.Fatal("released snapshot unreadable")
	}
}

// TestSnapshotCOWSharesUntouchedTables checks the clone is per-relation
// lazy: mutating one relation must not clone the others.
func TestSnapshotCOWSharesUntouchedTables(t *testing.T) {
	db := flightsDB(t)
	snap := db.Snapshot()
	defer snap.Release()
	flights := db.tables["Flights"]
	if err := db.Insert("Available", tup(123, "9F")); err != nil {
		t.Fatal(err)
	}
	if db.tables["Flights"] != flights {
		t.Fatal("untouched relation was cloned")
	}
	if db.tables["Available"] == snap.tables["Available"] {
		t.Fatal("mutated relation was not cloned")
	}
	// A second write to the already-cloned version is in-place again.
	avail := db.tables["Available"]
	if err := db.Insert("Available", tup(123, "9G")); err != nil {
		t.Fatal(err)
	}
	if db.tables["Available"] != avail {
		t.Fatal("second write re-cloned the already-unpinned clone")
	}
}

// TestSnapshotEncodeFrozenAfterWrite checks that a snapshot encoded
// AFTER the live store moved on still writes its pinned state, byte for
// byte what it encoded before the write — the property fuzzy
// checkpoints rely on.
func TestSnapshotEncodeFrozenAfterWrite(t *testing.T) {
	db := flightsDB(t)
	snap := db.Snapshot()
	defer snap.Release()
	var before bytes.Buffer
	if err := snap.Encode(&before); err != nil {
		t.Fatal(err)
	}

	// Mutate after the pin: Encode must still serialize the pinned state.
	if err := db.Insert("Available", tup(123, "9F")); err != nil {
		t.Fatal(err)
	}
	var pinned bytes.Buffer
	if err := snap.Encode(&pinned); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), pinned.Bytes()) {
		t.Fatal("Snapshot.Encode changed after a write to the live store")
	}
	got, err := DecodeSnapshot(&pinned)
	if err != nil {
		t.Fatal(err)
	}
	if got.Contains("Available", tup(123, "9F")) {
		t.Fatal("post-pin write leaked into the encoded snapshot")
	}
}

// TestSnapshotMissingRelation checks Source calls against relations the
// snapshot has never heard of (including ones created after the pin)
// answer empty rather than panicking.
func TestSnapshotMissingRelation(t *testing.T) {
	db := flightsDB(t)
	snap := db.Snapshot()
	defer snap.Release()
	db.MustCreateTable(Schema{Name: "Late", Columns: []string{"x"}})
	db.MustInsert("Late", tup(1))

	if _, ok := snap.SchemaOf("Late"); ok {
		t.Fatal("snapshot sees a relation created after the pin")
	}
	if snap.Len("Late") != 0 || snap.Contains("Late", tup(1)) {
		t.Fatal("snapshot reads rows of a post-pin relation")
	}
	snap.Scan("Late", func(value.Tuple) bool { t.Fatal("scan yielded"); return false })
	if snap.IndexCount("Late", 0, value.NewInt(1)) != 0 {
		t.Fatal("index count on post-pin relation")
	}
}

// TestSnapshotDoesNotParkNestedReader is the store-lock deadlock's
// regression test. A chain solve re-enters the read lock from inside a
// Scan callback; when Snapshot took db.mu exclusively, a Snapshot
// arriving mid-scan queued on the write side and parked that nested
// reader behind it for good. Snapshot now pins under the read side, so
// the nested reader gets straight in.
func TestSnapshotDoesNotParkNestedReader(t *testing.T) {
	db := flightsDB(t)
	snapshotDone, nested := make(chan struct{}), make(chan struct{})
	db.Scan("Available", func(value.Tuple) bool {
		go func() {
			db.Snapshot().Release()
			close(snapshotDone)
		}()
		// A goroutine queued on the write lock shows nothing; give a
		// parked Snapshot time to queue.
		select {
		case <-snapshotDone:
		case <-time.After(50 * time.Millisecond):
		}
		go func() {
			db.Len("Available")
			close(nested)
		}()
		select {
		case <-nested:
		case <-time.After(200 * time.Millisecond):
			t.Error("a nested reader inside Scan is parked behind a concurrent Snapshot")
		}
		return false // leaving the scan lets a parked Snapshot, then the reader, through
	})
	<-snapshotDone
	<-nested
	if n := db.SnapshotsLive(); n != 0 {
		t.Fatalf("SnapshotsLive = %d after Release, want 0", n)
	}
}
