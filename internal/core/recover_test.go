package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/relstore"
	"repro/internal/value"
	"repro/internal/wal"
)

func TestRecoverRebuildsPendingState(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "qdb.wal")
	mk := func() *relstore.DB { return worldDB([]int{1, 2}, 6) }

	q, err := New(mk(), Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	// Two pending, one grounded, one blind write.
	id1, err := q.Submit(book("A", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(book("B", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(book("C", 2)); err != nil {
		t.Fatal(err)
	}
	if err := q.Ground(id1); err != nil {
		t.Fatal(err)
	}
	if err := q.Write([]relstore.GroundFact{{Rel: "Available", Tuple: tup(2, "9Z")}}, nil); err != nil {
		t.Fatal(err)
	}
	wantBookings := tuplesSorted(q.Store(), "Bookings")
	wantAvailable := tuplesSorted(q.Store(), "Available")
	wantPending := q.PendingIDs()
	if err := q.Close(); err != nil { // crash point
		t.Fatal(err)
	}

	r, err := Recover(mk(), Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if got := tuplesSorted(r.Store(), "Bookings"); got != wantBookings {
		t.Errorf("bookings after recovery:\n got %s\nwant %s", got, wantBookings)
	}
	if got := tuplesSorted(r.Store(), "Available"); got != wantAvailable {
		t.Errorf("available after recovery:\n got %s\nwant %s", got, wantAvailable)
	}
	got := r.PendingIDs()
	if len(got) != len(wantPending) {
		t.Fatalf("pending after recovery = %v, want %v", got, wantPending)
	}
	for i := range got {
		if got[i] != wantPending[i] {
			t.Fatalf("pending after recovery = %v, want %v", got, wantPending)
		}
	}
	// Recovered instance keeps working: new IDs don't collide, grounding
	// succeeds.
	newID, err := r.Submit(book("D", 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range wantPending {
		if newID == old {
			t.Fatalf("recovered QDB reissued ID %d", newID)
		}
	}
	if err := r.GroundAll(); err != nil {
		t.Fatal(err)
	}
	if n := r.Store().Len("Bookings"); n != 4 {
		t.Fatalf("bookings after recovered grounding = %d, want 4", n)
	}
}

func TestRecoverRequiresWALPath(t *testing.T) {
	if _, err := Recover(worldDB([]int{1}, 3), Options{}); err == nil {
		t.Fatal("Recover without WALPath succeeded")
	}
}

func TestRecoverEmptyLog(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "empty.wal")
	r, err := Recover(worldDB([]int{1}, 3), Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.PendingCount() != 0 {
		t.Fatal("pending from empty log")
	}
	if _, err := r.Submit(book("A", 1)); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverWrongInitialDBFails(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "qdb.wal")
	q, err := New(worldDB([]int{1}, 3), Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(book("A", 1)); err != nil {
		t.Fatal(err)
	}
	q.Close()
	// Recovering over an empty-seat world cannot re-establish the
	// invariant.
	if _, err := Recover(worldDB([]int{1}, 0), Options{WALPath: walPath}); err == nil {
		t.Fatal("recovery over wrong initial DB succeeded")
	}
}

// TestRecoverRefusesUndecodableBatch: a CRC-valid frame whose body does
// not decode is not a torn tail, so recovery refuses the log with
// wal.ErrCorrupt instead of recovering without that batch.
func TestRecoverRefusesUndecodableBatch(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "qdb.wal")
	mk := func() *relstore.DB { return worldDB([]int{1}, 3) }
	q, err := New(mk(), Options{WALPath: walPath, WALSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B"} {
		if _, err := q.Submit(book(name, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// Reseal the last frame (B's admission) with one trailing byte in its
	// body: its CRC verifies, its body does not decode.
	batches, err := wal.ReadAll(walPath)
	if err != nil {
		t.Fatal(err)
	}
	body := wal.AppendBatchBody(nil, batches[len(batches)-1])
	seg := walPath + ".0"
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data = data[:len(data)-len(body)-8]
	body = append(body, 0)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(body)))
	data = append(data, body...)
	data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Recover(mk(), Options{WALPath: walPath, WALSegments: 1})
	if err == nil {
		defer r.Close()
		t.Fatalf("Recover succeeded with %d pending; want wal.ErrCorrupt", r.PendingCount())
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Recover = %v, want wal.ErrCorrupt", err)
	}
}

func TestWALSurvivesEntangledPairFlow(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "pair.wal")
	mk := func() *relstore.DB { return worldDB([]int{1}, 6) }
	q, err := New(mk(), Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(q)
	if _, err := c.Submit(bookNextTo("Mickey", "Goofy", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(bookNextTo("Goofy", "Mickey", 1)); err != nil {
		t.Fatal(err)
	}
	want := tuplesSorted(q.Store(), "Bookings")
	q.Close()

	r, err := Recover(mk(), Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := tuplesSorted(r.Store(), "Bookings"); got != want {
		t.Errorf("bookings after recovery:\n got %s\nwant %s", got, want)
	}
	if r.PendingCount() != 0 {
		t.Error("grounded pair resurrected as pending")
	}
}

func TestFactRecordRoundTrip(t *testing.T) {
	facts := []relstore.GroundFact{
		{Rel: "Bookings", Tuple: tup("Mickey", 123, "5A")},
		{Rel: "X", Tuple: value.Tuple{}},
		{Rel: "Y", Tuple: tup(-1)},
	}
	for _, f := range facts {
		got, err := decodeFact(encodeFact(f))
		if err != nil {
			t.Errorf("decode(%v): %v", f, err)
			continue
		}
		if got.Rel != f.Rel || !got.Tuple.Equal(f.Tuple) {
			t.Errorf("round trip %v -> %v", f, got)
		}
	}
	if _, err := decodeFact([]byte{200}); err == nil {
		t.Error("garbage fact decoded")
	}
	if _, err := decodeFact(append(encodeFact(facts[0]), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func tuplesSorted(db *relstore.DB, rel string) string {
	rows := db.All(rel)
	strs := make([]string, len(rows))
	for i, r := range rows {
		strs[i] = r.String()
	}
	sort.Strings(strs)
	return fmt.Sprint(strs)
}
