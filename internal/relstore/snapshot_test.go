package relstore

import (
	"bytes"
	"io"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

// encodeLive serializes db's current state through a short-lived
// snapshot.
func encodeLive(db *DB, w io.Writer) error {
	s := db.Snapshot()
	defer s.Release()
	return s.Encode(w)
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := flightsDB(t)
	db.MustCreateTable(Schema{
		Name: "Comp", Columns: []string{"a", "b", "c"},
		Key: []int{0}, Indexes: [][]int{{1, 2}},
	})
	db.MustInsert("Comp", tup(1, "x", "y"))

	var buf bytes.Buffer
	if err := encodeLive(db, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want, have := relDump(db), relDump(got); want != have {
		t.Fatalf("snapshot changed contents:\nwant %s\nhave %s", want, have)
	}
	// Schemas preserved, including key and composite indexes.
	sch, ok := got.SchemaOf("Comp")
	if !ok || len(sch.Key) != 1 || len(sch.Indexes) != 1 || len(sch.Indexes[0]) != 2 {
		t.Fatalf("schema lost: %+v", sch)
	}
	// Indexes functional after decode.
	if n := got.CompositeCount("Comp", 0, value.Tuple{value.NewString("x"), value.NewString("y")}.Key(nil)); n != 1 {
		t.Fatalf("composite index after decode = %d", n)
	}
	// Decoded DB is writable.
	if err := got.Insert("Comp", tup(2, "p", "q")); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotEmptyDB(t *testing.T) {
	var buf bytes.Buffer
	if err := encodeLive(NewDB(), &buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Relations()) != 0 {
		t.Fatal("phantom relations")
	}
}

func TestSnapshotBadInput(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOTMAGIC"),
		[]byte("QDBSNAP1"), // truncated after magic
	}
	for _, c := range cases {
		if _, err := DecodeSnapshot(bytes.NewReader(c)); err == nil {
			t.Errorf("DecodeSnapshot(%q) succeeded", c)
		}
	}
	// Corrupted tail: valid snapshot with flipped row byte.
	db := flightsDB(t)
	var buf bytes.Buffer
	if err := encodeLive(db, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data = data[:len(data)-2] // truncate mid-row
	if _, err := DecodeSnapshot(bytes.NewReader(data)); err == nil {
		t.Error("truncated snapshot decoded")
	}
}

func TestQuickSnapshotRandomRows(t *testing.T) {
	f := func(rows [][2]int64, strs []string) bool {
		db := NewDB()
		db.MustCreateTable(Schema{Name: "R", Columns: []string{"a", "b"}})
		db.MustCreateTable(Schema{Name: "S", Columns: []string{"s"}})
		seen := map[[2]int64]bool{}
		for _, r := range rows {
			if seen[r] {
				continue
			}
			seen[r] = true
			db.MustInsert("R", tup(r[0], r[1]))
		}
		seenS := map[string]bool{}
		for _, s := range strs {
			if seenS[s] {
				continue
			}
			seenS[s] = true
			db.MustInsert("S", tup(s))
		}
		var buf bytes.Buffer
		if err := encodeLive(db, &buf); err != nil {
			return false
		}
		got, err := DecodeSnapshot(&buf)
		if err != nil {
			return false
		}
		return relDump(db) == relDump(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func relDump(db *DB) string {
	var parts []string
	for _, rel := range db.Relations() {
		rows := db.All(rel)
		strs := make([]string, len(rows))
		for i, r := range rows {
			strs[i] = rel + r.String()
		}
		sort.Strings(strs)
		parts = append(parts, strs...)
	}
	return strings.Join(parts, ";")
}

// TestSnapshotEncodeCanonical pins the property replication byte-
// equality rests on: two stores holding the same content — reached
// through different insert/delete histories, so their in-memory row
// order differs (swap-remove permutes storage) — encode to identical
// bytes.
func TestSnapshotEncodeCanonical(t *testing.T) {
	mk := func() *DB {
		db := NewDB()
		db.MustCreateTable(Schema{Name: "R", Columns: []string{"a", "b"}, Key: []int{0}})
		return db
	}
	a := mk()
	for i := 0; i < 8; i++ {
		a.MustInsert("R", tup(i, "v"))
	}
	// b: same final content, scrambled history (delete + reinsert
	// triggers swap-remove reordering).
	b := mk()
	for i := 7; i >= 0; i-- {
		b.MustInsert("R", tup(i, "v"))
	}
	for _, i := range []int{2, 5} {
		if err := b.Delete("R", tup(i, "v")); err != nil {
			t.Fatal(err)
		}
		b.MustInsert("R", tup(i, "v"))
	}
	var ba, bb bytes.Buffer
	if err := encodeLive(a, &ba); err != nil {
		t.Fatal(err)
	}
	if err := encodeLive(b, &bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("equal content encoded to different bytes")
	}
}
