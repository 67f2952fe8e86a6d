package relstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// encodeFresh is the reference encoding of s: its rows copied into a
// store that has never been encoded, so nothing is cached and nothing
// is journaled, and encoded there in full. It reports a failure with
// t.Error, so goroutines may call it.
func encodeFresh(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	fresh := NewDB()
	for name, tab := range s.catalog {
		fresh.MustCreateTable(tab.schema)
		tab.scan(func(tup value.Tuple) bool {
			fresh.MustInsert(name, tup)
			return true
		})
	}
	var buf bytes.Buffer
	if err := encodeLive(fresh, &buf); err != nil {
		t.Error(err)
	}
	return buf.Bytes()
}

// encodeSchemas are the relations runEncodeModel creates, in order: a
// keyed table, a whole-tuple-keyed one, one keyed on a non-leading
// column with a composite index, and one created mid-run.
var encodeSchemas = []Schema{
	{Name: "R", Columns: []string{"a", "b"}, Key: []int{0}},
	{Name: "S", Columns: []string{"a", "b"}},
	{Name: "T", Columns: []string{"a", "b", "c"}, Key: []int{1, 2}, Indexes: [][]int{{0, 1}}},
	{Name: "U", Columns: []string{"a"}},
}

// runEncodeModel drives a store through steps random operations —
// inserts, deletes, committed and rolled-back Applys, snapshots pinned
// and released, CreateTable, bursts that overflow a journal, and encodes
// of any pinned snapshot in any order — and checks every encode against
// encodeFresh of the same snapshot.
func runEncodeModel(t testing.TB, steps int, pick func(int) int) {
	db := NewDB()
	db.MustCreateTable(encodeSchemas[0])
	db.MustCreateTable(encodeSchemas[1])
	created := 2
	row := func(rel string) value.Tuple {
		sch, _ := db.SchemaOf(rel)
		tu := make(value.Tuple, sch.Arity())
		for i := range tu {
			if i%2 == 0 {
				tu[i] = value.NewInt(int64(pick(8)))
			} else {
				tu[i] = value.NewString(fmt.Sprint("v", pick(4)))
			}
		}
		return tu
	}
	rel := func() string { return encodeSchemas[pick(created)].Name }
	existing := func(rel string) (value.Tuple, bool) {
		rows := db.All(rel)
		if len(rows) == 0 {
			return nil, false
		}
		return rows[pick(len(rows))], true
	}
	var pinned []*Snapshot
	defer func() {
		for _, s := range pinned {
			s.Release()
		}
	}()
	encodes := 0
	for step := 0; step < steps; step++ {
		switch op := pick(10); op {
		case 0, 1:
			r := rel()
			_ = db.Insert(r, row(r)) // a duplicate key changes nothing
		case 2:
			r := rel()
			if tu, ok := existing(r); ok {
				if err := db.Delete(r, tu); err != nil {
					t.Fatalf("step %d: delete: %v", step, err)
				}
			}
		case 3:
			// Committed: move a row to a new value under the same relation.
			r := rel()
			if tu, ok := existing(r); ok {
				_ = db.Apply([]GroundFact{{Rel: r, Tuple: row(r)}}, []GroundFact{{Rel: r, Tuple: tu}})
			}
		case 4:
			// Rolled back: the second insert of the same tuple fails after
			// the delete and the first insert applied.
			r, r2 := rel(), rel()
			ins := row(r2)
			var dels []GroundFact
			if tu, ok := existing(r); ok {
				dels = []GroundFact{{Rel: r, Tuple: tu}}
			}
			if err := db.Apply([]GroundFact{{Rel: r2, Tuple: ins}, {Rel: r2, Tuple: ins}}, dels); err == nil {
				t.Fatalf("step %d: duplicate insert committed", step)
			}
		case 5:
			pinned = append(pinned, db.Snapshot())
		case 6:
			if len(pinned) > 0 {
				i := pick(len(pinned))
				pinned[i].Release()
				pinned = append(pinned[:i], pinned[i+1:]...)
			}
		case 7:
			if created < len(encodeSchemas) {
				db.MustCreateTable(encodeSchemas[created])
				created++
			}
		case 8:
			// A burst past the journal bound: the journal is dropped and
			// restarted, and the next encode of a later snapshot must sort
			// in full.
			if pick(4) == 0 {
				r := rel()
				tu := row(r)
				if db.Insert(r, tu) == nil {
					for i := 0; i < journalSlack; i++ {
						_ = db.Delete(r, tu)
						_ = db.Insert(r, tu)
					}
				}
			}
		case 9:
			// Any pinned snapshot, older ones after newer, or the live state.
			s := db.Snapshot()
			if len(pinned) > 0 && pick(2) == 0 {
				s.Release()
				s = pinned[pick(len(pinned))]
			} else {
				pinned = append(pinned, s)
			}
			var got bytes.Buffer
			if err := s.Encode(&got); err != nil {
				t.Fatalf("step %d: encode: %v", step, err)
			}
			if want := encodeFresh(t, s); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("step %d: encode %d (epoch %d) differs from a full encode:\n got %x\nwant %x",
					step, encodes, s.Epoch(), got.Bytes(), want)
			}
			encodes++
		}
	}
}

// TestEncodeIncrementalModel runs the encode model over fixed seeds.
func TestEncodeIncrementalModel(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		runEncodeModel(t, 150, r.Intn)
	}
}

// FuzzEncodeIncremental drives the same model from fuzzer bytes.
func FuzzEncodeIncremental(f *testing.F) {
	f.Add([]byte{9, 0, 0, 1, 5, 2, 9, 3, 0, 9, 4, 9})
	f.Add([]byte{7, 0, 2, 0, 1, 9, 5, 0, 3, 3, 2, 6, 0, 9, 1, 9, 4, 0, 0, 9})
	f.Add([]byte{9, 5, 0, 0, 0, 8, 0, 9, 6, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		pick := func(n int) int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1]) % n
		}
		runEncodeModel(t, len(data)/2+1, pick)
	})
}

// TestEncodeIncrementalMergesJournal checks that an encode after a
// checkpoint's worth of churn takes the merge path, not a full sort: the
// pinned version's journal reaches back to the cached encoding, and the
// result is cached at the new epoch.
func TestEncodeIncrementalMergesJournal(t *testing.T) {
	db := encodeBenchDB(2_000, 400)
	first := db.Snapshot()
	if err := first.Encode(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	first.Release()
	churnBookings(db, rand.New(rand.NewSource(1)), 2_000, 100)
	s := db.Snapshot()
	defer s.Release()
	for _, name := range []string{"Available", "Bookings"} {
		tab := s.catalog[name]
		c := tab.enc.cur.Load()
		if c == nil || tab.journal == nil || tab.jbase > c.epoch || c.epoch >= tab.epoch {
			t.Fatalf("%s: no merge path: cache %v, journal %d entries from epoch %d, table epoch %d",
				name, c != nil, len(tab.journal), tab.jbase, tab.epoch)
		}
	}
	var got bytes.Buffer
	if err := s.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), encodeFresh(t, s)) {
		t.Fatal("merged encode differs from a full encode")
	}
	for _, name := range []string{"Available", "Bookings"} {
		if c := s.catalog[name].enc.cur.Load(); c.epoch != s.catalog[name].epoch {
			t.Fatalf("%s: cache at epoch %d, snapshot at %d", name, c.epoch, s.catalog[name].epoch)
		}
	}
}

// TestEncodeConcurrent: encodes from several goroutines, of snapshots
// taken while a writer churns, share and advance one cache; each must
// equal a full encode of its own snapshot.
func TestEncodeConcurrent(t *testing.T) {
	db := encodeBenchDB(3_000, 300)
	stop := make(chan struct{})
	writer := make(chan struct{})
	go func() {
		defer close(writer)
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
				churnBookings(db, rng, 3_000, 5)
			}
		}
	}()
	errs := make(chan error, 3)
	for g := 0; g < 3; g++ {
		go func() {
			for i := 0; i < 10; i++ {
				s := db.Snapshot()
				var got bytes.Buffer
				err := s.Encode(&got)
				if err == nil && !bytes.Equal(got.Bytes(), encodeFresh(t, s)) {
					err = fmt.Errorf("encode %d differs from a full encode", i)
				}
				s.Release()
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 3; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-writer
}

// TestJournalBoundedWithoutEncodes: a store encoded once and then
// written heavily, never encoded again, keeps each journal within its
// bound; the next encode still matches a full one.
func TestJournalBoundedWithoutEncodes(t *testing.T) {
	db := encodeBenchDB(300, 30)
	if err := encodeLive(db, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	longest := 0
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		churnBookings(db, rng, 300, 25)
		db.mu.RLock()
		for _, tab := range db.tables {
			if len(tab.journal) > tab.len()+journalSlack {
				t.Fatalf("round %d: %s journal %d entries over %d rows", round, tab.schema.Name, len(tab.journal), tab.len())
			}
			longest = max(longest, len(tab.journal))
		}
		db.mu.RUnlock()
	}
	if longest == 0 {
		t.Fatal("nothing journaled after an encode")
	}
	s := db.Snapshot()
	defer s.Release()
	var got bytes.Buffer
	if err := s.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), encodeFresh(t, s)) {
		t.Fatal("encode after a dropped journal differs from a full encode")
	}
}

// TestNeverEncodedStoreJournalsNothing: journals start only once the
// store has been encoded.
func TestNeverEncodedStoreJournalsNothing(t *testing.T) {
	db := encodeBenchDB(300, 30)
	snap := db.Snapshot() // pinning alone starts nothing
	churnBookings(db, rand.New(rand.NewSource(1)), 300, 50)
	snap.Release()
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, tab := range db.tables {
		if tab.journal != nil {
			t.Fatalf("%s journals on a store never encoded", tab.schema.Name)
		}
	}
}

// encodeBenchDB builds the booking shape: seats Available(fno, sno),
// keyed on the whole tuple, and Bookings(name, fno, sno) keyed on the
// seat, with every (seats/booked)-th seat booked by "u<seat>".
func encodeBenchDB(seats, booked int) *DB {
	db := NewDB()
	db.MustCreateTable(Schema{Name: "Available", Columns: []string{"fno", "sno"}})
	db.MustCreateTable(Schema{Name: "Bookings", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
	for i := 0; i < seats; i++ {
		if i%(seats/booked) == 0 {
			db.MustInsert("Bookings", booking(i))
		} else {
			db.MustInsert("Available", seat(i))
		}
	}
	return db
}

func seat(i int) value.Tuple { return tup(i/150, fmt.Sprint("s", i%150)) }

func booking(i int) value.Tuple { return tup(fmt.Sprint("u", i), i/150, fmt.Sprint("s", i%150)) }

// churnBookings books n random free seats and cancels n random bookings
// among the first seats seats, each one Apply moving a seat between the
// relations: 4n changed keys, and the booked share stays put.
func churnBookings(db *DB, rng *rand.Rand, seats, n int) {
	move := func(from, to func(int) value.Tuple, fromRel, toRel string) {
		for {
			i := rng.Intn(seats)
			if db.Contains(fromRel, from(i)) {
				if err := db.Apply([]GroundFact{{Rel: toRel, Tuple: to(i)}}, []GroundFact{{Rel: fromRel, Tuple: from(i)}}); err != nil {
					panic(err)
				}
				return
			}
		}
	}
	for i := 0; i < n; i++ {
		move(seat, booking, "Available", "Bookings")
		move(booking, seat, "Bookings", "Available")
	}
}

// BenchmarkSnapshotEncode encodes the durable_commit shape — 45k seats,
// about 8k of them booked — after a checkpoint interval's churn (about
// 2k changed keys), in full (the cache discarded first) and
// incrementally.
func BenchmarkSnapshotEncode(b *testing.B) {
	for _, mode := range []string{"full", "incremental"} {
		b.Run(mode, func(b *testing.B) {
			const seats = 53_000
			db := encodeBenchDB(seats, 8_000)
			rng := rand.New(rand.NewSource(1))
			if err := encodeLive(db, &bytes.Buffer{}); err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				churnBookings(db, rng, seats, 500)
				s := db.Snapshot()
				if mode == "full" {
					for _, t := range s.catalog {
						t.enc.cur.Store(nil)
					}
				}
				buf.Reset()
				b.StartTimer()
				if err := s.Encode(&buf); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				s.Release()
				b.StartTimer()
			}
		})
	}
}
