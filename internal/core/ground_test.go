package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/txn"
)

// bookChained books any seat, optionally adjacent to the previous group
// member (chained adjacency gives the group a contiguous block).
func bookChained(user, prev string, f int) *txn.T {
	if prev == "" {
		return book(user, f)
	}
	t := txn.MustParse(fmt.Sprintf(
		"-Available(%d, s), +Bookings('%s', %d, s) :-1 Available(%d, s), ?Bookings('%s', %d, m), ?Adjacent(%d, s, m)",
		f, user, f, f, prev, f, f))
	t.Tag = user
	return t
}

func TestGroundGroupCoordinatesTriple(t *testing.T) {
	db := worldDB([]int{1}, 9) // rows 1..3
	// Occupy 1B and 2B so rows 1 and 2 cannot hold a full chained triple;
	// only row 3 remains fully free.
	for _, s := range []string{"1B", "2B"} {
		if err := db.Apply(
			[]relstore.GroundFact{{Rel: "Bookings", Tuple: tup("X"+s, 1, s)}},
			[]relstore.GroundFact{{Rel: "Available", Tuple: tup(1, s)}},
		); err != nil {
			t.Fatal(err)
		}
	}
	q := mustQDB(t, db, Options{})
	ids := make([]int64, 3)
	names := []string{"Huey", "Dewey", "Louie"}
	for i, n := range names {
		prev := ""
		if i > 0 {
			prev = names[i-1]
		}
		id, err := q.Submit(bookChained(n, prev, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if err := q.GroundGroup(ids); err != nil {
		t.Fatal(err)
	}
	// The chained adjacency forces the full row: Huey-Dewey adjacent and
	// Dewey-Louie adjacent, i.e. row 3.
	assertAdjacent(t, db, "Huey", "Dewey")
	assertAdjacent(t, db, "Dewey", "Louie")
}

func TestGroundGroupFallsBackWhenImpossible(t *testing.T) {
	db := worldDB([]int{1}, 6)
	// Occupy both middle seats: no two free seats are adjacent.
	for _, s := range []string{"1B", "2B"} {
		if err := db.Apply(
			[]relstore.GroundFact{{Rel: "Bookings", Tuple: tup("X"+s, 1, s)}},
			[]relstore.GroundFact{{Rel: "Available", Tuple: tup(1, s)}},
		); err != nil {
			t.Fatal(err)
		}
	}
	q := mustQDB(t, db, Options{})
	var ids []int64
	for i, n := range []string{"A", "B", "C"} {
		prev := ""
		if i > 0 {
			prev = string(rune('A' + i - 1))
		}
		id, err := q.Submit(bookChained(n, prev, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := q.GroundGroup(ids); err != nil {
		t.Fatal(err)
	}
	if q.PendingCount() != 0 {
		t.Fatal("group not fully grounded")
	}
	if n := db.Len("Bookings"); n != 5 {
		t.Fatalf("bookings = %d, want 5", n)
	}
}

func TestGroundGroupUnknownMember(t *testing.T) {
	q := mustQDB(t, worldDB([]int{1}, 3), Options{})
	if err := q.GroundGroup([]int64{42}); err == nil {
		t.Fatal("unknown member accepted")
	}
}

func TestGroundGroupAcrossPartitions(t *testing.T) {
	db := worldDB([]int{1, 2}, 3)
	q := mustQDB(t, db, Options{})
	id1, err := q.Submit(book("A", 1))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := q.Submit(book("B", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.GroundGroup([]int64{id1, id2}); err != nil {
		t.Fatal(err)
	}
	if q.PendingCount() != 0 {
		t.Fatal("cross-partition group not grounded")
	}
}

func TestPreviewRead(t *testing.T) {
	db := worldDB([]int{1, 2}, 6)
	q := mustQDB(t, db, Options{})
	id1, err := q.Submit(book("Mickey", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(book("Donald", 2)); err != nil {
		t.Fatal(err)
	}
	// A read of Mickey's booking would collapse only his transaction.
	query := []logic.Atom{logic.NewAtom("Bookings", logic.Str("Mickey"), logic.Var("f"), logic.Var("s"))}
	got := q.PreviewRead(query)
	if len(got) != 1 || got[0] != id1 {
		t.Fatalf("PreviewRead = %v, want [%d]", got, id1)
	}
	// A full-table read would collapse both (the §3.2.2 warning about
	// general reads).
	broad := []logic.Atom{logic.NewAtom("Bookings", logic.Var("n"), logic.Var("f"), logic.Var("s"))}
	if got := q.PreviewRead(broad); len(got) != 2 {
		t.Fatalf("broad PreviewRead = %v, want both", got)
	}
	// Preview must not collapse anything.
	if q.PendingCount() != 2 {
		t.Fatal("preview collapsed state")
	}
	// Unrelated relation: nothing.
	if got := q.PreviewRead([]logic.Atom{logic.NewAtom("Flights", logic.Var("f"), logic.Var("d"))}); len(got) != 0 {
		t.Fatalf("unrelated PreviewRead = %v", got)
	}
}

// TestGroundGroupRepeatedID: a repeated member ID names one transaction,
// which grounds exactly once — one booking, one seat taken. Each target is
// its partition's head when grounded, so both modes ground it alone.
func TestGroundGroupRepeatedID(t *testing.T) {
	for _, mode := range []Mode{Semantic, Strict} {
		db := worldDB([]int{1}, 3)
		q := mustQDB(t, db, Options{Mode: mode})
		var ids []int64
		for _, u := range []string{"A", "B"} {
			id, err := q.Submit(book(u, 1))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for i, id := range ids {
			if err := q.GroundGroup([]int64{id, id}); err != nil {
				t.Fatal(err)
			}
			if q.isPending(id) {
				t.Fatalf("%v: txn %d still pending", mode, id)
			}
			if q.PendingCount() != len(ids)-(i+1) {
				t.Fatalf("%v: %d pending after grounding txn %d, want %d", mode, q.PendingCount(), id, len(ids)-(i+1))
			}
			if n := db.Len("Available"); n != 3-(i+1) {
				t.Fatalf("%v: %d seats available after grounding txn %d, want %d", mode, n, id, 3-(i+1))
			}
			if n := db.Len("Bookings"); n != i+1 {
				t.Fatalf("%v: %d bookings after grounding txn %d, want %d: %v", mode, n, id, i+1, db.All("Bookings"))
			}
		}
	}
}

// beside books a seat on f that must be next to friend's booking.
func beside(user, friend string, f int) *txn.T {
	return txn.MustParse(fmt.Sprintf(
		"-Available(%d, s), +Bookings('%s', %d, s) :-1 Available(%d, s), Bookings('%s', %d, m), Adjacent(%d, s, m)",
		f, user, f, f, friend, f, f))
}

// collapseScript drives one engine over a 2-flight × 9-seat world through
// a seeded mix of book, bookNextTo pairs, bookChained triples and hard
// seat-beside requests, collapsed by Ground, pairs and triples (submitted
// together, drawn at random, or runs of later arrivals, within and across
// partitions), GroundCoordinated and cancellations. It returns a digest
// of the sorted Bookings rows and the Grounded, SemanticReorders and
// SemanticFallbacks counters.
func collapseScript(t *testing.T, opt Options) string {
	t.Helper()
	db := worldDB([]int{1, 2}, 9)
	q := mustQDB(t, db, opt)
	rng := rand.New(rand.NewSource(25))
	var parties [][]int64
	users := 0
	user := func() string { users++; return fmt.Sprintf("u%d", users) }
	submit := func(tx *txn.T) int64 {
		id, err := q.Submit(tx)
		if errors.Is(err, ErrRejected) {
			return 0
		}
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	// pendingOf keeps the IDs that were admitted and are still pending.
	pendingOf := func(ids []int64) []int64 {
		var live []int64
		for _, id := range ids {
			if id > 0 && q.isPending(id) {
				live = append(live, id)
			}
		}
		return live
	}
	for step := 0; step < 400; step++ {
		f := 1 + rng.Intn(2)
		pending := q.PendingIDs()
		// distinct draws n distinct pending IDs, or nil when too few.
		distinct := func(n int) []int64 {
			if len(pending) < n {
				return nil
			}
			ids := make([]int64, n)
			for i, j := range rng.Perm(len(pending))[:n] {
				ids[i] = pending[j]
			}
			return ids
		}
		var err error
		switch op := rng.Intn(18); op {
		case 0, 1:
			submit(book(user(), f))
		case 2, 3:
			a, b := user(), user()
			if x, y := submit(bookNextTo(a, b, f)), submit(bookNextTo(b, a, f)); x > 0 && y > 0 {
				parties = append(parties, []int64{x, y})
			}
		case 4:
			a, b, c := user(), user(), user()
			x, y, z := submit(bookChained(a, "", f)), submit(bookChained(b, a, f)), submit(bookChained(c, b, f))
			if x > 0 && y > 0 && z > 0 {
				parties = append(parties, []int64{x, y, z})
			}
		case 5: // a seat, then one that must be next to it
			a, b := user(), user()
			submit(book(a, f))
			submit(beside(b, a, f))
		case 6, 14, 15:
			if ids := distinct(1); ids != nil {
				err = q.Ground(ids[0])
			}
		case 7, 8, 17: // a submitted pair or triple, a random pair, or a fresh run
			var ids []int64
			switch {
			case op == 17:
				// A seat, one beside it and one or two more; all but the
				// first collapse together, leaving out the seat the
				// beside request needs.
				a, b := user(), user()
				submit(book(a, f))
				ids = []int64{submit(beside(b, a, f))}
				for n := 1 + rng.Intn(2); n > 0; n-- {
					ids = append(ids, submit(book(user(), f)))
				}
				ids = pendingOf(ids)
			case op == 7 && len(parties) > 0:
				k := rng.Intn(len(parties))
				ids = pendingOf(parties[k])
				parties = append(parties[:k], parties[k+1:]...)
			default:
				ids = distinct(2)
			}
			if len(ids) == 2 {
				// Later partner first: members collapse in arrival order
				// whatever order they are named in.
				ids = []int64{ids[1], ids[0]}
			}
			if len(ids) > 1 {
				err = q.GroundGroup(ids)
			}
		case 9, 16:
			if ids := distinct(3); ids != nil {
				err = q.GroundGroup(ids)
			}
		case 10:
			if ids := distinct(1); ids != nil {
				_, err = q.GroundCoordinated(ids[0])
			}
		case 11, 12, 13: // cancel a booking
			rows := db.All("Bookings")
			if len(rows) == 0 {
				break
			}
			// Scan order follows the physical layout; pick by content.
			sort.Slice(rows, func(i, j int) bool { return rows[i].String() < rows[j].String() })
			b := rows[rng.Intn(len(rows))]
			err = q.Write(
				[]relstore.GroundFact{{Rel: "Available", Tuple: b[1:]}},
				[]relstore.GroundFact{{Rel: "Bookings", Tuple: b}},
			)
		}
		if err != nil && !errors.Is(err, ErrWriteRejected) {
			t.Fatalf("%+v step %d: %v", opt, step, err)
		}
	}
	var rows []string
	for _, tp := range db.All("Bookings") {
		rows = append(rows, tp.String())
	}
	sort.Strings(rows)
	st := q.Stats()
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%d|%d",
		strings.Join(rows, ";"), st.Grounded, st.SemanticReorders, st.SemanticFallbacks)))
	return hex.EncodeToString(sum[:8])
}

// TestCollapseGolden pins what every collapse entry point grounds, in both
// modes, with and without a k-bound: a change to any attempt, order or
// counter moves the digests. The script reaches the semantic fallback of
// Ground, pairs and triples, the strict prefix with and without a tail,
// and both outcomes of GroundCoordinated.
func TestCollapseGolden(t *testing.T) {
	for _, c := range []struct {
		mode Mode
		k    int
		want string
	}{
		{Semantic, 2, "cbe33004e8637326"},
		{Semantic, -1, "991e414a8d1321a4"},
		{Strict, 2, "c5fbc3417c122585"},
		{Strict, -1, "3419d5ed720c0083"},
	} {
		if got := collapseScript(t, Options{Mode: c.mode, K: c.k}); got != c.want {
			t.Errorf("%v K=%d: digest %s, want %s", c.mode, c.k, got, c.want)
		}
	}
}
