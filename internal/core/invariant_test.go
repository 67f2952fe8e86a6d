package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/value"
)

// TestRandomizedSystemInvariants drives a quantum database with a random
// interleaving of submissions, reads, blind writes and explicit
// groundings, and checks the end-to-end guarantees the paper promises:
//
//  1. conservation: every seat is either available or booked, never both
//     and never twice;
//  2. no lost commits: every accepted resource transaction produces
//     exactly one booking by the time everything is grounded;
//  3. rejected transactions leave no trace;
//  4. admission control: accepted bookings never exceed capacity.
func TestRandomizedSystemInvariants(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomized(t, seed)
		})
	}
}

func runRandomized(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	flights := []int{1, 2, 3}
	seatsPerFlight := 9
	db := worldDB(flights, seatsPerFlight)
	mode := Semantic
	if seed%2 == 0 {
		mode = Strict
	}
	q := mustQDB(t, db, Options{K: 3 + int(seed%4), Mode: mode})

	accepted := make(map[string]bool) // user -> accepted
	users := 0
	ops := 120
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // submit a booking for a random flight
			f := flights[rng.Intn(len(flights))]
			user := fmt.Sprintf("u%d", users)
			users++
			_, err := q.Submit(book(user, f))
			if err == nil {
				accepted[user] = true
			}
		case 6: // read a random earlier user's booking (collapses)
			if users == 0 {
				continue
			}
			user := fmt.Sprintf("u%d", rng.Intn(users))
			if _, err := q.Read([]logic.Atom{
				logic.NewAtom("Bookings", logic.Str(user), logic.Var("f"), logic.Var("s")),
			}); err != nil {
				t.Fatalf("read: %v", err)
			}
		case 7: // blind write: add a brand-new seat (always satisfiable)
			f := flights[rng.Intn(len(flights))]
			seat := fmt.Sprintf("X%d", i)
			if err := q.Write([]relstore.GroundFact{
				{Rel: "Available", Tuple: tup(f, seat)},
			}, nil); err != nil {
				t.Fatalf("additive write rejected: %v", err)
			}
		case 8: // blind delete of a random available seat (may be refused)
			var seats []value.Tuple
			db.Scan("Available", func(tp value.Tuple) bool {
				seats = append(seats, tp.Clone())
				return len(seats) < 20
			})
			if len(seats) == 0 {
				continue
			}
			_ = q.Write(nil, []relstore.GroundFact{
				{Rel: "Available", Tuple: seats[rng.Intn(len(seats))]},
			}) // rejection is legitimate
		case 9: // explicit grounding of a random pending txn
			ids := q.PendingIDs()
			if len(ids) == 0 {
				continue
			}
			if err := q.Ground(ids[rng.Intn(len(ids))]); err != nil {
				t.Fatalf("ground: %v", err)
			}
		}
		checkConservation(t, db)
	}
	if err := q.GroundAll(); err != nil {
		t.Fatalf("final grounding: %v", err)
	}
	checkConservation(t, db)

	// No lost commits, no phantom bookings.
	bookedBy := make(map[string]int)
	db.Scan("Bookings", func(tp value.Tuple) bool {
		bookedBy[tp[0].Str()]++
		return true
	})
	for user := range accepted {
		if bookedBy[user] != 1 {
			t.Errorf("accepted %s has %d bookings, want 1", user, bookedBy[user])
		}
	}
	for user, n := range bookedBy {
		if !accepted[user] {
			t.Errorf("phantom booking for rejected/unknown %s (%d)", user, n)
		}
	}
}

// checkConservation verifies that no (flight, seat) pair is both
// available and booked, and no seat is booked twice.
func checkConservation(t *testing.T, db *relstore.DB) {
	t.Helper()
	booked := make(map[string]string) // flight/seat -> user
	dup := false
	db.Scan("Bookings", func(tp value.Tuple) bool {
		key := tp[1].String() + "/" + tp[2].String()
		if prev, ok := booked[key]; ok {
			t.Errorf("seat %s booked by both %s and %s", key, prev, tp[0].Str())
			dup = true
		}
		booked[key] = tp[0].Str()
		return true
	})
	db.Scan("Available", func(tp value.Tuple) bool {
		key := tp[0].String() + "/" + tp[1].String()
		if user, ok := booked[key]; ok {
			t.Errorf("seat %s both available and booked by %s", key, user)
			dup = true
		}
		return true
	})
	if dup {
		t.FailNow()
	}
}

// TestRandomizedEntangledInvariants drives coordinator traffic randomly
// interleaved with reads and checks that pairs never end up with zero or
// two seats, and adjacency claims are real.
func TestRandomizedEntangledInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := worldDB([]int{1}, 30)
	q := mustQDB(t, db, Options{K: 6})
	c := NewCoordinator(q)

	type pair struct{ a, b string }
	var pairs []pair
	var queue []*struct {
		user, partner string
	}
	for i := 0; i < 10; i++ {
		a, b := fmt.Sprintf("p%da", i), fmt.Sprintf("p%db", i)
		pairs = append(pairs, pair{a, b})
		queue = append(queue, &struct{ user, partner string }{a, b},
			&struct{ user, partner string }{b, a})
	}
	rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })
	for i, e := range queue {
		if _, err := c.Submit(bookNextTo(e.user, e.partner, 1)); err != nil {
			t.Fatal(err)
		}
		// Occasionally read someone mid-stream, forcing collapse.
		if i%5 == 4 {
			target := queue[rng.Intn(i+1)]
			if _, err := q.Read([]logic.Atom{
				logic.NewAtom("Bookings", logic.Str(target.user), logic.Int(1), logic.Var("s")),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	checkConservation(t, db)
	for _, p := range pairs {
		for _, u := range []string{p.a, p.b} {
			n, err := (relstore.Query{Atoms: []logic.Atom{
				logic.NewAtom("Bookings", logic.Str(u), logic.Int(1), logic.Var("s")),
			}}).Count(db)
			if err != nil || n != 1 {
				t.Errorf("%s has %d bookings (err %v)", u, n, err)
			}
		}
	}
}
