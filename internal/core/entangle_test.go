package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/logic"
)

func registrySize(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.partnerOf)
}

// TestCoordinatorRegistryBounded: with K=1 every entangled transaction
// whose partner never arrives is force-grounded by the next booking on its
// flight, leaving a stale registry entry behind. The amortised sweep keeps
// the registry within twice the live transactions plus pruneSlack.
func TestCoordinatorRegistryBounded(t *testing.T) {
	const flights, submits = 8, 600
	fls := make([]int, flights)
	for i := range fls {
		fls[i] = i + 1
	}
	q := mustQDB(t, worldDB(fls, submits/flights+3), Options{K: 1})
	c := NewCoordinator(q)
	largest := 0
	for i := 0; i < submits; i++ {
		if _, err := c.Submit(bookNextTo(fmt.Sprintf("u%d", i), fmt.Sprintf("ghost%d", i), i%flights+1)); err != nil {
			t.Fatal(err)
		}
		live, n := q.PendingCount(), registrySize(c)
		if n > 2*live+pruneSlack {
			t.Fatalf("after %d submits the registry holds %d entries for %d live transactions", i+1, n, live)
		}
		largest = max(largest, n)
	}
	t.Logf("registry peaked at %d entries over %d submits (%d live)", largest, submits, q.PendingCount())
}

// TestCoordinatorLatePartnerAfterForcedGrounding: a partner arriving after
// its mate was force-grounded finds only the mate's stale entry, which
// must not match; with EagerCoordination it collapses through
// GroundCoordinated next to the mate, and the walk drops the stale entry.
func TestCoordinatorLatePartnerAfterForcedGrounding(t *testing.T) {
	db := worldDB([]int{1}, 12)
	q := mustQDB(t, db, Options{K: 1})
	c := NewCoordinator(q)
	c.EagerCoordination = true
	mickey, err := c.Submit(bookNextTo("Mickey", "Goofy", 1))
	if err != nil {
		t.Fatal(err)
	}
	// Same flight, so K=1 force-grounds Mickey; no sweep runs this small.
	if _, err := c.Submit(bookSeat("Pluto", 1, "4C")); err != nil {
		t.Fatal(err)
	}
	if q.isPending(mickey) || registrySize(c) != 1 {
		t.Fatalf("want Mickey grounded with a stale entry left; pending=%v registry=%d", q.isPending(mickey), registrySize(c))
	}
	if _, err := c.Submit(bookNextTo("Goofy", "Mickey", 1)); err != nil {
		t.Fatal(err)
	}
	if c.CoordinatedPairs() != 1 || q.PendingCount() != 0 {
		t.Fatalf("late partner: CoordinatedPairs=%d pending=%d, want 1 and 0", c.CoordinatedPairs(), q.PendingCount())
	}
	assertAdjacent(t, db, "Mickey", "Goofy")
	if n := registrySize(c); n != 0 {
		t.Fatalf("registry holds %d entries, want the stale one dropped", n)
	}
}

// TestCoordinatorStreamMatchesReference replays a fixed-seed stream of
// pairs, late partners, partners that never arrive and collapsing reads,
// long enough for several registry sweeps, and checks the outcome against
// the one recorded when every submit swept the whole registry.
func TestCoordinatorStreamMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		eager         bool
		pairs         int
		bookingDigest uint64
	}{
		{false, 12, 0x20e21ba133d070e3},
		{true, 24, 0x548041f831728ece},
	} {
		pairs, digest := runCoordinatorStream(t, 7, tc.eager)
		t.Logf("eager=%v: CoordinatedPairs=%d bookings digest=%#x", tc.eager, pairs, digest)
		if pairs != tc.pairs || digest != tc.bookingDigest {
			t.Errorf("eager=%v: CoordinatedPairs=%d digest=%#x, want %d and %#x", tc.eager, pairs, digest, tc.pairs, tc.bookingDigest)
		}
	}
}

func runCoordinatorStream(t *testing.T, seed int64, eager bool) (int, uint64) {
	const flights, seats, steps = 5, 90, 400
	fls := make([]int, flights)
	for i := range fls {
		fls[i] = i + 1
	}
	db := worldDB(fls, seats)
	q := mustQDB(t, db, Options{K: 2})
	c := NewCoordinator(q)
	c.EagerCoordination = eager
	rng := rand.New(rand.NewSource(seed))
	type open struct {
		user string
		f    int
	}
	var waiting []open
	for i := 0; i < steps; i++ {
		var err error
		switch r := rng.Intn(10); {
		case r < 4: // a pair's first half
			f := rng.Intn(flights) + 1
			_, err = c.Submit(bookNextTo(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), f))
			waiting = append(waiting, open{fmt.Sprintf("a%d", i), f})
		case r < 7 && len(waiting) > 0: // its partner, possibly long after
			j := rng.Intn(len(waiting))
			w := waiting[j]
			waiting = append(waiting[:j], waiting[j+1:]...)
			_, err = c.Submit(bookNextTo("b"+w.user[1:], w.user, w.f))
		case r < 9: // a partner that never arrives
			_, err = c.Submit(bookNextTo(fmt.Sprintf("g%d", i), fmt.Sprintf("ghost%d", i), rng.Intn(flights)+1))
		default: // a read collapses whatever it observes
			_, err = q.Read([]logic.Atom{logic.NewAtom("Bookings", logic.Var("n"), logic.Int(int64(rng.Intn(flights)+1)), logic.Var("s"))})
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, r := range db.All("Bookings") {
		rows = append(rows, r.String())
	}
	sort.Strings(rows)
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r))
	}
	return c.CoordinatedPairs(), h.Sum64()
}
