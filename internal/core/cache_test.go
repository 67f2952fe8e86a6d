package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/value"
)

// TestGroundReplaysCachedSolution: grounding a partition whose store view
// is unchanged since admission replays the admission-time solution — no
// chain solve — and the resulting store is a consistent world.
func TestGroundReplaysCachedSolution(t *testing.T) {
	db := worldDB([]int{1}, 6)
	q := mustQDB(t, db, Options{})
	for i := 0; i < 4; i++ {
		if _, err := q.Submit(book(fmt.Sprintf("u%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	s := q.Stats()
	if s.SolutionReplays != 4 {
		t.Fatalf("want all 4 groundings replayed from cache, got %d (stale=%d)", s.SolutionReplays, s.SolutionStale)
	}
	if got := db.Len("Bookings"); got != 4 {
		t.Fatalf("bookings = %d, want 4", got)
	}
	// Distinct seats: every booking consumed a different Available row.
	seen := map[string]bool{}
	db.Scan("Bookings", func(tp value.Tuple) bool {
		seen[tp[2].Quoted()] = true
		return true
	})
	if len(seen) != 4 {
		t.Fatalf("replayed groundings share seats: %v", seen)
	}
}

// cheapSeatDB is one flight whose seats are all Available and Cheap.
func cheapSeatDB(seats ...string) *relstore.DB {
	db := relstore.NewDB()
	db.MustCreateTable(relstore.Schema{Name: "Available", Columns: []string{"fno", "sno"}})
	db.MustCreateTable(relstore.Schema{Name: "Cheap", Columns: []string{"sno"}})
	db.MustCreateTable(relstore.Schema{Name: "Bookings", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
	for _, s := range seats {
		db.MustInsert("Available", tup(1, s))
		db.MustInsert("Cheap", tup(s))
	}
	return db
}

// bookCheap books any available cheap seat on flight 1 for name.
func bookCheap(name string) *txn.T {
	return txn.MustParse(fmt.Sprintf(
		"-Available(1, s), +Bookings('%s', 1, s) :-1 Available(1, s), Cheap(s)", name))
}

// TestEpochInvalidationPreventsStaleGrounding: the one write no
// invalidation path could see — a mutation behind the engine's back that
// leaves the cached grounding applicable but inconsistent — is refused
// by the owned store, so the cached grounding stays valid and replays.
func TestEpochInvalidationPreventsStaleGrounding(t *testing.T) {
	db := cheapSeatDB("a", "b")
	q := mustQDB(t, db, Options{})
	id, err := q.Submit(bookCheap("M"))
	if err != nil {
		t.Fatal(err)
	}
	// The admission-time solution deterministically picks seat 'a'
	// (insertion-ordered scans). Deleting Cheap('a') around the engine
	// would leave that grounding applicable but violating the body.
	epoch := db.Epoch()
	if err := db.Delete("Cheap", tup("a")); !errors.Is(err, relstore.ErrOwned) {
		t.Fatalf("out-of-band delete: %v, want ErrOwned", err)
	}
	if !db.Contains("Cheap", tup("a")) || db.Epoch() != epoch {
		t.Fatal("a refused delete changed the store")
	}
	if err := q.Ground(id); err != nil {
		t.Fatal(err)
	}
	if !db.Contains("Bookings", tup("M", 1, "a")) {
		t.Fatalf("bookings = %v, want M on seat 'a'", db.All("Bookings"))
	}
	if s := q.Stats(); s.SolutionReplays != 1 || s.SolutionStale != 0 {
		t.Fatalf("replays = %d, stale = %d; want the cached grounding replayed", s.SolutionReplays, s.SolutionStale)
	}
}

// TestCreateTableKeepsFingerprints: creating a relation on a live engine
// stays open on the owned store and changes no epoch fingerprint, not
// even one over the new relation, whose epoch starts where an unknown
// relation's is.
func TestCreateTableKeepsFingerprints(t *testing.T) {
	q := mustQDB(t, cheapSeatDB("a"), Options{})
	views := []*txn.T{bookCheap("M"), txn.MustParse("+Lounge('M') :-1 Cheap(s), Lounge(s)")}
	before := q.epochFingerprint(views)
	if err := q.Store().CreateTable(relstore.Schema{Name: "Lounge", Columns: []string{"sno"}}); err != nil {
		t.Fatal(err)
	}
	if after := q.epochFingerprint(views); after != before {
		t.Fatalf("CreateTable moved a fingerprint: %x -> %x", before, after)
	}
}

// TestStrictPrefixGroundingReplays: grounding a mid-partition target
// under Strict collapses the whole arrival-order prefix; with a fresh
// cache every head (and the target itself) replays instead of paying a
// prefix-chain solve.
func TestStrictPrefixGroundingReplays(t *testing.T) {
	db := worldDB([]int{1}, 6)
	q := mustQDB(t, db, Options{Mode: Strict})
	var ids []int64
	for i := 0; i < 5; i++ {
		id, err := q.Submit(book(fmt.Sprintf("u%d", i), 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := q.Ground(ids[3]); err != nil {
		t.Fatal(err)
	}
	s := q.Stats()
	if s.Grounded != 4 {
		t.Fatalf("strict ground of position 3 grounded %d txns, want 4", s.Grounded)
	}
	if s.SolutionReplays != 4 {
		t.Fatalf("want the full prefix replayed (4), got %d replays (stale=%d)", s.SolutionReplays, s.SolutionStale)
	}
	if got := db.Len("Bookings"); got != 4 {
		t.Fatalf("bookings = %d, want 4", got)
	}
}

// TestFastPathDoesNotLaunderStaleCache: the admission fast path extends
// the overlapping partitions' cached solutions, which is sound only if
// nothing changed the store behind the engine. An out-of-band delete
// that would have made the cache stale is refused under both admission
// disciplines, and the extended solution books distinct valid seats.
func TestFastPathDoesNotLaunderStaleCache(t *testing.T) {
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("serialAdmission=%v", serial), func(t *testing.T) {
			db := cheapSeatDB("a", "b", "c")
			q := mustQDB(t, db, Options{SerialAdmission: serial})
			if _, err := q.Submit(bookCheap("M")); err != nil { // cached grounding picks 'a'
				t.Fatal(err)
			}
			if err := db.Delete("Cheap", tup("a")); !errors.Is(err, relstore.ErrOwned) {
				t.Fatalf("out-of-band delete: %v, want ErrOwned", err)
			}
			// Overlapping admission: the fast path extends M's cache.
			if _, err := q.Submit(bookCheap("N")); err != nil {
				t.Fatal(err)
			}
			if s := q.Stats(); s.CacheMisses != 0 || s.SolutionStale != 0 {
				t.Fatalf("cache misses = %d, stale = %d; want both admitted by extension", s.CacheMisses, s.SolutionStale)
			}
			if err := q.GroundAll(); err != nil {
				t.Fatal(err)
			}
			seats := map[string]string{}
			for _, tp := range db.All("Bookings") {
				if prev, dup := seats[tp[2].Quoted()]; dup {
					t.Fatalf("seat %s booked by %s and %v", tp[2].Quoted(), prev, tp[0])
				}
				seats[tp[2].Quoted()] = tp[0].Str()
				if !db.Contains("Cheap", value.Tuple{tp[2]}) {
					t.Fatalf("%v booked seat %s, which is not cheap", tp[0], tp[2].Quoted())
				}
			}
			if seats["'a'"] != "M" || len(seats) != 2 {
				t.Fatalf("bookings %v, want M on 'a' and N on another seat", seats)
			}
		})
	}
}

// TestNegativeCacheRejectsRepeatedSubmissions: a rejected admission
// question is answered from the negative cache on resubmission (the
// fresh rename-apart must not defeat the key), and the cache is
// bypassed the moment a write changes a relevant relation.
func TestNegativeCacheRejectsRepeatedSubmissions(t *testing.T) {
	db := worldDB([]int{1}, 2)
	q := mustQDB(t, db, Options{})
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(book(fmt.Sprintf("u%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := q.Submit(book("late", 1)); !errors.Is(err, ErrRejected) {
			t.Fatalf("submission %d: want ErrRejected, got %v", i, err)
		}
	}
	s := q.Stats()
	if s.NegativeCacheHits != 2 {
		t.Fatalf("want 2 negative-cache hits (first rejection solves), got %d", s.NegativeCacheHits)
	}

	// Free a seat through the proper write path: the epoch moves, the
	// negative entry no longer applies, and the same submission must now
	// be accepted by a real solve.
	if err := q.Write([]relstore.GroundFact{{Rel: "Available", Tuple: tup(1, "9Z")}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(book("late", 1)); err != nil {
		t.Fatalf("post-write submission still rejected: %v", err)
	}
}

// TestNegativeCacheRejectsRepeatedWrites: a blind write rejected because
// it would empty the possible worlds is re-rejected by probe, and
// accepted after the store changes enough to make it safe.
func TestNegativeCacheRejectsRepeatedWrites(t *testing.T) {
	db := worldDB([]int{1}, 1)
	q := mustQDB(t, db, Options{})
	if _, err := q.Submit(book("M", 1)); err != nil {
		t.Fatal(err)
	}
	del := []relstore.GroundFact{{Rel: "Available", Tuple: tup(1, "1A")}}
	for i := 0; i < 3; i++ {
		if err := q.Write(nil, del); !errors.Is(err, ErrWriteRejected) {
			t.Fatalf("write %d: want ErrWriteRejected, got %v", i, err)
		}
	}
	s := q.Stats()
	if s.NegativeCacheHits != 2 {
		t.Fatalf("want 2 negative-cache hits, got %d", s.NegativeCacheHits)
	}
	// Adding a second seat makes deleting 1A safe; the stale negative
	// entry must not block it.
	if err := q.Write([]relstore.GroundFact{{Rel: "Available", Tuple: tup(1, "2A")}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Write(nil, del); err != nil {
		t.Fatalf("write after freeing a seat: %v", err)
	}
}

// TestCacheHitPathAllocs is the repeated-admission acceptance guard: the
// second-and-later solve of an unchanged partition (a rejected
// resubmission answered by cache probe) must allocate at least 2x less
// than the first (cold, solving) one. The bound asserted is much
// stronger than 2x — the hit path does no solver work at all.
func TestCacheHitPathAllocs(t *testing.T) {
	db := worldDB([]int{1}, 6)
	q := mustQDB(t, db, Options{})
	for i := 0; i < 6; i++ {
		if _, err := q.Submit(book(fmt.Sprintf("u%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	reject := func() {
		if _, err := q.Submit(book("late", 1)); !errors.Is(err, ErrRejected) {
			t.Fatalf("want ErrRejected, got %v", err)
		}
	}
	allocsOf := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	cold := allocsOf(reject) // first rejection: full composed-body solve
	warm := testing.AllocsPerRun(50, reject)
	t.Logf("rejected admission: cold=%d allocs, cache-hit=%.0f allocs", cold, warm)
	if warm*2 > float64(cold) {
		t.Fatalf("cache-hit path allocates %.0f, cold path %d: want >=2x reduction", warm, cold)
	}
	// Absolute ratchet on the hit path so it cannot quietly regrow: it
	// parses nothing and solves nothing, just renames, hashes and probes.
	if warm > 120 {
		t.Fatalf("cache-hit rejection allocates %.0f (> 120): the probe path regressed", warm)
	}
}

// TestCachesUnderConcurrentWriters drives submissions, writes, grounds
// and reads concurrently (run under -race) and then checks the final
// store is a consistent world: every booked seat distinct, nothing
// double-sold, bookings+available conserved per flight.
func TestCachesUnderConcurrentWriters(t *testing.T) {
	const flights = 4
	const seats = 6
	var fs []int
	for f := 1; f <= flights; f++ {
		fs = append(fs, f)
	}
	db := worldDB(fs, seats)
	q := mustQDB(t, db, Options{Workers: 4})

	var wg sync.WaitGroup
	for f := 1; f <= flights; f++ {
		f := f
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < seats+3; i++ {
				_, err := q.Submit(book(fmt.Sprintf("f%du%d", f, i), f))
				if err != nil && !errors.Is(err, ErrRejected) {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				// Extra inventory lands through the validated write path;
				// rejections (when a partition is mid-collapse) are fine.
				err := q.Write([]relstore.GroundFact{{Rel: "Available", Tuple: tup(f, fmt.Sprintf("X%d", i))}}, nil)
				if err != nil && !errors.Is(err, ErrWriteRejected) {
					t.Errorf("write: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := q.GroundAll(); err != nil {
				t.Errorf("groundall: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := 1; f <= flights; f++ {
			if _, err := q.Read([]logic.Atom{logic.NewAtom("Bookings",
				logic.Var("n"), logic.Const(value.NewInt(int64(f))), logic.Var("s"))}); err != nil {
				t.Errorf("read: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}

	// Consistency: no seat is both booked and available, and no seat is
	// booked twice on one flight.
	type fs2 struct{ f, s string }
	booked := map[fs2]bool{}
	db.Scan("Bookings", func(tp value.Tuple) bool {
		k := fs2{tp[1].Quoted(), tp[2].Quoted()}
		if booked[k] {
			t.Errorf("seat %v double-booked", k)
		}
		booked[k] = true
		return true
	})
	db.Scan("Available", func(tp value.Tuple) bool {
		if booked[fs2{tp[0].Quoted(), tp[1].Quoted()}] {
			t.Errorf("seat %v both booked and available", tp)
		}
		return true
	})
}

// TestReplayDisabledWithCacheAblation: the DisableCache ablation must
// keep every new cache off (full solves, no probes), matching the
// paper's uncached baseline.
func TestReplayDisabledWithCacheAblation(t *testing.T) {
	db := worldDB([]int{1}, 3)
	q := mustQDB(t, db, Options{DisableCache: true})
	for i := 0; i < 3; i++ {
		if _, err := q.Submit(book(fmt.Sprintf("u%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Submit(book("late", 1)); !errors.Is(err, ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	if _, err := q.Submit(book("late2", 1)); !errors.Is(err, ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	s := q.Stats()
	if s.SolutionReplays != 0 || s.NegativeCacheHits != 0 || s.PrepCacheHits != 0 {
		t.Fatalf("ablation leaked cache activity: %+v", s)
	}
	if got := db.Len("Bookings"); got != 3 {
		t.Fatalf("bookings = %d, want 3", got)
	}
}

// TestReplayAfterEvictionResolvesCorrectly: a k-bound eviction replays
// the cached head; later submissions into the shrunken partition must
// still extend correctly (the realigned tail + restamped epoch).
func TestReplayAfterEvictionResolvesCorrectly(t *testing.T) {
	db := worldDB([]int{1}, 9)
	q := mustQDB(t, db, Options{K: 3})
	for i := 0; i < 8; i++ {
		if _, err := q.Submit(book(fmt.Sprintf("u%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	s := q.Stats()
	if s.ForcedByK == 0 {
		t.Fatal("k-bound never triggered; test is vacuous")
	}
	if s.SolutionReplays == 0 {
		t.Fatal("k-bound evictions never replayed the cached head")
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	if got := db.Len("Bookings"); got != 8 {
		t.Fatalf("bookings = %d, want 8", got)
	}
}
