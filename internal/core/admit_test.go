package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/value"
)

// TestOptimisticAdmissionDisjoint: concurrent Submits on disjoint
// flights decide optimistically (speculative solves on the pool, no
// serial fallback needed) and produce exactly the serial outcome.
func TestOptimisticAdmissionDisjoint(t *testing.T) {
	const flights, seats = 6, 6
	fls := make([]int, flights)
	for i := range fls {
		fls[i] = i + 1
	}
	q := mustQDB(t, worldDB(fls, seats), Options{K: -1, Workers: 4})
	var wg sync.WaitGroup
	for f := 1; f <= flights; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < seats; i++ {
				if _, err := q.Submit(book(fmt.Sprintf("f%du%d", f, i), f)); err != nil {
					t.Errorf("submit f%d/%d: %v", f, i, err)
					return
				}
			}
		}(f)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := q.Stats()
	if st.Accepted != flights*seats {
		t.Fatalf("accepted %d, want %d", st.Accepted, flights*seats)
	}
	if st.OptimisticAdmissions == 0 {
		t.Fatal("no admission went optimistic")
	}
	if st.ParallelSolves == 0 {
		t.Fatal("no speculative solve ran on the pool")
	}
	if st.AdmissionConflicts != st.AdmissionRetries+st.SerialFallbacks {
		t.Fatalf("conflicts %d != retries %d + fallbacks %d",
			st.AdmissionConflicts, st.AdmissionRetries, st.SerialFallbacks)
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
}

// TestOptimisticAdmissionStress is the -race acceptance stress: mixed
// overlapping and disjoint Submits race GroundAll barriers, explicit
// Grounds, blind Writes, AND attempted out-of-band Store() mutations,
// which the owned store must refuse without blocking in-flight solves.
// At the end: a consistent world and reconciled admission counters.
func TestOptimisticAdmissionStress(t *testing.T) {
	const (
		flights    = 6
		seatsEach  = 10
		clients    = 8
		opsPerGoro = 20
	)
	fls := make([]int, flights)
	for i := range fls {
		fls[i] = i + 1
	}
	db := worldDB(fls, seatsEach)
	q := mustQDB(t, db, Options{K: 5, Workers: 4})

	var (
		wg        sync.WaitGroup
		submitted atomic.Int64
		rejected  atomic.Int64
	)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 77)))
			var myIDs []int64
			for op := 0; op < opsPerGoro; op++ {
				// Half the clients hammer flight 1 (overlapping admissions,
				// real conflicts), half spread out (disjoint concurrency).
				f := 1
				if g%2 == 0 {
					f = rng.Intn(flights) + 1
				}
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5:
					id, err := q.Submit(book(fmt.Sprintf("g%d_%d", g, op), f))
					if err != nil {
						if errors.Is(err, ErrRejected) {
							rejected.Add(1)
							continue
						}
						t.Errorf("submit: %v", err)
						return
					}
					submitted.Add(1)
					myIDs = append(myIDs, id)
				case 6:
					if len(myIDs) > 0 {
						id := myIDs[rng.Intn(len(myIDs))]
						if err := q.Ground(id); err != nil && !errors.Is(err, ErrUnknownTxn) {
							t.Errorf("ground: %v", err)
							return
						}
					}
				case 7:
					if err := q.GroundAll(); err != nil {
						t.Errorf("groundall: %v", err)
						return
					}
				case 8:
					// Validated blind write: new inventory through the engine.
					err := q.Write([]relstore.GroundFact{
						{Rel: "Available", Tuple: tup(f, fmt.Sprintf("W%d_%d", g, op))}}, nil)
					if err != nil && !errors.Is(err, ErrWriteRejected) {
						t.Errorf("write: %v", err)
						return
					}
				case 9:
					// Out-of-band mutation: inventory added around the
					// engine is refused. It takes no store lock, so it
					// races in-flight solves without the engine's gate.
					err := db.Insert("Available", tup(f, fmt.Sprintf("OOB%d_%d", g, op)))
					if !errors.Is(err, relstore.ErrOwned) {
						t.Errorf("out-of-band insert: %v, want ErrOwned", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := q.GroundAll(); err != nil {
		t.Fatalf("final GroundAll: %v", err)
	}
	if n := q.PendingCount(); n != 0 {
		t.Fatalf("pending after GroundAll = %d", n)
	}

	// World consistency: no double-booked seat, no booked seat still
	// available.
	type key struct{ f, s string }
	booked := map[key]string{}
	for _, tp := range db.All("Bookings") {
		k := key{tp[1].String(), tp[2].String()}
		if prev, dup := booked[k]; dup {
			t.Fatalf("seat %v booked by %s and %s", k, prev, tp[0].Str())
		}
		booked[k] = tp[0].Str()
	}
	for _, tp := range db.All("Available") {
		if user, ok := booked[key{tp[0].String(), tp[1].String()}]; ok {
			t.Fatalf("seat %v booked by %s and still available", tp, user)
		}
	}

	st := q.Stats()
	if st.Accepted != int(submitted.Load()) {
		t.Errorf("accepted %d, local count %d", st.Accepted, submitted.Load())
	}
	if st.Rejected != int(rejected.Load()) {
		t.Errorf("rejected %d, local count %d", st.Rejected, rejected.Load())
	}
	if st.Grounded != st.Accepted {
		t.Errorf("grounded %d != accepted %d after GroundAll", st.Grounded, st.Accepted)
	}
	// Retry accounting: every conflict either retried or fell back, and
	// retries never exceed the per-call budget.
	if st.AdmissionConflicts != st.AdmissionRetries+st.SerialFallbacks {
		t.Errorf("conflicts %d != retries %d + fallbacks %d",
			st.AdmissionConflicts, st.AdmissionRetries, st.SerialFallbacks)
	}
	if max := 2 * st.Submitted; st.AdmissionRetries > max {
		t.Errorf("%d retries for %d submits exceeds the per-call budget", st.AdmissionRetries, st.Submitted)
	}
}

// TestOptimisticConflictRetryAdmits: two admissions racing on the SAME
// partition must both land (one speculates against a snapshot the other
// invalidates; the conflict retries and succeeds), with the conflict
// visible in the counters and both bookings on distinct seats.
func TestOptimisticConflictRetryAdmits(t *testing.T) {
	db := worldDB([]int{1}, 12)
	q := mustQDB(t, db, Options{K: -1, Workers: 4})
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := q.Submit(book(fmt.Sprintf("u%d", i), 1)); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	db.Scan("Bookings", func(tp value.Tuple) bool {
		if seen[tp[2].Quoted()] {
			t.Errorf("seat %s double-booked", tp[2].Quoted())
		}
		seen[tp[2].Quoted()] = true
		return true
	})
	if len(seen) != n {
		t.Fatalf("%d distinct seats booked, want %d", len(seen), n)
	}
	st := q.Stats()
	if st.AdmissionConflicts != st.AdmissionRetries+st.SerialFallbacks {
		t.Fatalf("conflicts %d != retries %d + fallbacks %d",
			st.AdmissionConflicts, st.AdmissionRetries, st.SerialFallbacks)
	}
}

// TestSerialAdmissionAblation: with the knob on, no admission goes
// optimistic and no speculative admission solve runs, but outcomes are
// identical.
func TestSerialAdmissionAblation(t *testing.T) {
	db := worldDB([]int{1}, 3)
	q := mustQDB(t, db, Options{SerialAdmission: true})
	for i := 0; i < 3; i++ {
		if _, err := q.Submit(book(fmt.Sprintf("u%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Submit(book("late", 1)); !errors.Is(err, ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	st := q.Stats()
	if st.OptimisticAdmissions != 0 || st.AdmissionConflicts != 0 || st.SerialFallbacks != 0 {
		t.Fatalf("serial ablation leaked optimistic admission state: %+v", st)
	}
	if err := q.GroundAll(); err != nil {
		t.Fatal(err)
	}
	if got := db.Len("Bookings"); got != 3 {
		t.Fatalf("bookings = %d, want 3", got)
	}
}

// TestAdmissionCostIndependentOfPartitionCount: admitting a booking on a
// fresh flight costs the same whether 10 or 1,000 other single-flight
// partitions are pending — the overlap index walks what the atoms can
// touch, not every partition of their relations.
func TestAdmissionCostIndependentOfPartitionCount(t *testing.T) {
	const runs, submitted = 50, 1000
	cost := func(others int) (allocs, bytes float64) {
		fls := make([]int, submitted+runs+1)
		for i := range fls {
			fls[i] = i + 1
		}
		q := mustQDB(t, worldDB(fls, 3), Options{K: -1})
		// Every case submits as many bookings and grounds all but others
		// of them, so the measured admissions carry IDs of the same width
		// (renaming apart formats the ID into every variable name).
		for f := 1; f <= submitted; f++ {
			id, err := q.Submit(book(fmt.Sprintf("u%d", f), f))
			if err != nil {
				t.Fatal(err)
			}
			if f <= submitted-others {
				if err := q.Ground(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		fresh := make([]*txn.T, runs+1) // AllocsPerRun adds a warm-up call
		for i := range fresh {
			fresh[i] = book(fmt.Sprintf("new%d", i), submitted+1+i)
		}
		i := 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() {
			if _, err := q.Submit(fresh[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs+1)
	}
	smallA, smallB := cost(10)
	bigA, bigB := cost(1000)
	t.Logf("per Submit on a fresh flight: %.0f allocs, %.0f B with 10 partitions pending; %.0f allocs, %.0f B with 1000", smallA, smallB, bigA, bigB)
	if bigA > smallA+2 || bigB > 1.5*smallB {
		t.Fatalf("admission cost grows with the pending set: %.0f allocs / %.0f B at 10 partitions, %.0f allocs / %.0f B at 1000", smallA, smallB, bigA, bigB)
	}
}
