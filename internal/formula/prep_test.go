package formula

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/value"
)

func prepStore(t testing.TB, seats int) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	db.MustCreateTable(relstore.Schema{Name: "Available", Columns: []string{"fno", "sno"}})
	db.MustCreateTable(relstore.Schema{Name: "Bookings", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
	for i := 0; i < seats; i++ {
		db.MustInsert("Available", value.Tuple{value.NewInt(1), value.NewString(fmt.Sprintf("s%d", i))})
	}
	return db
}

func mustParse(t *testing.T, src string) *txn.T {
	t.Helper()
	tx, err := txn.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestPrepCacheCrossSolveReuse proves the point of the cache: the second
// solve of the same transaction compiles nothing.
func TestPrepCacheCrossSolveReuse(t *testing.T) {
	db := prepStore(t, 3)
	tx := mustParse(t, "-Available(1, s), +Bookings('M', 1, s) :-1 Available(1, s)")
	pc := NewPrepCache()
	opt := ChainOptions{Prep: pc}

	for i := 0; i < 3; i++ {
		_, ok, err := SolveChain(db, []*txn.T{tx.Stripped()}, opt)
		if err != nil || !ok {
			t.Fatalf("solve %d: ok=%v err=%v", i, ok, err)
		}
	}
	hits, misses := pc.Counters()
	if misses != 1 {
		t.Fatalf("want exactly one compile (miss), got %d", misses)
	}
	if hits != 2 {
		t.Fatalf("want 2 cross-solve hits, got %d", hits)
	}
	if pc.Len() != 1 {
		t.Fatalf("want 1 cached shape, got %d", pc.Len())
	}
}

// TestPrepCacheAgreesWithUncached runs the same chain with and without
// the cache and requires identical solutions.
func TestPrepCacheAgreesWithUncached(t *testing.T) {
	db := prepStore(t, 4)
	t1 := mustParse(t, "-Available(1, s), +Bookings('A', 1, s) :-1 Available(1, s)")
	t2 := mustParse(t, "-Available(1, u), +Bookings('B', 1, u) :-1 Available(1, u)")
	views := []*txn.T{t1.Stripped(), t2.Stripped()}

	plain, err := SolveChainN(db, views, ChainOptions{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPrepCache()
	var cachedRuns [][]*ChainSolution
	for i := 0; i < 2; i++ {
		got, err := SolveChainN(db, views, ChainOptions{Prep: pc}, 4)
		if err != nil {
			t.Fatal(err)
		}
		cachedRuns = append(cachedRuns, got)
	}
	render := func(sols []*ChainSolution) string {
		out := ""
		for _, s := range sols {
			ins, dels := s.Facts()
			out += fmt.Sprint(ins, dels, ";")
		}
		return out
	}
	want := render(plain)
	for i, got := range cachedRuns {
		if render(got) != want {
			t.Fatalf("cached run %d diverged:\n got %s\nwant %s", i, render(got), want)
		}
	}
}

// TestPrepCacheMaximizeMasks: the optional-subset search caches one
// compilation per (shape, mask) and reuses them across solves.
func TestPrepCacheMaximizeMasks(t *testing.T) {
	db := prepStore(t, 3)
	tx := mustParse(t, "-Available(1, s), +Bookings('M', 1, s) :-1 Available(1, s), ?Available(1, 'zz')")
	pc := NewPrepCache()
	opt := ChainOptions{MaximizeOptionals: true, Prep: pc}
	if _, ok, err := SolveChain(db, []*txn.T{tx}, opt); err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	_, missesAfterFirst := pc.Counters()
	if missesAfterFirst == 0 {
		t.Fatal("first maximize solve compiled nothing?")
	}
	if _, ok, err := SolveChain(db, []*txn.T{tx}, opt); err != nil || !ok {
		t.Fatalf("second: ok=%v err=%v", ok, err)
	}
	if _, m := pc.Counters(); m != missesAfterFirst {
		t.Fatalf("second maximize solve recompiled: misses %d -> %d", missesAfterFirst, m)
	}
}

// TestPrepCacheClaimContract: a claim of a shape whose bodies are all
// held misses (so concurrent claims never share a body), a released body
// is handed out again, and a shape's free list holds every released body.
func TestPrepCacheClaimContract(t *testing.T) {
	pc := NewPrepCache()
	tx := txn.MustParse("-A(x), +B(x) :-1 A(x)")
	k := prepKey{shape: tx.Shape()}
	compiled := func(cl claim) claim {
		cl.b = compileBody(tx, 0, relstore.PlanDynamic)
		return cl
	}

	c1 := pc.claim(k)
	if c1.b != nil {
		t.Fatal("claim of an empty cache hit")
	}
	c1 = compiled(c1)
	pc.release([]claim{c1})
	c2 := pc.claim(k)
	if c2.b != c1.b {
		t.Fatal("released body was not handed out again")
	}
	c3 := pc.claim(k)
	if c3.b != nil {
		t.Fatal("a body held by one claim was handed to a concurrent one")
	}
	c3 = compiled(c3)
	pc.release([]claim{c2, c3})
	a, b := pc.claim(k), pc.claim(k)
	if a.b == nil || b.b == nil || a.b == b.b {
		t.Fatalf("two claims after two releases: %p and %p, want two distinct bodies", a.b, b.b)
	}
	if hits, misses := pc.Counters(); hits != 3 || misses != 2 {
		t.Fatalf("hits %d misses %d, want 3 and 2", hits, misses)
	}
}

// TestPrepCacheCap: more distinct shapes than the cap never leave more
// than the cap cached.
func TestPrepCacheCap(t *testing.T) {
	pc := NewPrepCache()
	for i := 0; i <= PrepCacheCap; i++ {
		tx := txn.MustParse(fmt.Sprintf("+B(x) :-1 R%d(x)", i))
		cl := pc.claim(prepKey{shape: tx.Shape()})
		cl.b = compileBody(tx, 0, relstore.PlanDynamic)
		pc.release([]claim{cl})
	}
	if n := pc.Len(); n < 1 || n > PrepCacheCap {
		t.Fatalf("%d shapes cached after %d, cap %d", n, PrepCacheCap+1, PrepCacheCap)
	}
}

// shapeStore holds three flights of 24 seats, seat adjacency, and
// bookings of the partners the shape tests coordinate with.
func shapeStore(t testing.TB) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	db.MustCreateTable(relstore.Schema{Name: "Available", Columns: []string{"fno", "sno"}})
	db.MustCreateTable(relstore.Schema{Name: "Bookings", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
	db.MustCreateTable(relstore.Schema{Name: "Adjacent", Columns: []string{"fno", "sno", "nbr"}})
	seat := func(i int) value.Value { return value.NewString(fmt.Sprintf("s%d", i)) }
	for f := int64(1); f <= 3; f++ {
		fv := value.NewInt(f)
		for i := 0; i < 24; i++ {
			if i == int(f) || i == int(f)+8 || i == int(f)+16 {
				db.MustInsert("Bookings", value.Tuple{value.NewString(fmt.Sprintf("p%d", i%4)), fv, seat(i)})
			} else {
				db.MustInsert("Available", value.Tuple{fv, seat(i)})
			}
			if i > 0 {
				db.MustInsert("Adjacent", value.Tuple{fv, seat(i), seat(i - 1)})
				db.MustInsert("Adjacent", value.Tuple{fv, seat(i - 1), seat(i)})
			}
		}
	}
	return db
}

// shapeChain returns a chain of n transactions of two shapes — a booking
// next to a partner, and a booking of a literal seat — whose constants
// (flight, user, partner, seat) are drawn from rng.
func shapeChain(rng *rand.Rand, n int) []*txn.T {
	ts := make([]*txn.T, n)
	for i := range ts {
		f, u, p, s := 1+rng.Intn(3), rng.Intn(100), rng.Intn(4), rng.Intn(24)
		src := fmt.Sprintf("-Available(%d, s), +Bookings('u%d', %d, s) :-1 Available(%d, s), ?Bookings('p%d', %d, m), ?Adjacent(%d, s, m)", f, u, f, f, p, f, f)
		if rng.Intn(4) == 0 {
			src = fmt.Sprintf("-Available(%d, 's%d'), +Bookings('u%d', %d, 's%d') :-1 Available(%d, 's%d')", f, s, u, f, s, f, s)
		}
		tx := txn.MustParse(src)
		tx.ID = int64(i + 1)
		ts[i] = tx.RenamedApart()
	}
	return ts
}

// renderSolutions prints solutions (or the solve's error) completely
// enough that two renderings are equal only if the solves are.
func renderSolutions(sols []*ChainSolution, err error) string {
	if err != nil {
		return err.Error()
	}
	var b strings.Builder
	for _, s := range sols {
		for _, g := range s.Groundings {
			fmt.Fprintf(&b, "%d:%d+%v-%v;", g.Txn.ID, g.OptionalSatisfied, g.Inserts, g.Deletes)
		}
		b.WriteByte('|')
	}
	return b.String()
}

// TestPrepCacheShapeReuse: transactions that differ only in their
// constants share compiled bodies, and every solve through one shared
// cache equals the uncached solve byte for byte — with and without the
// optional-subset search, in chains up to 16 deep. A step budget bounds
// the unsatisfiable chains (a literal seat taken earlier in the chain);
// running out of it must happen identically too.
func TestPrepCacheShapeReuse(t *testing.T) {
	db := shapeStore(t)
	for _, maximize := range []bool{false, true} {
		pc := NewPrepCache()
		rng := rand.New(rand.NewSource(7))
		opt := ChainOptions{MaximizeOptionals: maximize, MaxSteps: 2000}
		for round := 0; round < 150; round++ {
			ts := shapeChain(rng, 1+rng.Intn(16))
			want := renderSolutions(SolveChainN(db, ts, opt, 3))
			cachedOpt := opt
			cachedOpt.Prep = pc
			if got := renderSolutions(SolveChainN(db, ts, cachedOpt, 3)); got != want {
				t.Fatalf("maximize=%v round %d: cached solve diverged\n got %s\nwant %s", maximize, round, got, want)
			}
		}
		hits, misses := pc.Counters()
		t.Logf("maximize=%v: %d hits, %d misses, %d shapes", maximize, hits, misses, pc.Len())
		if hits < 10*misses {
			t.Fatalf("maximize=%v: %d hits, %d misses: same-shape solves are not sharing bodies", maximize, hits, misses)
		}
	}
}

// TestPrepCacheConcurrentSameShape: goroutines solving same-shape chains
// with their own constants through one shared cache each get their own
// answer. CI runs it under -race many times.
func TestPrepCacheConcurrentSameShape(t *testing.T) {
	db := shapeStore(t)
	pc := NewPrepCache()
	const goros, rounds = 4, 40
	var wg sync.WaitGroup
	errs := make(chan error, goros)
	for g := 0; g < goros; g++ {
		rng := rand.New(rand.NewSource(int64(g)))
		chains := make([][]*txn.T, 4)
		wants := make([]string, len(chains))
		for i := range chains {
			chains[i] = shapeChain(rng, 1+rng.Intn(8))
			wants[i] = renderSolutions(SolveChainN(db, chains[i], ChainOptions{MaximizeOptionals: true, MaxSteps: 2000}, 2))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := r % len(chains)
				got := renderSolutions(SolveChainN(db, chains[i], ChainOptions{MaximizeOptionals: true, MaxSteps: 2000, Prep: pc}, 2))
				if got != wants[i] {
					errs <- fmt.Errorf("round %d: got %s, want %s", r, got, wants[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
