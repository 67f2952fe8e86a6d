package formula

import (
	"fmt"
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
// solve of the same transaction views compiles nothing.
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
		t.Fatalf("want 1 cached view, got %d", pc.Len())
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

// TestPrepCacheEviction: evicting a transaction drops all its views and
// the next solve recompiles.
func TestPrepCacheEviction(t *testing.T) {
	db := prepStore(t, 3)
	tx := mustParse(t, "-Available(1, s), +Bookings('M', 1, s) :-1 Available(1, s), ?Available(1, 'x')")
	pc := NewPrepCache()
	opt := ChainOptions{Prep: pc}
	// Solve both the stripped and hardened views so both are cached.
	for _, v := range []*txn.T{tx.Stripped(), tx.Hardened()} {
		if _, _, err := SolveChain(db, []*txn.T{v}, opt); err != nil {
			t.Fatal(err)
		}
	}
	if pc.Len() != 2 {
		t.Fatalf("want 2 cached views, got %d", pc.Len())
	}
	pc.Evict(tx)
	if pc.Len() != 0 {
		t.Fatalf("eviction left %d views", pc.Len())
	}
	_, misses := pc.Counters()
	if _, _, err := SolveChain(db, []*txn.T{tx.Stripped()}, opt); err != nil {
		t.Fatal(err)
	}
	if _, m := pc.Counters(); m != misses+1 {
		t.Fatalf("post-eviction solve did not recompile (misses %d -> %d)", misses, m)
	}
}

// TestPrepCacheMaximizeMasks: the optional-subset search caches one
// compilation per (view, mask) and reuses them across solves.
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

// TestPrepCacheClaimExclusive: a claimed entry is invisible to a second
// concurrent lookup (which must compile its own copy), and becomes
// visible again once released — the property that makes concurrent
// same-view solves (optimistic admission speculation) safe.
func TestPrepCacheClaimExclusive(t *testing.T) {
	pc := NewPrepCache()
	tx := txn.MustParse("-A(x), +B(x) :-1 A(x)")
	view := tx.Stripped()
	e := pc.store(view, 0, compileBody(view, 0, relstore.PlanDynamic))

	if _, _, ok := pc.lookup(view, 0); ok {
		t.Fatal("lookup handed out an entry still claimed by its creator")
	}
	e.release()
	p2, e2, ok := pc.lookup(view, 0)
	if !ok || p2 == nil {
		t.Fatal("released entry did not become claimable")
	}
	if _, _, ok := pc.lookup(view, 0); ok {
		t.Fatal("entry claimed twice concurrently")
	}
	e2.release()
	if _, _, ok := pc.lookup(view, 0); !ok {
		t.Fatal("second release did not restore claimability")
	}
}
