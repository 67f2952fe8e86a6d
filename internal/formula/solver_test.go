package formula

import (
	"fmt"
	"testing"

	"repro/internal/txn"
)

// bookingChain returns n stripped booking transactions on flight 1, the
// shape admission and grounding solve on the paper's workload.
func bookingChain(t testing.TB, n int) []*txn.T {
	t.Helper()
	ts := make([]*txn.T, n)
	for i := range ts {
		tx, err := txn.Parse(fmt.Sprintf("-Available(1, s), +Bookings('u%d', 1, s) :-1 Available(1, s)", i))
		if err != nil {
			t.Fatal(err)
		}
		tx.ID = int64(i + 1)
		ts[i] = tx.RenamedApart().Stripped()
	}
	return ts
}

// TestChainSolveAllocsIndependentOfDepth: a warm solve (bodies cached,
// solver scratch pooled) allocates only the solution it returns, so a
// 16-level chain costs no more allocations than a 4-level one.
func TestChainSolveAllocsIndependentOfDepth(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	db := prepStore(t, 32)
	allocs := func(n int) float64 {
		ts := bookingChain(t, n)
		opt := ChainOptions{Prep: NewPrepCache()}
		solve := func() {
			if _, ok, err := SolveChain(db, ts, opt); err != nil || !ok {
				t.Fatalf("%d-level solve: ok=%v err=%v", n, ok, err)
			}
		}
		solve() // compile and cache the bodies, grow the pooled scratch
		return testing.AllocsPerRun(50, solve)
	}
	a4, a16 := allocs(4), allocs(16)
	t.Logf("allocs per warm solve: 4 levels %.1f, 16 levels %.1f", a4, a16)
	if a16 != a4 {
		t.Fatalf("a 16-level solve allocates %.1f, a 4-level one %.1f: some allocation grows with depth", a16, a4)
	}
}

// BenchmarkChainSolve times warm solves of booking chains of increasing
// depth over one flight.
func BenchmarkChainSolve(b *testing.B) {
	for _, n := range []int{1, 7, 20} {
		b.Run(fmt.Sprintf("levels=%d", n), func(b *testing.B) {
			db := prepStore(b, 32)
			ts := bookingChain(b, n)
			opt := ChainOptions{Prep: NewPrepCache()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok, err := SolveChain(db, ts, opt); err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}
