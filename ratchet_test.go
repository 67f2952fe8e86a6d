package quantumdb

import (
	"os"
	"testing"
)

// fig7AllocCeiling is the hard allocation ratchet for BenchmarkFig7, the
// grounding-heavy workload (ROADMAP "Benchmark CI ratchets"). History:
// seed ~1.12M allocs/op; trail-based binding engine ~470k; slice-backed
// overlay deltas + sharded scheduler ~474k; cross-solve prepared-query
// and solution caching ~438k; overlap-index candidates from the narrowest
// slot, overlap tests without a per-transaction atom slice ~411k. The
// ceiling carries ~10% headroom for machine variance — lower it when a PR
// durably improves the number, never raise it to paper over a regression.
const fig7AllocCeiling = 452_000

// TestFig7AllocRatchet fails when the headline benchmark's allocs/op
// regresses past the ratchet. Opt-in via RATCHET=1 (CI runs it; the full
// benchmark is too slow for every local `go test ./...`).
func TestFig7AllocRatchet(t *testing.T) {
	if os.Getenv("RATCHET") == "" {
		t.Skip("set RATCHET=1 to run the allocation ratchet")
	}
	res := testing.Benchmark(BenchmarkFig7)
	t.Logf("BenchmarkFig7: %d allocs/op, %d B/op over %d runs",
		res.AllocsPerOp(), res.AllocedBytesPerOp(), res.N)
	if a := res.AllocsPerOp(); a > fig7AllocCeiling {
		t.Fatalf("BenchmarkFig7 allocs/op = %d, ratchet ceiling %d", a, fig7AllocCeiling)
	}
}
