package quantumdb_test

import (
	"os"
	"testing"

	"repro/internal/bench/serverload"
)

// The row plane's allocation ratchet, companion to TestFig7AllocRatchet
// (ratchet_test.go; this one sits in the external test package because it
// needs the server, which imports the package under test).
//
// snapreadAllocCeiling and snapreadBytesCeiling bound one 150-row
// snapshot scan round trip over the binary protocol, both sides of the
// socket. History: per-row Subst, Row and client maps with per-cell
// strings ~1400 allocs and ~330 KB; the columnar row plane ~340 allocs
// and ~62 KB, of which 300 allocs are the client's one map per row. The
// ceilings carry ~15% headroom — lower them when a PR durably improves
// the numbers, never raise them to paper over a regression.
const (
	snapreadAllocCeiling = 400
	snapreadBytesCeiling = 72_000
)

// TestSnapreadAllocRatchet fails when the row-heavy read's round trip
// regresses past the ratchet. Opt-in via RATCHET=1, like its companion.
func TestSnapreadAllocRatchet(t *testing.T) {
	if os.Getenv("RATCHET") == "" {
		t.Skip("set RATCHET=1 to run the allocation ratchet")
	}
	s, err := serverload.NewSnapreadWire(serverload.SnapreadRows)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Read(); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("%d-row snapread round trip: %d allocs/op, %d B/op over %d runs",
		serverload.SnapreadRows, res.AllocsPerOp(), res.AllocedBytesPerOp(), res.N)
	if a := res.AllocsPerOp(); a > snapreadAllocCeiling {
		t.Fatalf("snapread round trip allocs/op = %d, ratchet ceiling %d", a, snapreadAllocCeiling)
	}
	if b := res.AllocedBytesPerOp(); b > snapreadBytesCeiling {
		t.Fatalf("snapread round trip B/op = %d, ratchet ceiling %d", b, snapreadBytesCeiling)
	}
}
