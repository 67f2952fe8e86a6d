package bench

import (
	"fmt"

	"repro/internal/relstore"
	"repro/internal/value"
)

// ApplyPinned measures what a live snapshot makes a writer pay: one seat
// added to and removed from a flight table of the given size while a
// snapshot pins it, so every Flip starts with the first write to a
// pinned version. With page-granular copy-on-write the cost is that of
// the pages the write touches and does not grow with Rows.
type ApplyPinned struct {
	db   *relstore.DB
	seat []relstore.GroundFact
}

// seatsPerFlight matches the repository benchmark's rowscan world.
const seatsPerFlight = 150

// NewApplyPinned builds Available(fno, sno) with rows seats.
func NewApplyPinned(rows int) *ApplyPinned {
	db := relstore.NewDB()
	db.MustCreateTable(relstore.Schema{Name: "Available", Columns: []string{"fno", "sno"}})
	for i := 0; i < rows; i++ {
		db.MustInsert("Available", value.Tuple{
			value.NewInt(int64(i / seatsPerFlight)),
			value.NewString(fmt.Sprintf("%d%c", i%seatsPerFlight/6+1, 'A'+i%6)),
		})
	}
	return &ApplyPinned{db: db, seat: []relstore.GroundFact{{
		Rel: "Available", Tuple: value.Tuple{value.NewInt(0), value.NewString("extra")},
	}}}
}

// Flip pins a snapshot, applies the insert and the delete, and releases.
func (a *ApplyPinned) Flip() error {
	snap := a.db.Snapshot()
	defer snap.Release()
	if err := a.db.Apply(a.seat, nil); err != nil {
		return err
	}
	return a.db.Apply(nil, a.seat)
}

// CowStats reports the store's cumulative copy-on-write copies and bytes.
func (a *ApplyPinned) CowStats() (copies, bytes int64) { return a.db.CowStats() }

// ApplyPinnedShape names one table size of the sweep.
type ApplyPinnedShape struct {
	Name string
	Rows int
}

// ApplyPinnedShapes is the canonical sweep, shared by
// BenchmarkApplyPinned and the CI trajectory (BENCH_rowscan.json).
func ApplyPinnedShapes() []ApplyPinnedShape {
	return []ApplyPinnedShape{
		{"BenchmarkApplyPinned/rows=1k", 1_000},
		{"BenchmarkApplyPinned/rows=16k", 16_000},
		{"BenchmarkApplyPinned/rows=256k", 256_000},
	}
}
