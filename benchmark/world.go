package main

import (
	"fmt"

	quantumdb "repro"
	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/value"
)

// worldSpec sizes one travel database (the paper's §5.2 schema): flights
// of 3-seat rows, every seat available, within-row adjacency.
type worldSpec struct {
	flights, rows int
	// adjacent fills the Adjacent relation; only workloads with
	// entangled bookings ask for it.
	adjacent bool
	// preBooked seeds this many bookings per flight, seated in rows past
	// the bookable ones, as stable targets for point reads.
	preBooked int
}

func (w worldSpec) seatsPerFlight() int { return 3 * w.rows }

// buildStore seeds the extensional store directly: base rows are the
// database the engine starts from, not traffic, so they bypass admission
// and the log (recovery is given the same seeded store or a checkpoint).
func buildStore(w worldSpec) *relstore.DB {
	db := relstore.NewDB()
	db.MustCreateTable(relstore.Schema{Name: "Available", Columns: []string{"fno", "sno"}})
	db.MustCreateTable(relstore.Schema{Name: "Bookings", Columns: []string{"name", "fno", "sno"},
		Key: []int{1, 2}, Indexes: [][]int{{0, 1}}})
	db.MustCreateTable(relstore.Schema{Name: "Adjacent", Columns: []string{"fno", "s1", "s2"},
		Indexes: [][]int{{0, 1}, {0, 2}}})
	for f := 1; f <= w.flights; f++ {
		fv := value.NewInt(int64(f))
		for r := 1; r <= w.rows; r++ {
			for c := 0; c < 3; c++ {
				db.MustInsert("Available", value.Tuple{fv, value.NewString(seatName(r, c))})
			}
			if !w.adjacent {
				continue
			}
			for c := 0; c < 2; c++ {
				a, b := value.NewString(seatName(r, c)), value.NewString(seatName(r, c+1))
				db.MustInsert("Adjacent", value.Tuple{fv, a, b})
				db.MustInsert("Adjacent", value.Tuple{fv, b, a})
			}
		}
		for i := 0; i < w.preBooked; i++ {
			db.MustInsert("Bookings", value.Tuple{value.NewString(preBookedUser(f, i)), fv,
				value.NewString(preBookedSeat(w.rows, i))})
		}
	}
	return db
}

// openEngine starts an engine over a seeded store and wraps it in the
// public facade.
func openEngine(store *relstore.DB, opt quantumdb.Options) (*quantumdb.DB, error) {
	q, err := core.New(store, opt)
	if err != nil {
		return nil, fmt.Errorf("open engine: %w", err)
	}
	return quantumdb.FromEngine(q), nil
}

// seatRow and bookingRow are the final state as the checker reads it.
type seatRow struct {
	flight int
	seat   string
}

type bookingRow struct {
	user   string
	flight int
	seat   string
}

// readState lists every Available and Bookings row of a quiesced store.
func readState(store *relstore.DB) (avail []seatRow, bookings []bookingRow) {
	snap := store.Snapshot()
	defer snap.Release()
	snap.Scan("Available", func(t value.Tuple) bool {
		avail = append(avail, seatRow{flight: int(t[0].Int()), seat: t[1].Str()})
		return true
	})
	snap.Scan("Bookings", func(t value.Tuple) bool {
		bookings = append(bookings, bookingRow{user: t[0].Str(), flight: int(t[1].Int()), seat: t[2].Str()})
		return true
	})
	return avail, bookings
}

// adjacentSeats reports whether two seat labels share a row and sit in
// neighbouring columns.
func adjacentSeats(a, b string) bool {
	if len(a) < 2 || len(b) < 2 || a[:len(a)-1] != b[:len(b)-1] {
		return false
	}
	d := int(a[len(a)-1]) - int(b[len(b)-1])
	return d == 1 || d == -1
}
