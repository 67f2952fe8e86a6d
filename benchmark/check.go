package main

import (
	"bytes"
	"fmt"
	"sort"
)

// expectation is what the generator's model says the final database must
// hold. It is filled from acknowledged operations only, so a system that
// loses an acknowledged write, seats two users on one seat, or lets a
// replica drift cannot pass.
type expectation struct {
	spec worldSpec
	// users maps every user whose booking was acknowledged to the flight
	// it asked for.
	users map[string]int
	// observed is the seat a collapsing read returned per user; reads
	// are repeatable, so the final state must agree.
	observed map[string]string
	// netSeats is, per flight, acknowledged capacity adds minus removes.
	netSeats map[int]int
	// maybeUsers and maybeSeats cover operations that were in flight
	// when a crash image was cut: they may or may not be in it. Empty
	// for a quiesced final state, which must match exactly.
	maybeUsers map[string]int
	maybeSeats map[int]int
}

func newExpectation(spec worldSpec) *expectation {
	return &expectation{spec: spec, users: map[string]int{}, observed: map[string]string{},
		netSeats: map[int]int{}, maybeUsers: map[string]int{}, maybeSeats: map[int]int{}}
}

type seatKey struct {
	flight int
	seat   string
}

// check compares a final state with the expectation and returns one line
// per violation (nil: the state is correct).
func (e *expectation) check(avail []seatRow, bookings []bookingRow) []string {
	var bad []string
	report := func(format string, args ...any) {
		if len(bad) < 20 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	taken := make(map[seatKey]string, len(bookings))
	seatOf := make(map[string]bookingRow, len(bookings))
	perFlight := make(map[int]int)
	for _, b := range bookings {
		k := seatKey{b.flight, b.seat}
		if other, dup := taken[k]; dup {
			report("double-booked seat: flight %d seat %s held by %s and %s", b.flight, b.seat, other, b.user)
		}
		taken[k] = b.user
		if prev, dup := seatOf[b.user]; dup {
			report("user %s booked twice: %s and %s", b.user, prev.seat, b.seat)
		}
		seatOf[b.user] = b
		perFlight[b.flight]++
	}
	for _, a := range avail {
		if user, both := taken[seatKey{a.flight, a.seat}]; both {
			report("seat both available and booked: flight %d seat %s (%s)", a.flight, a.seat, user)
		}
		perFlight[a.flight]++
	}
	for user, f := range e.users {
		b, ok := seatOf[user]
		switch {
		case !ok:
			report("lost acknowledged write: %s has no booking on flight %d", user, f)
		case b.flight != f:
			report("user %s booked on flight %d, asked for %d", user, b.flight, f)
		}
	}
	for user, seat := range e.observed {
		if b, ok := seatOf[user]; ok && b.seat != seat {
			report("read not repeatable: %s was shown seat %s, holds %s", user, seat, b.seat)
		}
	}
	seeded := make(map[string]bool, e.spec.flights*e.spec.preBooked)
	for f := 1; f <= e.spec.flights; f++ {
		for i := 0; i < e.spec.preBooked; i++ {
			u := preBookedUser(f, i)
			seeded[u] = true
			if b, ok := seatOf[u]; !ok || b.seat != preBookedSeat(e.spec.rows, i) || b.flight != f {
				report("seeded booking %s moved or missing", u)
			}
		}
	}
	for user, b := range seatOf {
		_, acked := e.users[user]
		_, maybe := e.maybeUsers[user]
		if !acked && !maybe && !seeded[user] {
			report("phantom booking: %s on flight %d was never acknowledged", user, b.flight)
		}
	}
	// Seats are conserved: a booking moves a seat from Available to
	// Bookings, so per flight the two together equal what was seeded
	// plus what blind writes added.
	base := e.spec.seatsPerFlight() + e.spec.preBooked
	for f := 1; f <= e.spec.flights; f++ {
		lo := base + e.netSeats[f]
		hi := lo + e.maybeSeats[f]
		if n := perFlight[f]; n < lo || n > hi {
			report("flight %d holds %d seats (available + booked), want %d..%d", f, n, lo, hi)
		}
	}
	sort.Strings(bad)
	return bad
}

// coordination counts the pairs whose two members hold adjacent seats.
func coordination(bookings []bookingRow, pairs [][2]string) (adjacent int) {
	seatOf := make(map[string]bookingRow, len(bookings))
	for _, b := range bookings {
		seatOf[b.user] = b
	}
	for _, p := range pairs {
		a, okA := seatOf[p[0]]
		b, okB := seatOf[p[1]]
		if okA && okB && a.flight == b.flight && adjacentSeats(a.seat, b.seat) {
			adjacent++
		}
	}
	return adjacent
}

// coordinationRatio is the share of admitted entangled pairs whose members
// ended up on adjacent seats, the paper's Table 2 quantity. A workload that
// admits no pairs left none uncoordinated: its ratio is 1, so that the
// metric exists, and is never 0, on every workload.
func coordinationRatio(adjacent, pairs int) float64 {
	if pairs == 0 {
		return 1
	}
	return float64(adjacent) / float64(pairs)
}

// compareReplica reports a divergence between the leader's and the
// follower's encoded stores ("" when byte-identical).
func compareReplica(leader, follower []byte) string {
	if bytes.Equal(leader, follower) {
		return ""
	}
	n := 0
	for n < len(leader) && n < len(follower) && leader[n] == follower[n] {
		n++
	}
	return fmt.Sprintf("follower diverged from leader: %d vs %d bytes, first difference at byte %d",
		len(follower), len(leader), n)
}
