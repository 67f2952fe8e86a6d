package main

import (
	"fmt"
	"math/rand"
)

// This file makes every input the benchmark feeds the system. Inputs are
// a pure function of -seed: the program under test receives only the
// generated texts, never the seed or the workload name.

// opKind is what one generated operation asks of the system.
type opKind uint8

const (
	opSubmit    opKind = iota // plain booking, one resource transaction
	opETxn                    // entangled booking (Coordinator / etxn)
	opBatch                   // eight plain bookings in one admission
	opExec                    // blind write: signed ground facts
	opGround                  // force one pending transaction to collapse
	opRead                    // collapsing read of one user's booking
	opSnapScan                // snapshot read of a whole flight
	opSnapPoint               // snapshot read of one pre-seeded booking
)

var opKindNames = [...]string{"submit", "etxn", "batch", "exec", "ground",
	"read", "snapscan", "snappoint"}

func (k opKind) String() string { return opKindNames[k] }

// op is one generated request. Texts are what the system sees; the other
// fields are the generator's model of what a correct answer looks like.
type op struct {
	kind  opKind
	text  string   // transaction, query, or fact text
	texts []string // batch members
	tag   string   // etxn: this user; submit/batch/read/ground: the user
	users []string // batch: one user per member
	// partner is the coordination partner of an etxn.
	partner string
	flight  int
	flights []int // batch: one flight per member
	// seat is the answer a read of a pre-seeded booking must return, or
	// the seat a capacity add inserts ('' otherwise).
	seat string
	// insert tells an exec apart: true adds seat, false removes it.
	insert bool
	// dep is the index, in the same client's stream, of the operation
	// that must have been answered before this one is sent (-1: none).
	dep int
}

// generator yields one client's operations in issue order.
type generator interface {
	// next returns the next operation; ok is false once the world has no
	// capacity left for further bookings, which ends the phase early.
	next() (o op, ok bool)
}

// mix derives the seed of an independent stream from a seed and a stream
// number (splitmix64's finalizer).
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// newRNG derives an independent deterministic stream from the run seed.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(mix(seed, stream)))
}

// seatName labels row r (1-based), column c (0..2): "12B".
func seatName(r, c int) string { return fmt.Sprintf("%d%c", r, 'A'+c) }

func plainBookingText(user string, f int) string {
	return fmt.Sprintf("-Available(%d, s), +Bookings('%s', %d, s) :-1 Available(%d, s)", f, user, f, f)
}

// entangledBookingText is the paper's Figure 1 transaction: any seat on
// flight f, preferably adjacent to partner's.
func entangledBookingText(user, partner string, f int) string {
	return fmt.Sprintf("-Available(%d, s), +Bookings('%s', %d, s) :-1 Available(%d, s), ?Bookings('%s', %d, m), ?Adjacent(%d, s, m)",
		f, user, f, f, partner, f, f)
}

func bookingQueryText(user string, f int) string {
	return fmt.Sprintf("Bookings('%s', %d, s)", user, f)
}

func flightScanText(f int) string { return fmt.Sprintf("Available(%d, s)", f) }

func seatFactText(insert bool, f int, seat string) string {
	sign := '-'
	if insert {
		sign = '+'
	}
	return fmt.Sprintf("%cAvailable(%d, '%s')", sign, f, seat)
}

// preBookedUser names the i-th booking seeded on flight f at set-up; its
// seat sits in a row past the bookable ones, so it never moves.
func preBookedUser(f, i int) string { return fmt.Sprintf("p%d_%d", f, i) }

func preBookedSeat(rows, i int) string { return seatName(rows+1+i/3, i%3) }

// flightPicker draws flights 1..n from zipf(1.1) and steps past flights
// whose budget is spent, so no booking is ever generated for a flight
// that could sell out.
type flightPicker struct {
	n    int
	zipf *rand.Zipf
}

func newFlightPicker(rng *rand.Rand, flights int) flightPicker {
	return flightPicker{n: flights, zipf: rand.NewZipf(rng, 1.1, 1, uint64(flights-1))}
}

func (p flightPicker) draw() int { return 1 + int(p.zipf.Uint64()) }

// pick returns a drawn flight for which ok holds; 0 when no flight
// qualifies. A draw that does not qualify is redrawn, which keeps demand
// zipf-shaped over the flights still open; stepping to the neighbour
// instead would pile every overflow onto one flight. Only when redrawing
// keeps failing does it probe upward, to find the last open flights.
func (p flightPicker) pick(ok func(f int) bool) int {
	f := p.draw()
	for tries := 0; tries < 64 && !ok(f); tries++ {
		f = p.draw()
	}
	for i := 0; i < p.n; i++ {
		if ok(f) {
			return f
		}
		f = f%p.n + 1
	}
	return 0
}

// ---- paper_mixed ----------------------------------------------------

// paperRound builds one round of the paper's §5.3 mixed stream: one
// entangled booking per seat (seats/2 pairs per flight) in Random
// arrival order, plus readPct% collapsing reads, each of a user whose
// booking appears earlier in the stream.
func paperRound(seed int64, flights, rows, readPct int) []op {
	rng := newRNG(seed, 1)
	pairsPerFlight := 3 * rows / 2
	ops := make([]op, 0, flights*pairsPerFlight*2*(100+readPct)/100)
	for f := 1; f <= flights; f++ {
		for i := 0; i < pairsPerFlight; i++ {
			a, b := fmt.Sprintf("f%dp%da", f, i), fmt.Sprintf("f%dp%db", f, i)
			ops = append(ops,
				op{kind: opETxn, text: entangledBookingText(a, b, f), tag: a, partner: b, flight: f, dep: -1},
				op{kind: opETxn, text: entangledBookingText(b, a, f), tag: b, partner: a, flight: f, dep: -1})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	reads := len(ops) * readPct / 100
	for i := 0; i < reads; i++ {
		pos := 1 + rng.Intn(len(ops))
		var target *op
		for tries := 0; tries < 32 && target == nil; tries++ {
			if c := &ops[rng.Intn(pos)]; c.kind == opETxn {
				target = c
			}
		}
		if target == nil {
			continue
		}
		read := op{kind: opRead, text: bookingQueryText(target.tag, target.flight), tag: target.tag, flight: target.flight, dep: -1}
		ops = append(ops, op{})
		copy(ops[pos+1:], ops[pos:])
		ops[pos] = read
	}
	return ops
}

// sliceGen replays a prebuilt stream.
type sliceGen struct {
	ops []op
	i   int
}

func (g *sliceGen) next() (op, bool) {
	if g.i >= len(g.ops) {
		return op{}, false
	}
	g.i++
	return g.ops[g.i-1], true
}

// ---- durable_commit -------------------------------------------------

// issued remembers a booking this client generated, so later reads and
// grounds can target it.
type issued struct {
	user   string
	flight int
	at     int // index of the generating op in this client's stream
}

// durableGen is one embedded client of durable_commit: 60% plain
// bookings, 20% capacity adds, 10% grounds of the newest booking not yet
// observed, 10% collapsing reads of an own booking.
type durableGen struct {
	client    int
	rng       *rand.Rand
	pick      flightPicker
	booked    []int // bookings generated per flight by this client
	perFlight int   // budget: one booking per row per client
	mine      []issued
	fresh     []int  // stack of indexes into mine, newest on top
	seen      []bool // per mine index: already grounded or read
	adds      int
	i         int
}

func newDurableGen(seed int64, client, flights, rows int) *durableGen {
	rng := newRNG(seed, 100+uint64(client))
	return &durableGen{client: client, rng: rng, pick: newFlightPicker(rng, flights),
		booked: make([]int, flights+1), perFlight: rows}
}

func (g *durableGen) next() (op, bool) {
	idx := g.i
	g.i++
	switch r := g.rng.Intn(100); {
	case r < 60:
		return g.submit(idx)
	case r < 80:
		f := g.pick.draw()
		seat := fmt.Sprintf("x%d_%d", g.client, g.adds)
		g.adds++
		return op{kind: opExec, text: seatFactText(true, f, seat), flight: f, seat: seat, insert: true, dep: -1}, true
	case r < 90:
		for len(g.fresh) > 0 {
			k := g.fresh[len(g.fresh)-1]
			g.fresh = g.fresh[:len(g.fresh)-1]
			if !g.seen[k] {
				g.seen[k] = true
				b := g.mine[k]
				return op{kind: opGround, tag: b.user, flight: b.flight, dep: b.at}, true
			}
		}
		return g.submit(idx)
	default:
		if len(g.mine) == 0 {
			return g.submit(idx)
		}
		k := g.rng.Intn(len(g.mine))
		b := g.mine[k]
		g.seen[k] = true // a read collapses its target
		return op{kind: opRead, text: bookingQueryText(b.user, b.flight), tag: b.user, flight: b.flight, dep: b.at}, true
	}
}

func (g *durableGen) submit(idx int) (op, bool) {
	f := g.pick.pick(func(f int) bool { return g.booked[f] < g.perFlight })
	if f == 0 {
		return op{}, false
	}
	g.booked[f]++
	user := fmt.Sprintf("c%du%d", g.client, len(g.mine))
	g.fresh = append(g.fresh, len(g.mine))
	g.seen = append(g.seen, false)
	g.mine = append(g.mine, issued{user: user, flight: f, at: idx})
	return op{kind: opSubmit, text: plainBookingText(user, f), tag: user, flight: f, dep: -1}, true
}

// ---- rowscan_wire ---------------------------------------------------

// rowscanGen is one connection of rowscan_wire: 80% snapshot scans of a
// whole flight, 10% collapsing point reads of a pre-seeded booking, 10%
// blind writes that alternately add and remove one extra seat. A
// connection only writes flights of its own parity, so each flight has
// one writer and its cardinality stays within one of the seeded count.
type rowscanGen struct {
	conn, conns int
	rng         *rand.Rand
	pick        flightPicker
	rows        int
	preBooked   int
	extra       []bool // extra seat currently present, per flight
	lastWrite   []int  // op index of the last write per flight
	i           int
}

func newRowscanGen(seed int64, conn, conns, flights, rows, preBooked int) *rowscanGen {
	rng := newRNG(seed, 200+uint64(conn))
	g := &rowscanGen{conn: conn, conns: conns, rng: rng, pick: newFlightPicker(rng, flights),
		rows: rows, preBooked: preBooked, extra: make([]bool, flights+1), lastWrite: make([]int, flights+1)}
	for f := range g.lastWrite {
		g.lastWrite[f] = -1
	}
	return g
}

func (g *rowscanGen) next() (op, bool) {
	idx := g.i
	g.i++
	switch r := g.rng.Intn(100); {
	case r < 80:
		f := g.pick.draw()
		return op{kind: opSnapScan, text: flightScanText(f), flight: f, dep: -1}, true
	case r < 90:
		f := g.pick.draw()
		k := g.rng.Intn(g.preBooked)
		u := preBookedUser(f, k)
		return op{kind: opRead, text: bookingQueryText(u, f), tag: u, flight: f, seat: preBookedSeat(g.rows, k), dep: -1}, true
	default:
		f := g.pick.pick(func(f int) bool { return f%g.conns == g.conn })
		seat := fmt.Sprintf("x%d", g.conn)
		g.extra[f] = !g.extra[f]
		o := op{kind: opExec, text: seatFactText(g.extra[f], f, seat), flight: f, seat: seat, insert: g.extra[f], dep: g.lastWrite[f]}
		g.lastWrite[f] = idx
		return o, true
	}
}

// ---- booking_wire ---------------------------------------------------

// partnerDue is the second half of an entangled pair waiting its turn.
type partnerDue struct {
	user, partner string
	flight        int
	due           int // op index from which it may be emitted
}

// bookingGen is one connection of booking_wire: 40% entangled bookings
// whose partner follows within window requests, 20% batches of eight
// plain bookings, 25% collapsing reads of an own booking, 10% point
// snapshot reads, 5% capacity adds.
type bookingGen struct {
	conn      int
	rng       *rand.Rand
	pick      flightPicker
	rows      int
	preBooked int
	window    int
	pairs     []int // pairs generated per flight by this connection
	plain     []int // plain bookings generated per flight
	pairCap   int
	plainCap  int
	waiting   []partnerDue
	mine      []issued
	ripe      int // mine[:ripe] were generated at least window ops ago
	nPairs    int
	nUsers    int
	adds      int
	i         int
}

func newBookingGen(seed int64, conn, conns, flights, rows, preBooked, window int) *bookingGen {
	rng := newRNG(seed, 300+uint64(conn))
	// Budget per flight of 3*rows seats, split over connections: pairs
	// may take 4/15 of the seats (far fewer pairs than rows, so every
	// pair could sit adjacent) and plain bookings 2/3; the rest stays
	// free, so no flight sells out.
	seats := 3 * rows
	return &bookingGen{conn: conn, rng: rng, pick: newFlightPicker(rng, flights), rows: rows,
		preBooked: preBooked, window: window,
		pairs: make([]int, flights+1), plain: make([]int, flights+1),
		pairCap: seats * 2 / 15 / conns, plainCap: seats * 2 / 3 / conns}
}

func (g *bookingGen) next() (op, bool) {
	idx := g.i
	g.i++
	switch r := g.rng.Intn(100); {
	case r < 40:
		return g.etxn(idx)
	case r < 60:
		return g.batch(idx)
	case r < 85:
		// Only bookings old enough that their admission has been
		// answered even with a full pipeline window in flight.
		for g.ripe < len(g.mine) && g.mine[g.ripe].at <= idx-g.window {
			g.ripe++
		}
		if g.ripe == 0 {
			return g.etxn(idx)
		}
		b := g.mine[g.rng.Intn(g.ripe)]
		return op{kind: opRead, text: bookingQueryText(b.user, b.flight), tag: b.user, flight: b.flight, dep: b.at}, true
	case r < 95:
		f := g.pick.draw()
		k := g.rng.Intn(g.preBooked)
		u := preBookedUser(f, k)
		return op{kind: opSnapPoint, text: bookingQueryText(u, f), tag: u, flight: f, seat: preBookedSeat(g.rows, k), dep: -1}, true
	default:
		f := g.pick.draw()
		seat := fmt.Sprintf("x%d_%d", g.conn, g.adds)
		g.adds++
		return op{kind: opExec, text: seatFactText(true, f, seat), flight: f, seat: seat, insert: true, dep: -1}, true
	}
}

// etxn emits a waiting partner once it is due, otherwise opens a new
// pair and schedules its partner 1..window-1 requests ahead.
func (g *bookingGen) etxn(idx int) (op, bool) {
	for j, w := range g.waiting {
		if w.due <= idx {
			g.waiting = append(g.waiting[:j], g.waiting[j+1:]...)
			return g.member(idx, w.user, w.partner, w.flight), true
		}
	}
	f := g.pick.pick(func(f int) bool { return g.pairs[f] < g.pairCap })
	if f == 0 {
		return op{}, false
	}
	g.pairs[f]++
	a := fmt.Sprintf("c%dp%da", g.conn, g.nPairs)
	b := fmt.Sprintf("c%dp%db", g.conn, g.nPairs)
	g.nPairs++
	g.waiting = append(g.waiting, partnerDue{user: b, partner: a, flight: f, due: idx + 1 + g.rng.Intn(g.window-1)})
	return g.member(idx, a, b, f), true
}

func (g *bookingGen) member(idx int, user, partner string, f int) op {
	g.mine = append(g.mine, issued{user: user, flight: f, at: idx})
	return op{kind: opETxn, text: entangledBookingText(user, partner, f), tag: user, partner: partner, flight: f, dep: -1}
}

// flush returns the partners still waiting when load stops, so every
// admitted pair is complete before the final grounding.
func (g *bookingGen) flush() []op {
	var out []op
	for _, w := range g.waiting {
		out = append(out, g.member(g.i, w.user, w.partner, w.flight))
		g.i++
	}
	g.waiting = nil
	return out
}

func (g *bookingGen) batch(idx int) (op, bool) {
	o := op{kind: opBatch, dep: -1}
	for k := 0; k < 8; k++ {
		f := g.pick.pick(func(f int) bool { return g.plain[f] < g.plainCap })
		if f == 0 {
			return op{}, false
		}
		g.plain[f]++
		user := fmt.Sprintf("c%du%d", g.conn, g.nUsers)
		g.nUsers++
		g.mine = append(g.mine, issued{user: user, flight: f, at: idx})
		o.texts = append(o.texts, plainBookingText(user, f))
		o.users = append(o.users, user)
		o.flights = append(o.flights, f)
	}
	return o, true
}
