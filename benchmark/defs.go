package main

// The four workloads. Names are fixed: later changes cite them. World
// sizes and windows are scaled to the benchmark's time budget (92 runs
// inside 57 minutes); the README records how they relate to the sizes
// the issue proposed.

const (
	// lagEvery is how often client 0 of booking_wire samples replica lag.
	lagEvery = 100
	// pairWindow is how many requests may separate the two members of an
	// entangled pair, and the age a booking must have before its issuer
	// reads it back.
	pairWindow = 64
)

// Fixed-rate phase rates, total requests per second, fixed from capacities
// measured on the build machine (see the README), two significant digits:
// about half the median capacity for durable_commit, whose latency is
// mostly the disk's; between a quarter and a third for the two wire
// workloads, whose latency is processor time and queueing: at half capacity
// a machine the host had slowed by a third was at three quarters, and the
// median latency tripled.
const (
	durableRate = 1400
	rowscanRate = 1200
	bookingRate = 300
)

// instances is how many independent instances of a workload one run sets
// up, measures for a third of the run's time each, and takes the median
// over. It is a constant: the bounds in BENCHMARK.json were measured with
// it, and a run with another count would not compare with them.
const instances = 3

var paperMixed = &workloadDef{
	name: "paper_mixed",
	why: "embedded, one caller, no log: core, formula and relstore do all the work, server and wal none; " +
		"the paper's own evaluation stream, and counters repeat exactly",
	spec:    worldSpec{flights: paperFlights, rows: paperRows, adjacent: true},
	clients: 1, callers: 1, workers: 1,
	atRefSpeed: true,
}

var durableCommit = &workloadDef{
	name: "durable_commit",
	why: "embedded, two callers, an fsync per acknowledged commit: wal does most of the work, formula little; " +
		"the only workload with checkpoints, a crash image and recovery",
	spec: worldSpec{flights: 300, rows: 50},
	k:    8, wal: true, crashImage: true, gate: true,
	ckptEvery: 500, ckptBetweenPhases: true,
	clients: 2, callers: 1, workers: 1,
	rate:    durableRate,
	warmOps: 300,
	// Not atRefSpeed: a reading of the machine's speed taken right after
	// a phase of an fsync per commit is a third too low and unsteady (the
	// kernel is still writing back), and converted the throughput spread
	// up to twice as wide from run to run as measured (README).
	gen: func(seed int64, client int, d *workloadDef) generator {
		return newDurableGen(seed, client, d.spec.flights, d.spec.rows)
	},
}

var rowscanWire = &workloadDef{
	name: "rowscan_wire",
	why: "over the wire, no log: 150-row snapshot scans make server encode/decode and relstore scans the work, " +
		"formula and wal none; a write trickle keeps copy-on-write clones visible",
	spec: worldSpec{flights: 100, rows: 50, preBooked: 12},
	wire: true, clients: 2, callers: 8, workers: 8,
	rate:       rowscanRate,
	warmOps:    300,
	atRefSpeed: true,
	probeQuery: flightScanText(1),
	gen: func(seed int64, client int, d *workloadDef) generator {
		return newRowscanGen(seed, client, d.clients, d.spec.flights, d.spec.rows, d.spec.preBooked)
	},
}

var bookingWire = &workloadDef{
	name: "booking_wire",
	why: "the full stack: wire, entangled and batched admission, collapsing reads, an fsync per commit and a " +
		"log-shipped follower; every layer takes part and none dominates",
	spec: worldSpec{flights: 1000, rows: 10, adjacent: true, preBooked: 2},
	k:    8, wal: true, gate: true,
	// Every pull of the follower rescans the leader's log from its
	// start, so an ever-growing log slows the leader down as the run goes
	// on. One checkpoint between the phases truncates it, so that the
	// fixed-rate phase starts from a short log on every run.
	ckptBetweenPhases: true,
	wire:              true, follower: true, clients: 2, callers: 1, workers: 8,
	rate:    bookingRate,
	warmOps: 300,
	// Not atRefSpeed, as durable_commit, and here the follower and the
	// server's long-poll also run while the machine's speed is read.
	// Converted, the median latency spread three times as wide as measured.
	probeQuery: bookingQueryText(preBookedUser(1, 0), 1),
	gen: func(seed int64, client int, d *workloadDef) generator {
		return newBookingGen(seed, client, d.clients, d.spec.flights, d.spec.rows, d.spec.preBooked, pairWindow)
	},
}

var workloads = []*workloadDef{paperMixed, durableCommit, rowscanWire, bookingWire}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
