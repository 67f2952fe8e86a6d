package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	quantumdb "repro"
	"repro/internal/core"
	"repro/internal/formula"
	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/server"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// recoverImage rebuilds a database from a crash image and checks it
// against what the clients had been told by the time of the cut.
func (s *stack) recoverImage(img *crashImage) (*recovery, error) {
	rec := &recovery{}
	opt := s.def.options(img.dir)
	t := time.Now()
	batches, err := wal.ReadAll(opt.WALPath)
	if err != nil {
		return rec, fmt.Errorf("reading the image's log: %w", err)
	}
	rec.readAll, rec.batches = time.Since(t), len(batches)

	var q *core.QDB
	ckpt := filepath.Join(img.dir, filepath.Base(s.checkpointPath()))
	if _, statErr := os.Stat(ckpt); statErr == nil {
		t = time.Now()
		q, err = core.RecoverCheckpoint(ckpt, opt)
	} else {
		// No checkpoint was cut yet: replay over the seeded store.
		seed := buildStore(s.def.spec)
		t = time.Now()
		q, err = core.Recover(seed, opt)
	}
	rec.wall = time.Since(t)
	if err != nil {
		return rec, err
	}
	db := quantumdb.FromEngine(q)
	defer db.Close()

	// Still-pending transactions must have been re-admitted: grounding
	// them all has to add exactly that many bookings.
	pending := db.Pending()
	_, before := readState(q.Store())
	if err := db.GroundAll(); err != nil {
		return rec, fmt.Errorf("GroundAll on the recovered database: %w", err)
	}
	avail, after := readState(q.Store())
	if got := len(after) - len(before); got != pending {
		rec.violations = append(rec.violations,
			fmt.Sprintf("recovered %d pending transactions but grounding them added %d bookings", pending, got))
	}
	expect, _ := s.expect(img.cutNs)
	rec.violations = append(rec.violations, expect.check(avail, after)...)
	return rec, nil
}

// probeInput is what the measured run hands the probes.
type probeInput struct {
	spans map[string]*spanStat
	rows  float64 // rows returned by whole-flight scans
	d     delta
	ops   float64
	// bookings is the run's final Bookings relation; the point-lookup
	// probe reads one of them.
	bookings []bookingRow
}

// timeEach runs f n times and returns the median duration of one call.
func timeEach(n int, f func()) time.Duration {
	d := make([]int64, n)
	for i := range d {
		t := time.Now()
		f()
		d[i] = int64(time.Since(t))
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return time.Duration(quantile(d, 0.5))
}

// timeMean returns the mean duration of one of n back-to-back calls, for
// operations too short to time one by one.
func timeMean(n int, f func()) time.Duration {
	t := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(t) / time.Duration(n)
}

// probe measures each layer's unit cost in isolation, on the workload's
// own database and texts, after the measured run. Unit cost times how
// often the run crossed that boundary estimates the layer's share of the
// request time; the spans give the total it is a share of.
func (s *stack) probe(res *result, in probeInput) {
	spec := s.def.spec
	store := s.db.Engine().Store()
	var outerNs int64
	for name, st := range in.spans {
		if len(name) > 3 && name[:3] == "op." {
			outerNs += st.totalNs
		}
	}
	outer := float64(outerNs)
	share := func(name string, unit time.Duration, times float64) {
		res.set(name, ratio(float64(unit)*times, outer), 0)
	}
	type S = quantumdb.Stats

	// server: a ping does no engine work, so its round trip is the
	// transport's floor; a snapshot read over the wire minus the same
	// read embedded is what the wire adds to it.
	if s.def.wire {
		c := &callCtx{}
		w := s.tps[0].(*wire)
		ping := timeEach(1000, func() { w.do(c, server.Request{Op: "ping"}) })
		res.set("server.ping_rtt_us", us(int64(ping)), 1000)
		q := s.def.probeQuery
		emb := newEmbedded(s.db, true)
		overWire := timeEach(300, func() { w.snapread(c, q) })
		inProc := timeEach(300, func() { emb.snapread(c, q) })
		res.set("server.wire_overhead_us", us(int64(overWire-inProc)), 300)
		share("share.server", ping, in.ops)
	}

	// txn: parse the workload's own transaction text.
	user, partner := "probe_a", "probe_b"
	text := plainBookingText(user, 1)
	if spec.adjacent {
		text = entangledBookingText(user, partner, 1)
	}
	parse := timeMean(2000, func() { txn.MustParse(text) })
	res.set("txn.parse_us", us(int64(parse)), 2000)
	submitted := in.d.stat(func(s S) int { return s.Submitted })
	share("share.txn", parse, submitted)

	// formula: solve a chain as long as the longest the run kept
	// pending in one partition, over one untouched flight (the run's own
	// flights may be too full to seat a whole chain, and an unsatisfiable
	// chain measures backtracking, not a solve).
	chainLen := in.d.to.st.MaxPartitionPending
	if chainLen < 1 {
		chainLen = 1
	}
	if chainLen > 16 {
		chainLen = 16
	}
	chain := make([]*txn.T, chainLen)
	for i := range chain {
		t := txn.MustParse(plainBookingText(fmt.Sprintf("probe%d", i), 1))
		t.ID = int64(1_000_000 + i)
		chain[i] = t.RenamedApart()
	}
	oneFlight := buildStore(worldSpec{flights: 1, rows: spec.rows})
	solve := timeEach(200, func() { formula.SolveChain(oneFlight, chain, formula.ChainOptions{}) })
	snap := store.Snapshot()
	res.set("formula.solve_chain_us", us(int64(solve)), 200)
	share("share.formula", solve, in.d.stat(func(s S) int { return s.CacheMisses }))

	// relstore: a compiled whole-flight scan and a point lookup on a
	// pinned snapshot, the cost of pinning one, and one Apply with and
	// without a snapshot pinned (the difference is the copy-on-write
	// clone a reader makes a writer pay).
	scan := relstore.Query{Atoms: mustQuery(flightScanText(1))}.Compile()
	rows := 0
	scanOnce := timeEach(300, func() {
		rows = 0
		scan.Eval(snap, nil, func(logic.Subst) bool { rows++; return true })
	})
	perRow := time.Duration(ratio(float64(scanOnce), float64(rows)))
	res.set("relstore.scan_ns_per_row", float64(perRow), 300*rows)
	point := time.Duration(0)
	if len(in.bookings) > 0 {
		b := in.bookings[len(in.bookings)/2]
		lookup := relstore.Query{Atoms: mustQuery(bookingQueryText(b.user, b.flight))}.Compile()
		point = timeMean(2000, func() { lookup.FindOne(snap, nil) })
	}
	res.set("relstore.point_lookup_ns", float64(point), 2000)
	snap.Release()
	res.set("relstore.snapshot_pin_ns", float64(timeMean(5000, func() { store.Snapshot().Release() })), 5000)

	scratch := store.Clone()
	fact := []relstore.GroundFact{{Rel: "Available", Tuple: value.Tuple{value.NewInt(1), value.NewString("probe")}}}
	flip := func() {
		scratch.Apply(fact, nil)
		scratch.Apply(nil, fact)
	}
	apply := timeEach(300, flip) / 2
	pinned := timeEach(300, func() {
		sn := scratch.Snapshot()
		flip()
		sn.Release()
	}) / 2
	res.set("relstore.apply_us", us(int64(apply)), 300)
	res.set("relstore.cow_clone_us", us(int64(pinned-apply)), 300)
	applies := in.d.stat(func(s S) int { return s.Grounded }) + in.d.stat(func(s S) int { return s.WritesAccepted })
	res.set("share.relstore", ratio(float64(perRow)*in.rows+float64(apply)*applies, outer), 0)

	// wal: one synced append of the run's mean batch size.
	if s.def.wal {
		appends := float64(in.d.to.appends - in.d.from.appends)
		size := int(ratio(float64(in.d.to.walWritten-in.d.from.walWritten), appends))
		if l, err := wal.OpenSegmented(filepath.Join(s.dir, "probe-log"), 1); err == nil {
			l.SyncOnAppend = true
			recs := []wal.Record{{Type: 1, Payload: make([]byte, size)}}
			sync := timeEach(200, func() { l.AppendBatch(0, recs) })
			l.Close()
			res.set("wal.append_sync_us", us(int64(sync)), 200)
			share("share.wal", sync, float64(in.d.to.fsyncs-in.d.from.fsyncs))
		}
	}
}

func mustQuery(text string) []logic.Atom {
	atoms, err := txn.ParseQuery(text)
	if err != nil {
		panic(err)
	}
	return atoms
}
