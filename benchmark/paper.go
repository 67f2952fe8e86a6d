package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	quantumdb "repro"
	"repro/internal/relstore"
)

// The paper's §5.3 mixed workload: paperFlights flights of paperRows
// rows, one entangled booking per seat in Random arrival order, plus
// paperReadPct% collapsing reads.
const (
	paperFlights = 40
	paperRows    = 10
	paperReadPct = 30
	// exactRounds is how many leading rounds feed the counters that must
	// repeat exactly (coordination ratio, cache and scheduling counts):
	// later rounds vary in number with the machine's speed, these do not.
	exactRounds = 4
)

// runPaper runs one instance of paper_mixed: one embedded caller, no log,
// engine-default options, a fresh world per round (each round generated
// from its own seed) until the measured time is used up. With one caller and no timers the
// engine's counters repeat exactly from run to run.
func runPaper(def *workloadDef, cfg runCfg, tr *tracer, log io.Writer) (*result, error) {
	res := newResult(def, cfg)
	fail := func(format string, args ...any) {
		res.Correct = false
		res.note(format, args...)
	}

	// Set-up: build the base world every round is cloned from, and run
	// one untimed round so the runtime is warm.
	// The machine's speed around set-up, then after every eighth round.
	setupSpeeds := []float64{machineSpeed()}
	t := time.Now()
	world := buildStore(def.spec)
	round := func(r int64, rec *recorder, buf *spanBuf) (*roundOut, error) {
		return paperOneRound(def, world.Clone(), mix(cfg.seed, uint64(r)), cfg.traced, rec, buf)
	}
	var warm recorder
	if _, err := round(-1, &warm, nil); err != nil {
		return nil, fmt.Errorf("%s: warm-up round: %w", def.name, err)
	}
	if warm.failed > 0 {
		fail("warm-up: %d operations failed: %v", warm.failed, warm.errs)
	}
	setup := time.Since(t).Seconds()
	setupSpeeds = append(setupSpeeds, machineSpeed())
	res.set("setup_s", def.timeAtRef(setup, mean(setupSpeeds)), 1)
	speeds := setupSpeeds[1:]

	// Measured rounds. A traced run records spans on odd rounds only, so
	// even and odd rounds give the cost of tracing.
	var rec recorder
	var busy [2]time.Duration // stream time of untraced and traced rounds
	var okOps [2]int64
	var exact delta
	var pairs, adjacent, rounds int
	var groundAll []int64
	buf := tr.buf()
	base := processCounters()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for start := time.Now(); time.Since(start) < budget; rounds++ {
		on := cfg.traced && rounds%2 == 1
		if tr != nil {
			tr.on.Store(on)
		}
		before := rec.ok()
		out, err := round(int64(rounds), &rec, buf)
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", def.name, rounds, err)
		}
		which := 0
		if on {
			which = 1
		}
		busy[which] += out.busy
		okOps[which] += rec.ok() - before
		groundAll = append(groundAll, int64(out.groundAll))
		for _, v := range out.violations {
			fail("round %d: %s", rounds, v)
		}
		if rounds < exactRounds {
			exact.to.st = addStats(exact.to.st, out.stats)
			pairs += out.pairs
			adjacent += out.adjacent
		}
		if rounds%8 == 7 {
			speeds = append(speeds, machineSpeed())
		}
	}
	speeds = append(speeds, machineSpeed())
	if tr != nil {
		tr.on.Store(false)
	}
	end := processCounters()

	res.Attempted, res.Failed = rec.attempted, rec.failed
	for _, e := range rec.errs {
		res.note("failed op: %s", e)
	}
	if rec.errored > 0 {
		fail("%d operations returned an error or a wrong answer", rec.errored)
	}
	failedShare := ratio(float64(rec.failed), float64(rec.attempted))
	opsPerS := perSecond(okOps[0]+okOps[1], busy[0]+busy[1])
	sub, rd := rec.of(submitKinds...), rec.of(readKinds...)
	coordRatio := coordinationRatio(adjacent, pairs)
	allOps := rec.of(allKinds...)
	if !cfg.traced {
		res.set("ops_per_s", def.rateAtRef(opsPerS, mean(speeds)), int(okOps[0]))
		res.set("op_p50_us", def.timeAtRef(us(quantile(allOps, 0.5)), mean(speeds)), len(allOps))
		res.set("raw_setup_s", setup, 1)
		res.set("raw_ops_per_s", opsPerS, int(okOps[0]))
		res.set("raw_op_p50_us", us(quantile(allOps, 0.5)), len(allOps))
		res.set("machine_speed", mean(speeds)/refNominal, len(speeds))
		res.set("ok_share", 1-failedShare, int(rec.attempted))
		res.set("failed_share", failedShare, int(rec.attempted))
		res.set("coordination_ratio", coordRatio, pairs)
		res.setLatencies("", allOps, sub, rd, nil)
		return res, nil
	}

	spans := spanStats(tr.all())
	sort.Slice(groundAll, func(i, j int) bool { return groundAll[i] < groundAll[j] })
	res.setLatencies("latency.", allOps, sub, rd, nil)
	res.set("latency.over_limit", float64(rec.overLimit), 0)
	res.set("generator.achieved_rate_ratio", 1, 0) // closed loop: nothing to fall behind
	res.set("machine.speed_ratio", mean(speeds)/refNominal, len(speeds))
	res.set("trace.overhead_ratio", ratio(perSecond(okOps[1], busy[1]), perSecond(okOps[0], busy[0])), 0)
	res.set("core.submit_us", spans["core.submit"].p50us(), spanCount(spans["core.submit"]))
	res.set("core.read_us", spans["core.read"].p50us(), spanCount(spans["core.read"]))
	res.set("core.groundall_ms", float64(quantile(groundAll, 0.5))/1e6, len(groundAll))
	setEngineCounters(res, exact)
	res.set("core.coordination_ratio", coordRatio, pairs)
	setProcess(res, delta{base, end}, float64(rec.attempted))

	// Probes run on a fresh world.
	probeStack, err := start(def, true, nil)
	if err != nil {
		return nil, err
	}
	defer probeStack.stop()
	exact.to.st.MaxPartitionPending = maxInt(exact.to.st.MaxPartitionPending, 1)
	probeStack.probe(res, probeInput{spans: spans, d: exact, ops: float64(rec.attempted)})
	fillZeros(res)
	if log != nil {
		printSpans(log, spans)
	}
	return res, nil
}

// roundOut is what one round of paper_mixed produced.
type roundOut struct {
	busy       time.Duration // stream + final GroundAll, world build excluded
	groundAll  time.Duration
	stats      quantumdb.Stats
	pairs      int
	adjacent   int
	violations []string
}

// paperOneRound runs one generated round on a fresh engine over store and
// checks the final state.
func paperOneRound(def *workloadDef, store *relstore.DB, seed int64, traced bool, rec *recorder, buf *spanBuf) (*roundOut, error) {
	ops := paperRound(seed, def.spec.flights, def.spec.rows, paperReadPct)
	db, err := openEngine(store, def.options(""))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	s := &stack{def: def, traced: traced, t0: time.Now(), db: db,
		tps: []transport{newEmbedded(db, traced)}, models: []*clientModel{newClientModel()}}
	c := newClient(0, &sliceGen{ops: ops}, len(ops))
	out := &roundOut{}
	t := time.Now()
	for {
		o, idx, ok := c.claim()
		if !ok {
			break
		}
		c.run(s, rec, buf, &o, idx, time.Time{})
	}
	g := time.Now()
	id := buf.start("core.groundall", 0, 0)
	err = db.GroundAll()
	buf.end(id)
	out.groundAll = time.Since(g)
	out.busy = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("GroundAll: %w", err)
	}

	expect, pairs := s.expect(0)
	avail, bookings := readState(store)
	out.violations = expect.check(avail, bookings)
	out.stats = db.Stats()
	if out.stats.Accepted != out.stats.Grounded || db.Pending() != 0 {
		out.violations = append(out.violations, fmt.Sprintf("after GroundAll: %d accepted, %d grounded, %d pending",
			out.stats.Accepted, out.stats.Grounded, db.Pending()))
	}
	if len(bookings) != len(expect.users) {
		out.violations = append(out.violations, fmt.Sprintf("%d bookings in the store, %d acknowledged", len(bookings), len(expect.users)))
	}
	out.pairs, out.adjacent = len(pairs), coordination(bookings, pairs)
	return out, nil
}

// addStats sums the counters the per-layer metrics read (high-water
// marks take the maximum).
func addStats(a, b quantumdb.Stats) quantumdb.Stats {
	a.Submitted += b.Submitted
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.PrepCacheHits += b.PrepCacheHits
	a.PrepCacheMisses += b.PrepCacheMisses
	a.SolutionReplays += b.SolutionReplays
	a.SolutionStale += b.SolutionStale
	a.NegativeCacheHits += b.NegativeCacheHits
	a.AdmissionConflicts += b.AdmissionConflicts
	a.SerialFallbacks += b.SerialFallbacks
	a.LockWaits += b.LockWaits
	a.ForcedByK += b.ForcedByK
	a.ForcedByRead += b.ForcedByRead
	a.SemanticFallbacks += b.SemanticFallbacks
	a.ParallelSolves += b.ParallelSolves
	a.Grounded += b.Grounded
	a.WritesAccepted += b.WritesAccepted
	a.MaxPartitionPending = maxInt(a.MaxPartitionPending, b.MaxPartitionPending)
	return a
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
