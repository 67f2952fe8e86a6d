package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	quantumdb "repro"
)

// runCfg is one run's knobs, all from the command line.
type runCfg struct {
	seed    int64
	seconds float64 // measured time: half capacity phases, half fixed-rate phases
	traced  bool
}

func newResult(def *workloadDef, cfg runCfg) *result {
	return &result{Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		NProc: runtime.NumCPU(), MaxProcs: runtime.GOMAXPROCS(0), Correct: true,
		Metrics: map[string]metricValue{}}
}

// counters is every cumulative count the benchmark reads at a phase
// boundary; metrics are differences between two of them.
type counters struct {
	st                   quantumdb.Stats
	appends, fsyncs      uint64
	groupCommits         uint64
	mallocs, allocBytes  uint64
	gcPauseNs            uint64
	cpu                  time.Duration
	netIn, netOut, sheds int64
	walWritten, walTrunc int64
	ckptBytes, textBytes int64
	checkpoints          int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (s *stack) counters() counters {
	c := counters{st: s.db.Stats(), cpu: cpuTime()}
	ls := s.db.Engine().LogStats()
	for i := range ls.Appends {
		c.appends += ls.Appends[i]
		c.fsyncs += ls.Syncs[i]
	}
	c.groupCommits = ls.GroupCommits
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcPauseNs = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	if s.ln != nil {
		c.netIn, c.netOut, c.sheds = s.ln.in.Load(), s.ln.out.Load(), s.srv.Sheds()
	}
	if s.def.wal {
		c.walWritten, c.walTrunc, c.ckptBytes = s.walTotals()
	}
	for _, m := range s.models {
		m.mu.Lock()
		c.textBytes += m.textBytes
		m.mu.Unlock()
	}
	s.ckptMu.Lock()
	c.checkpoints = s.checkpoints
	s.ckptMu.Unlock()
	return c
}

// flat names the counters for a trace snapshot.
func (c counters) flat() map[string]float64 {
	return map[string]float64{
		"core.submitted": float64(c.st.Submitted), "core.accepted": float64(c.st.Accepted),
		"core.grounded": float64(c.st.Grounded), "core.cache_hits": float64(c.st.CacheHits),
		"core.cache_misses": float64(c.st.CacheMisses), "core.reads": float64(c.st.Reads),
		"core.writes": float64(c.st.WritesAccepted), "core.snapshot_reads": float64(c.st.SnapshotReads),
		"wal.appends": float64(c.appends), "wal.fsyncs": float64(c.fsyncs),
		"wal.bytes_written": float64(c.walWritten), "wal.checkpoint_bytes": float64(c.ckptBytes),
		"server.bytes_in": float64(c.netIn), "server.bytes_out": float64(c.netOut),
		"process.mallocs": float64(c.mallocs), "process.cpu_s": c.cpu.Seconds(),
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func perSecond(n int64, d time.Duration) float64 { return ratio(float64(n), d.Seconds()) }

// instanceFunc sets up one instance of a workload, measures it for
// cfg.seconds, checks it and tears it down.
type instanceFunc func(def *workloadDef, cfg runCfg, tr *tracer, log io.Writer) (*result, error)

// runWorkload runs the workload's instances (see defs.go).
func runWorkload(def *workloadDef, cfg runCfg, log io.Writer) (*result, []*tracer, error) {
	return runInstances(def, cfg, instances, log)
}

// runInstances runs n independent instances of a workload, each set up
// from scratch, seeded from cfg.seed and its own number, and measured for
// an equal share of cfg.seconds, and reports the median of each metric
// across them (counts of attempted and failed operations are summed). A
// whole instance can run slow or fast with the state the process and the
// machine happen to be in; the median over instances is what repeats from
// run to run. It returns the tracers of a traced run for writing out.
func runInstances(def *workloadDef, cfg runCfg, n int, log io.Writer) (*result, []*tracer, error) {
	one := instanceFunc(runLoad)
	if def.gen == nil { // paper_mixed: prebuilt rounds, no open-ended stream
		one = runPaper
	}
	var parts []*result
	var tracers []*tracer
	for i := 0; i < n; i++ {
		icfg := cfg
		icfg.seconds = cfg.seconds / float64(n)
		icfg.seed = mix(cfg.seed, uint64(i))
		var tr *tracer
		if cfg.traced {
			tr = newTracer()
			tr.workload = def.name
			tracers = append(tracers, tr)
		}
		part, err := one(def, icfg, tr, log)
		if err != nil {
			return nil, nil, err
		}
		parts = append(parts, part)
		if log != nil && !cfg.traced {
			// How far the instances of one run lie apart tells a reader how
			// much of a difference between two runs is the machine's doing.
			fmt.Fprintf(log, "%s instance %d:", def.name, i)
			for _, d := range endToEnd {
				fmt.Fprintf(log, " %s=%.6g", d.name, part.Metrics[d.name].Value)
			}
			fmt.Fprintf(log, " machine_speed=%.3g", part.Metrics["machine_speed"].Value)
			fmt.Fprintln(log)
		}
	}
	res := newResult(def, cfg)
	byName := map[string][]metricValue{}
	for i, p := range parts {
		res.Correct = res.Correct && p.Correct
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		for _, n := range p.Notes {
			res.note("instance %d: %s", i, n)
		}
		for name, m := range p.Metrics {
			byName[name] = append(byName[name], m)
		}
	}
	for name, ms := range byName {
		vals := make([]float64, len(ms))
		n := 0
		for i, m := range ms {
			vals[i] = m.Value
			n += m.N
		}
		res.Metrics[name] = metricValue{Value: medianFloat(vals), Unit: ms[0].Unit, N: n}
	}
	return res, tracers, nil
}

// runLoad runs one instance of a loop-driven workload: set-up, capacity
// phase, fixed-rate phase, drain, checks.
func runLoad(def *workloadDef, cfg runCfg, tr *tracer, log io.Writer) (*result, error) {
	res := newResult(def, cfg)
	// speeds are the machine's speed before set-up, after it, after the
	// capacity phase and after the fixed-rate phase.
	speeds := []float64{machineSpeed()}
	t := time.Now()
	s, err := start(def, cfg.traced, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	defer s.stop()
	l := &load{ex: s, tr: tr}
	for c := 0; c < def.clients; c++ {
		l.clients = append(l.clients, newClient(c, def.gen(cfg.seed, c, def), maxOps))
	}
	l.closedOps(phWarm, def.warmOps)
	setup := time.Since(t).Seconds()
	speeds = append(speeds, machineSpeed())

	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	base := s.counters()
	tr.counters(def.name, "load-start", base.flat())

	// Capacity phase. A traced run records spans in its second half
	// only, so the two halves give the cost of tracing.
	var capWall time.Duration
	overhead := 0.0
	if def.ckptEvery > 0 {
		l.maintainEvery = def.ckptEvery
		l.maintain = func() error { return s.checkpoint(&callCtx{buf: tr.buf()}) }
	}
	if !cfg.traced {
		capWall = l.closedFor(phCapacity, half, def.callers)
	} else {
		wallOff := l.closedFor(phCapacity, half/2, def.callers)
		okOff := l.recs[phCapacity].ok()
		tr.on.Store(true)
		wallOn := l.closedFor(phCapacity, half/2, def.callers)
		okOn := l.recs[phCapacity].ok() - okOff
		capWall = wallOff + wallOn
		overhead = ratio(perSecond(okOn, wallOn), perSecond(okOff, wallOff))
	}
	l.maintain = nil
	speeds = append(speeds, machineSpeed())
	capRec := &l.recs[phCapacity]
	tr.counters(def.name, "capacity-end", s.counters().flat())
	if def.ckptBetweenPhases {
		if err := s.checkpoint(&callCtx{}); err != nil {
			return nil, fmt.Errorf("%s: checkpoint between phases: %w", def.name, err)
		}
	}

	// Fixed-rate phase. durable_commit cuts its crash image when the
	// window closes, with the clients still sending.
	var img *crashImage
	var imgErr error
	var keepGoing func() bool
	if def.crashImage {
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(half)
			img, imgErr = s.cutImage()
		}()
		keepGoing = func() bool {
			select {
			case <-done:
				return false
			default:
				return true
			}
		}
	}
	sent, fixedWall := l.openFor(phFixed, def.rate, half, def.workers, keepGoing)
	speeds = append(speeds, machineSpeed())
	if tr != nil {
		tr.on.Store(false)
	}
	fix := &l.recs[phFixed]
	end := s.counters()
	tr.counters(def.name, "load-end", end.flat())
	if imgErr != nil {
		return nil, fmt.Errorf("%s: crash image: %w", def.name, imgErr)
	}

	// Drain: complete half-admitted pairs, then collapse everything.
	outOfSeats := l.spent()
	for _, c := range l.clients {
		if f, ok := c.gen.(interface{ flush() []op }); ok {
			c.gen = &sliceGen{ops: f.flush()}
		} else {
			c.gen = &sliceGen{}
		}
	}
	l.closed(phDrain, 1, func(int) bool { return false })
	t = time.Now()
	if err := s.db.GroundAll(); err != nil {
		return nil, fmt.Errorf("%s: GroundAll: %w", def.name, err)
	}
	groundAll := time.Since(t)

	// Final checks.
	fail := func(format string, args ...any) {
		res.Correct = false
		res.note(format, args...)
	}
	var catchUp time.Duration
	if def.follower {
		var err error
		if catchUp, err = s.waitFollower(); err != nil {
			fail("%v", err)
		} else if diff, err := s.replicaDiff(); err != nil || diff != "" {
			fail("replica check: %s %v", diff, err)
		}
	}
	expect, pairs := s.expect(0)
	avail, bookings := readState(s.db.Engine().Store())
	for _, v := range expect.check(avail, bookings) {
		fail("final state: %s", v)
	}
	st := s.db.Stats()
	if st.Accepted != st.Grounded || s.db.Pending() != 0 {
		fail("after GroundAll: %d accepted, %d grounded, %d pending", st.Accepted, st.Grounded, s.db.Pending())
	}
	if want := len(expect.users) + def.spec.flights*def.spec.preBooked; len(bookings) != want {
		fail("%d bookings in the store, %d acknowledged", len(bookings), want)
	}
	var rec *recovery
	if img != nil {
		var err error
		if rec, err = s.recoverImage(img); err != nil {
			fail("recovery: %v", err)
		}
		for _, v := range rec.violations {
			fail("recovered image: %s", v)
		}
	}

	// Metrics.
	var all recorder
	for ph := range l.recs {
		if phase(ph) != phWarm {
			all.merge(&l.recs[ph])
		}
	}
	res.Attempted, res.Failed = all.attempted, all.failed
	for _, e := range all.errs {
		res.note("failed op: %s", e)
	}
	if all.errored > 0 {
		fail("%d operations returned an error, a refusal or a wrong answer", all.errored)
	}
	if l.recs[phWarm].failed > 0 {
		fail("warm-up: %d operations failed: %v", l.recs[phWarm].failed, l.recs[phWarm].errs)
	}
	measured := capRec.attempted + fix.attempted
	failedShare := ratio(float64(capRec.failed+fix.failed), float64(measured))
	opsPerS := perSecond(capRec.ok(), capWall)
	achieved := ratio(perSecond(sent, fixedWall), def.rate)
	if outOfSeats {
		res.note("the generated world ran out of seats before the window closed; phases ended early")
	}
	if achieved < 0.95 {
		res.note("fixed-rate phase saturated: achieved %.2f of %.0f op/s; its latencies are unresolved", achieved, def.rate)
	}
	sub, rd, sn := fix.of(submitKinds...), fix.of(readKinds...), fix.of(snapKinds...)
	coordRatio := coordinationRatio(coordination(bookings, pairs), len(pairs))
	d := delta{base, end}
	walBytes := float64(end.walWritten - base.walWritten)
	ckptBytes := float64(end.ckptBytes - base.ckptBytes)
	writeAmp := ratio(walBytes+ckptBytes, float64(end.textBytes-base.textBytes))

	allOps := fix.of(allKinds...)
	res.set("setup_s", def.timeAtRef(setup, mean(speeds[0:2])), 1)
	if !cfg.traced {
		res.set("ops_per_s", def.rateAtRef(opsPerS, mean(speeds[1:3])), int(capRec.ok()))
		res.set("op_p50_us", def.timeAtRef(us(quantile(allOps, 0.5)), mean(speeds[2:4])), len(allOps))
		res.set("raw_setup_s", setup, 1)
		res.set("raw_ops_per_s", opsPerS, int(capRec.ok()))
		res.set("raw_op_p50_us", us(quantile(allOps, 0.5)), len(allOps))
		res.set("machine_speed", mean(speeds)/refNominal, len(speeds))
		res.set("ok_share", 1-failedShare, int(measured))
		res.set("failed_share", failedShare, int(measured))
		res.set("coordination_ratio", coordRatio, len(pairs))
		res.setLatencies("", allOps, sub, rd, sn)
		if rec != nil {
			res.set("recover_s", rec.wall.Seconds(), 1)
		}
		if def.wal {
			res.set("write_amp", writeAmp, 0)
		}
		return res, nil
	}

	spans := spanStats(tr.all())
	ops := float64(measured)
	res.setLatencies("latency.", allOps, sub, rd, sn)
	res.set("latency.over_limit", float64(capRec.overLimit+fix.overLimit), 0)
	sort.Slice(fix.late, func(i, j int) bool { return fix.late[i] < fix.late[j] })
	res.set("generator.lateness_p99_us", us(quantile(fix.late, 0.99)), len(fix.late))
	res.set("generator.achieved_rate_ratio", achieved, int(sent))
	res.set("trace.overhead_ratio", overhead, 0)
	res.set("machine.speed_ratio", mean(speeds)/refNominal, len(speeds))

	reqBytes, respBytes := float64(end.netIn-base.netIn), float64(end.netOut-base.netOut)
	res.set("server.req_bytes_per_op", ratio(reqBytes, ops), 0)
	res.set("server.resp_bytes_per_row", ratio(respBytes, float64(capRec.rows+fix.rows)), 0)
	res.set("server.sheds", float64(end.sheds-base.sheds), 0)
	res.set("server.retries", float64(capRec.retries+fix.retries), 0)
	batch, single := fix.of(opBatch), fix.of(opETxn, opSubmit)
	if def.wire {
		res.set("server.batch_txn_us", us(quantile(batch, 0.5))/8, len(batch))
		res.set("server.single_txn_us", us(quantile(single, 0.5)), len(single))
	}

	setSpan := func(name, span string) {
		res.set(name, spans[span].p50us(), spanCount(spans[span]))
	}
	setSpan("core.submit_us", "core.submit")
	setSpan("core.read_us", "core.read")
	setSpan("core.ground_us", "core.ground")
	setSpan("core.write_us", "core.write")
	res.set("core.groundall_ms", float64(groundAll)/1e6, 1)
	sort.Slice(s.ckptNs, func(i, j int) bool { return s.ckptNs[i] < s.ckptNs[j] })
	res.set("core.checkpoint_ms", float64(quantile(s.ckptNs, 0.5))/1e6, len(s.ckptNs))
	nCkpt := end.checkpoints - base.checkpoints
	res.set("core.checkpoints", float64(nCkpt), 0)
	res.set("core.checkpoint_pause_us", ratio(float64(end.st.CheckpointPauseNs-base.st.CheckpointPauseNs)/1e3, float64(nCkpt)), nCkpt)
	setEngineCounters(res, d)
	res.set("core.coordination_ratio", coordRatio, len(pairs))

	appends := float64(end.appends - base.appends)
	fsyncs := float64(end.fsyncs - base.fsyncs)
	res.set("wal.appends", appends, 0)
	res.set("wal.fsyncs", fsyncs, 0)
	res.set("wal.group_commits", float64(end.groupCommits-base.groupCommits), 0)
	res.set("wal.fsyncs_per_ack", ratio(fsyncs, appends), 0)
	res.set("wal.bytes_per_op", ratio(walBytes, ops), 0)
	res.set("wal.checkpoint_bytes", ckptBytes, 0)
	res.set("wal.truncated_bytes", float64(end.walTrunc-base.walTrunc), 0)
	res.set("wal.write_amp", writeAmp, 0)
	if rec != nil {
		res.set("wal.recover_s", rec.wall.Seconds(), 1)
		res.set("wal.recovered_batches", float64(rec.batches), 0)
		res.set("wal.replay_us_per_batch", ratio(us(int64(rec.readAll)), float64(rec.batches)), rec.batches)
	}
	if def.follower {
		res.set("replica.bootstrap_ms", s.bootstrapMs, 1)
		res.set("replica.catchup_ms", float64(catchUp)/1e6, 1)
		sort.Slice(s.lag, func(i, j int) bool { return s.lag[i] < s.lag[j] })
		res.set("replica.lag_p50_batches", float64(quantile(s.lag, 0.5)), len(s.lag))
		res.set("replica.lag_max_batches", float64(quantile(s.lag, 1)), len(s.lag))
		res.set("replica.batches_replayed", float64(s.fol.BatchesReplayed()), 0)
		res.set("replica.resyncs", float64(s.fol.Resyncs()), 0)
	}
	setProcess(res, d, ops)
	s.probe(res, probeInput{spans: spans, rows: float64(capRec.rows + fix.rows), d: d, ops: ops, bookings: bookings})
	fillZeros(res)
	if log != nil {
		printSpans(log, spans)
	}
	return res, nil
}

func spanCount(s *spanStat) int {
	if s == nil {
		return 0
	}
	return s.n
}

// delta is two counter readings around the measured phases.
type delta struct{ from, to counters }

func (d delta) stat(f func(quantumdb.Stats) int) float64 {
	return float64(f(d.to.st) - f(d.from.st))
}

// setEngineCounters reports the engine's own counters over the measured
// phases: how often caches answered, how often admissions collided, what
// forced transactions to collapse.
func setEngineCounters(res *result, d delta) {
	type S = quantumdb.Stats
	hits := d.stat(func(s S) int { return s.CacheHits })
	misses := d.stat(func(s S) int { return s.CacheMisses })
	prepHits := d.stat(func(s S) int { return s.PrepCacheHits })
	prepMisses := d.stat(func(s S) int { return s.PrepCacheMisses })
	replays := d.stat(func(s S) int { return s.SolutionReplays })
	stale := d.stat(func(s S) int { return s.SolutionStale })
	submitted := d.stat(func(s S) int { return s.Submitted })
	res.set("core.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	res.set("core.prep_hit_ratio", ratio(prepHits, prepHits+prepMisses), int(prepHits+prepMisses))
	res.set("core.negative_hits", d.stat(func(s S) int { return s.NegativeCacheHits }), 0)
	res.set("core.replay_ratio", ratio(replays, replays+stale), int(replays+stale))
	res.set("core.admission_conflict_ratio", ratio(d.stat(func(s S) int { return s.AdmissionConflicts }), submitted), int(submitted))
	res.set("core.serial_fallbacks", d.stat(func(s S) int { return s.SerialFallbacks }), 0)
	res.set("core.lock_waits", d.stat(func(s S) int { return s.LockWaits }), 0)
	res.set("core.forced_by_k", d.stat(func(s S) int { return s.ForcedByK }), 0)
	res.set("core.forced_by_read", d.stat(func(s S) int { return s.ForcedByRead }), 0)
	res.set("core.max_partition_pending", float64(d.to.st.MaxPartitionPending), 0)
	res.set("core.semantic_fallbacks", d.stat(func(s S) int { return s.SemanticFallbacks }), 0)
	res.set("sched.parallel_solves", d.stat(func(s S) int { return s.ParallelSolves }), 0)
	res.set("formula.solves_per_submit", ratio(misses, submitted), int(submitted))
}

func setProcess(res *result, d delta, ops float64) {
	res.set("process.allocs_per_op", ratio(float64(d.to.mallocs-d.from.mallocs), ops), 0)
	res.set("process.alloc_bytes_per_op", ratio(float64(d.to.allocBytes-d.from.allocBytes), ops), 0)
	res.set("process.gc_pause_ms", float64(d.to.gcPauseNs-d.from.gcPauseNs)/1e6, 0)
	res.set("process.cpu_s_per_kop", ratio((d.to.cpu-d.from.cpu).Seconds()*1000, ops), 0)
	res.set("process.peak_rss_mb", peakRSSMB(), 0)
}

// fillZeros reports 0 for every per-layer metric the workload does not
// exercise, so each traced run carries the full declared set.
func fillZeros(res *result) {
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			res.Metrics[d.name] = metricValue{Unit: d.unit}
		}
	}
}

func printSpans(w io.Writer, spans map[string]*spanStat) {
	names := make([]string, 0, len(spans))
	for n := range spans {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-22s %9s %12s %12s %10s\n", "span", "n", "p50 us", "total ms", "self")
	for _, n := range names {
		s := spans[n]
		fmt.Fprintf(w, "  %-22s %9d %12.1f %12.1f %9.0f%%\n", n, s.n, s.p50us(),
			float64(s.totalNs)/1e6, 100*ratio(float64(s.selfNs), float64(s.totalNs)))
	}
}

// crashImage is a copy of the log and checkpoint files as a process
// crash at cutNs would have left them: every byte written before that
// instant, nothing after. Flushed-but-unsynced bytes survive a process
// crash, so this checks process-crash durability, not power loss.
type crashImage struct {
	dir   string
	cutNs int64 // acknowledgements before this must survive
}

// cutImage copies the WAL segments and the checkpoint while clients keep
// writing. File lengths are read first, in one pass, and only that
// prefix of each file is copied, so the image is the files as they stood
// at one instant and not a smear over the copy's duration.
func (s *stack) cutImage() (*crashImage, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	img := &crashImage{dir: filepath.Join(s.dir, "image"), cutNs: s.sinceStart()}
	if err := os.Mkdir(img.dir, 0o755); err != nil {
		return nil, err
	}
	paths, err := filepath.Glob(filepath.Join(s.dir, "wal*"))
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(s.checkpointPath()); err == nil {
		paths = append(paths, s.checkpointPath())
	}
	sizes := make([]int64, len(paths))
	for i, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		sizes[i] = st.Size()
	}
	for i, p := range paths {
		if err := copyPrefix(p, filepath.Join(img.dir, filepath.Base(p)), sizes[i]); err != nil {
			return nil, err
		}
	}
	return img, nil
}

func copyPrefix(src, dst string, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(out, in, n); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// recovery is what rebuilding a database from a crash image showed.
type recovery struct {
	wall       time.Duration // engine recovery alone
	readAll    time.Duration // decoding the image's log
	batches    int
	violations []string
}

// processCounters reads only the process-wide counters (paper_mixed has
// no long-lived stack to read the rest from).
func processCounters() counters {
	c := counters{cpu: cpuTime()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcPauseNs = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	return c
}
