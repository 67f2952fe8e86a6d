package bench

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
	"repro/internal/workload"
)

// ScaleConfig sizes the partition-parallel grounding experiment: N
// independent flight pools (one partition each, since bookings on
// different flights never unify), each loaded with TxnsPerPartition
// pending bookings, then collapsed by one GroundAll driven by the
// scheduler's worker pool. This is the scaling story the paper's §4
// partitioning enables and the sharded scheduler cashes in: chain solves
// of independent partitions run concurrently.
type ScaleConfig struct {
	// Partitions is the number of independent flight pools.
	Partitions int
	// TxnsPerPartition is the pending-chain length per partition; solve
	// cost grows with it, which is what makes grounding worth
	// parallelizing.
	TxnsPerPartition int
	// RowsPerFlight sizes each flight (3 seats per row).
	RowsPerFlight int
	// Workers is the scheduler pool width (0 = GOMAXPROCS, 1 = serial).
	Workers int
}

// DefaultScale exercises 8 partitions of 8 pending bookings over
// 50-row flights.
func DefaultScale() ScaleConfig {
	return ScaleConfig{Partitions: 8, TxnsPerPartition: 8, RowsPerFlight: 50}
}

// ScaleResult is one measured GroundAll collapse.
type ScaleResult struct {
	Config   ScaleConfig
	Workers  int // resolved pool width
	Load     time.Duration
	Ground   time.Duration
	Grounded int
}

// Throughput reports grounded transactions per second of GroundAll time.
func (r *ScaleResult) Throughput() float64 {
	if r.Ground <= 0 {
		return 0
	}
	return float64(r.Grounded) / r.Ground.Seconds()
}

// RunScale loads cfg.Partitions independent partitions and measures the
// final GroundAll under the given worker count.
func RunScale(cfg ScaleConfig) (*ScaleResult, error) {
	wcfg := workload.Config{Flights: cfg.Partitions, RowsPerFlight: cfg.RowsPerFlight}
	world := workload.NewWorld(wcfg)
	q, err := core.New(world.DB, core.Options{K: -1, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	defer q.Close()

	loadStart := time.Now()
	total := 0
	for f := 1; f <= cfg.Partitions; f++ {
		for i := 0; i < cfg.TxnsPerPartition; i++ {
			src := fmt.Sprintf(
				"-Available(%d, s), +Bookings('u%d_%d', %d, s) :-1 Available(%d, s)",
				f, f, i, f, f)
			t, err := txn.Parse(src)
			if err != nil {
				return nil, err
			}
			if _, err := q.Submit(t); err != nil {
				return nil, fmt.Errorf("scale: loading flight %d txn %d: %w", f, i, err)
			}
			total++
		}
	}
	load := time.Since(loadStart)
	if got := len(q.Partitions()); got != cfg.Partitions {
		return nil, fmt.Errorf("scale: %d partitions formed, want %d", got, cfg.Partitions)
	}

	groundStart := time.Now()
	if err := q.GroundAll(); err != nil {
		return nil, fmt.Errorf("scale: GroundAll: %w", err)
	}
	res := &ScaleResult{
		Config:   cfg,
		Workers:  q.Workers(),
		Load:     load,
		Ground:   time.Since(groundStart),
		Grounded: total,
	}
	if n := q.PendingCount(); n != 0 {
		return nil, fmt.Errorf("scale: %d transactions still pending", n)
	}
	if st := q.Stats(); st.Grounded != total {
		return nil, fmt.Errorf("scale: grounded %d of %d", st.Grounded, total)
	}
	return res, nil
}

// RunScaleSweep measures the same workload at each worker count.
func RunScaleSweep(cfg ScaleConfig, workers []int) ([]*ScaleResult, error) {
	out := make([]*ScaleResult, 0, len(workers))
	for _, w := range workers {
		c := cfg
		c.Workers = w
		r, err := RunScale(c)
		if err != nil {
			return nil, fmt.Errorf("workers=%d: %w", w, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderScale prints the sweep as a table with speedups over the first
// (baseline) row.
func RenderScale(w io.Writer, rs []*ScaleResult) {
	if len(rs) == 0 {
		return
	}
	cfg := rs[0].Config
	fmt.Fprintf(w, "Parallel grounding: %d partitions × %d txns, %d rows/flight\n",
		cfg.Partitions, cfg.TxnsPerPartition, cfg.RowsPerFlight)
	fmt.Fprintf(w, "%-10s%14s%14s%10s\n", "workers", "groundall", "txn/s", "speedup")
	base := rs[0].Ground.Seconds()
	for _, r := range rs {
		fmt.Fprintf(w, "%-10d%14s%14.0f%9.2fx\n",
			r.Workers, r.Ground.Round(time.Microsecond), r.Throughput(), base/r.Ground.Seconds())
	}
}

// SubmitConfig sizes the parallel-admission experiment: Clients
// goroutines each fire TxnsPerClient bookings at the engine as fast as
// they can. In the disjoint shape every client books its own flight —
// partitions never overlap, so optimistic admission (solve outside the
// admission lock) lets the submits run concurrently end to end. With
// Overlap set, every client books flight 1 instead: admissions contend
// on one partition, speculation conflicts, and the engine's bounded
// retry + serial fallback carries the storm.
type SubmitConfig struct {
	// Clients is the number of submitting goroutines (one flight each in
	// the disjoint shape).
	Clients int
	// TxnsPerClient is how many bookings each client submits.
	TxnsPerClient int
	// RowsPerFlight sizes each flight (3 seats per row).
	RowsPerFlight int
	// Workers is the scheduler pool width, which bounds concurrent
	// speculative solves (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Overlap aims every client at the same flight (conflict-heavy).
	Overlap bool
	// Serial runs the SerialAdmission ablation: admissions hold the lock
	// across their solves, the pre-optimistic discipline.
	Serial bool
}

// DefaultSubmit is the acceptance-bar shape: 8 clients, disjoint flights.
func DefaultSubmit() SubmitConfig {
	return SubmitConfig{Clients: 8, TxnsPerClient: 24, RowsPerFlight: 50}
}

// SubmitResult is one measured submit storm.
type SubmitResult struct {
	Config    SubmitConfig
	Workers   int // resolved pool width
	Elapsed   time.Duration
	Submitted int
	Accepted  int
	Rejected  int
	Stats     core.Stats
}

// Throughput reports admissions (accepted or rejected — both are full
// engine decisions) per second of storm time.
func (r *SubmitResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Submitted) / r.Elapsed.Seconds()
}

// RunParallelSubmit drives one submit storm and verifies the outcome is
// a consistent world (every accepted booking grounds, nothing double-
// booked is checked by the engine's key constraints).
func RunParallelSubmit(cfg SubmitConfig) (*SubmitResult, error) {
	flights := cfg.Clients
	if cfg.Overlap {
		flights = 1
	}
	world := workload.NewWorld(workload.Config{Flights: flights, RowsPerFlight: cfg.RowsPerFlight})
	q, err := core.New(world.DB, core.Options{K: -1, Workers: cfg.Workers, SerialAdmission: cfg.Serial})
	if err != nil {
		return nil, err
	}
	defer q.Close()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		accepted int
		rejected int
	)
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			flight := c + 1
			if cfg.Overlap {
				flight = 1
			}
			oks, rejs := 0, 0
			for i := 0; i < cfg.TxnsPerClient; i++ {
				src := fmt.Sprintf(
					"-Available(%d, s), +Bookings('c%d_%d', %d, s) :-1 Available(%d, s)",
					flight, c, i, flight, flight)
				t, err := txn.Parse(src)
				if err == nil {
					_, err = q.Submit(t)
				}
				switch {
				case err == nil:
					oks++
				case errors.Is(err, core.ErrRejected):
					rejs++ // flight full: a legal storm outcome
				default:
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("submit client %d txn %d: %w", c, i, err)
					}
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			accepted += oks
			rejected += rejs
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	res := &SubmitResult{
		Config:    cfg,
		Workers:   q.Workers(),
		Elapsed:   elapsed,
		Submitted: accepted + rejected,
		Accepted:  accepted,
		Rejected:  rejected,
	}
	if err := q.GroundAll(); err != nil {
		return nil, fmt.Errorf("submit storm: GroundAll: %w", err)
	}
	res.Stats = q.Stats()
	if res.Stats.Grounded != accepted {
		return nil, fmt.Errorf("submit storm: grounded %d of %d accepted", res.Stats.Grounded, accepted)
	}
	return res, nil
}

// RunSubmitSweep measures the same storm at each worker count.
func RunSubmitSweep(cfg SubmitConfig, workers []int) ([]*SubmitResult, error) {
	out := make([]*SubmitResult, 0, len(workers))
	for _, w := range workers {
		c := cfg
		c.Workers = w
		r, err := RunParallelSubmit(c)
		if err != nil {
			return nil, fmt.Errorf("workers=%d: %w", w, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderSubmit prints the sweep as a table with speedups over the first
// (baseline) row.
func RenderSubmit(w io.Writer, rs []*SubmitResult) {
	if len(rs) == 0 {
		return
	}
	cfg := rs[0].Config
	shape := "disjoint flights"
	if cfg.Overlap {
		shape = "one contended flight"
	}
	fmt.Fprintf(w, "Parallel admission: %d clients × %d submits, %s\n",
		cfg.Clients, cfg.TxnsPerClient, shape)
	fmt.Fprintf(w, "%-10s%14s%14s%10s%12s%12s\n",
		"workers", "storm", "submit/s", "speedup", "optimistic", "conflicts")
	base := rs[0].Elapsed.Seconds()
	for _, r := range rs {
		fmt.Fprintf(w, "%-10d%14s%14.0f%9.2fx%12d%12d\n",
			r.Workers, r.Elapsed.Round(time.Microsecond), r.Throughput(),
			base/r.Elapsed.Seconds(), r.Stats.OptimisticAdmissions, r.Stats.AdmissionConflicts)
	}
}
