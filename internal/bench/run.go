// Package bench regenerates every table and figure of the paper's
// evaluation (§5.3): Table 1 (pending-transaction bounds), Figures 5-6
// (arrival orders: overhead and coordination), Figure 7 + Table 2
// (scalability and coordination vs k), and Figures 8-9 (mixed read
// workloads). Each Run* function executes the experiment at a
// configurable scale and returns a result that renders the same series
// the paper reports.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/txn"
	"repro/internal/workload"
)

// StreamResult captures one quantum-database run over an entangled
// transaction stream.
type StreamResult struct {
	// PerTxn is the wall time of each submission (including any
	// entangled-pair grounding it triggered).
	PerTxn []time.Duration
	// FinalGround is the time of the terminal GroundAll.
	FinalGround time.Duration
	// CoordinationPct is the paper's headline metric after full
	// grounding.
	CoordinationPct float64
	// MaxPendingObserved is the pending-transaction high-water mark
	// sampled after each complete operation (submission plus any
	// entangled-pair grounding it triggered) — Table 1's accounting,
	// where a transaction counts as pending until its partner arrives.
	MaxPendingObserved int
	// Stats is the QDB counter snapshot.
	Stats core.Stats
}

// Total returns the full execution time of the run.
func (r *StreamResult) Total() time.Duration {
	t := r.FinalGround
	for _, d := range r.PerTxn {
		t += d
	}
	return t
}

// Cumulative returns the running sum of per-transaction times (the Fig 5
// y-axis).
func (r *StreamResult) Cumulative() []time.Duration {
	out := make([]time.Duration, len(r.PerTxn))
	var sum time.Duration
	for i, d := range r.PerTxn {
		sum += d
		out[i] = sum
	}
	return out
}

// StreamOptions bundles the QDB configuration with the coordinator
// policy for one run.
type StreamOptions struct {
	Core core.Options
	// Eager enables coordinated collapse on arrival when the partner was
	// already executed (the paper-extension ablation).
	Eager bool
}

// RunQDBStream plays an entangled stream through a fresh quantum database
// over a clone of the world, using the §5.1 policy (ground pairs on
// partner arrival).
func RunQDBStream(w *workload.World, pairs []workload.Pair, stream []*txn.T, opt core.Options) (*StreamResult, error) {
	return RunQDBStreamOpt(w, pairs, stream, StreamOptions{Core: opt})
}

// RunQDBStreamOpt is RunQDBStream with full policy control.
func RunQDBStreamOpt(w *workload.World, pairs []workload.Pair, stream []*txn.T, opt StreamOptions) (*StreamResult, error) {
	world := w.Clone()
	q, err := core.New(world.DB, opt.Core)
	if err != nil {
		return nil, err
	}
	defer q.Close()
	c := core.NewCoordinator(q)
	c.EagerCoordination = opt.Eager
	res := &StreamResult{PerTxn: make([]time.Duration, 0, len(stream))}
	for _, t := range stream {
		start := time.Now()
		if _, err := c.Submit(t); err != nil {
			return nil, fmt.Errorf("bench: submitting %s: %w", t.Tag, err)
		}
		res.PerTxn = append(res.PerTxn, time.Since(start))
		if n := q.PendingCount(); n > res.MaxPendingObserved {
			res.MaxPendingObserved = n
		}
	}
	start := time.Now()
	if err := q.GroundAll(); err != nil {
		return nil, fmt.Errorf("bench: final grounding: %w", err)
	}
	res.FinalGround = time.Since(start)
	res.CoordinationPct = workload.CoordinationPercent(world.DB, world.Config, pairs)
	res.Stats = q.Stats()
	return res, nil
}

// RunISStream plays the same reservations through the intelligent-social
// baseline: immediate booking with the eager coordination heuristic.
func RunISStream(w *workload.World, pairs []workload.Pair, stream []*txn.T) (*StreamResult, error) {
	world := w.Clone()
	cl := baseline.New(world.DB)
	res := &StreamResult{PerTxn: make([]time.Duration, 0, len(stream))}
	for _, t := range stream {
		f := flightOfTxn(t)
		start := time.Now()
		if _, err := cl.Book(t.Tag, t.PartnerTag, f); err != nil {
			return nil, fmt.Errorf("bench: IS booking %s: %w", t.Tag, err)
		}
		res.PerTxn = append(res.PerTxn, time.Since(start))
	}
	res.CoordinationPct = workload.CoordinationPercent(world.DB, world.Config, pairs)
	return res, nil
}

func flightOfTxn(t *txn.T) int {
	for _, u := range t.Update {
		if u.Insert && u.Atom.Rel == workload.RelBookings {
			return int(u.Atom.Args[1].Value().Int())
		}
	}
	panic("bench: transaction books nothing")
}

// Rng returns a deterministic source for a seeded experiment run.
func Rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// rng is the package-internal shorthand.
func rng(seed int64) *rand.Rand { return Rng(seed) }
