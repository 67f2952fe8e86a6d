// Package core implements the quantum database of §3-4: a middle-tier
// service over the relational store that admits resource transactions
// without grounding them, maintains the invariant that a consistent
// grounding exists for every pending transaction (Definition 3.1), and
// collapses uncertainty on reads, on explicit grounding requests, on
// entangled-partner arrival, and when the per-partition k-bound is hit.
//
// Chain-solve results are cached across operations (the §4 amortization
// argument taken further): each partition's cached solution replays at
// grounding time, unsatisfiable solve instances answer repeats by
// probe — both invalidated by relstore epoch fingerprints rather than
// per-write hooks — and compiled bodies persist per transaction shape in
// a QDB-level prepared-query cache, which holds no store state. See
// cache.go and ARCHITECTURE.md.
package core

import (
	"time"

	"repro/internal/formula"
	"repro/internal/relstore"
)

// Mode selects the serializability discipline used when a pending
// transaction must be grounded out of arrival order (§3.2.3).
type Mode int

const (
	// Semantic tries to move the transaction to the front of its
	// partition's pending order, grounding only it, provided the reordered
	// chain is still satisfiable; it falls back to Strict when not. This
	// is the paper's recommended practical strategy.
	Semantic Mode = iota
	// Strict grounds every earlier pending transaction of the partition
	// first, preserving arrival order (classical serializability).
	Strict
)

func (m Mode) String() string {
	if m == Strict {
		return "strict"
	}
	return "semantic"
}

// Chooser picks among candidate groundings for the transaction being
// collapsed; the candidates all leave the rest of the chain satisfiable.
// Returning an index outside [0, len(cands)) is treated as 0. §3.2.2:
// "it is desirable to fix values in such a way as to maximize the
// remaining number of possible worlds; more sophisticated
// application-specific heuristics may also be appropriate." src is the
// solve's store view: a Chooser reads the store through it only.
type Chooser func(cands []formula.Grounding, src relstore.Source) int

// FirstFit takes the first candidate; with ChooserSample=1 this is the
// zero-overhead default.
func FirstFit([]formula.Grounding, relstore.Source) int { return 0 }

// DefaultK mirrors the paper's prototype limit: MySQL's 61-table join cap
// bounds the composed body, so at most 61 transactions stay pending per
// partition.
const DefaultK = 61

// Options configures a quantum database. The zero value is usable:
// k=DefaultK, semantic serializability, first-fit collapse.
type Options struct {
	// K bounds pending transactions per partition; admitting a
	// transaction that would exceed it force-grounds the oldest pending
	// transactions first (§4). 0 means DefaultK; negative means unbounded.
	K int
	// Mode is the serializability discipline for out-of-order grounding.
	Mode Mode
	// SerialAdmission turns off optimistic parallel admission: every
	// Submit holds the admission lock across its whole chain solve (the
	// pre-optimistic discipline) instead of solving speculatively against
	// a partition-set snapshot and validating before install. The ablation
	// counterpart of qdbd's -serial-admission flag. Optimistic admission
	// is also bypassed per call after repeated validation conflicts
	// (Stats.SerialFallbacks).
	SerialAdmission bool
	// Planner is forwarded to the conjunctive-query evaluator.
	Planner relstore.PlannerMode
	// Chooser picks among sampled groundings at collapse time; nil means
	// FirstFit.
	Chooser Chooser
	// ChooserSample is how many candidate groundings to offer the Chooser;
	// 0 or 1 means first-fit.
	ChooserSample int
	// MaxSolverSteps bounds backtracking per satisfiability check; 0
	// means unbounded.
	MaxSolverSteps int
	// Workers bounds the scheduler's worker pool, which drives parallel
	// partition grounding (GroundAll, read collapse across partitions)
	// and the speculative solves of admission cycles, blind writes
	// included (one slot per cycle). 0 means GOMAXPROCS; 1 runs the
	// scheduler fully serially (every multi-partition operation executes
	// inline on the calling goroutine); negative values are treated as 1.
	Workers int
	// WALPath, when non-empty, durably logs pending transactions and base
	// writes to segment files rooted at this path (<WALPath>.0 …);
	// Recover rebuilds the quantum state from them. Every commit unit is
	// logged and (with SyncWAL) synced BEFORE its effects reach the
	// store.
	WALPath string
	// SyncWAL makes every logged batch fsync before it is acknowledged
	// or applied (group commit: concurrent appenders to the same segment
	// share one fsync). Admissions and blind writes wait for that fsync
	// after releasing the admission lock, so they share fsyncs too, with
	// each other and with groundings. Off, batches are flushed to the OS but a machine crash may
	// lose the unsynced tail: with one segment recovery still sees a
	// consistent prefix, while with WALSegments > 1 each segment loses an
	// independent tail, so recovery is best-effort convergence (the
	// idempotent redo absorbs the holes) rather than a prefix — turn
	// SyncWAL on when exact crash recovery matters.
	SyncWAL bool
	// WALSegments is the number of partition-affine WAL segment files.
	// Groundings of partitions mapped to different segments append and
	// fsync independently, so under SyncWAL the log stops being a global
	// writer bottleneck. 0 or 1 means a single segment; recovery merges
	// whatever segments exist by sequence number regardless of the
	// configured count.
	WALSegments int

	// SlowOpThreshold arms slow-op capture at construction: any engine
	// operation (Submit, Ground, Read, Write, Checkpoint) slower than
	// this records its stage breakdown into the ring returned by
	// QDB.SlowOps. Zero leaves capture disabled (the default; it can be
	// armed later with SetSlowOpThreshold).
	SlowOpThreshold time.Duration
}

func (o *Options) k() int {
	switch {
	case o.K == 0:
		return DefaultK
	case o.K < 0:
		return int(^uint(0) >> 1)
	default:
		return o.K
	}
}

func (o *Options) chooser() Chooser {
	if o.Chooser == nil {
		return FirstFit
	}
	return o.Chooser
}

func (o *Options) sample() int {
	if o.ChooserSample < 1 {
		return 1
	}
	return o.ChooserSample
}

func (o *Options) walSegments() int {
	if o.WALSegments < 1 {
		return 1
	}
	return o.WALSegments
}

func (o *Options) workers() int {
	if o.Workers < 0 {
		return 1
	}
	return o.Workers // 0 = GOMAXPROCS, resolved by sched.NewPool
}
