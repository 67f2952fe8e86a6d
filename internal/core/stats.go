package core

import "sync/atomic"

// Stats exposes counters for the experiment harness; all are cumulative
// since construction. Retrieved via QDB.Stats (a consistent-enough copy:
// each counter is read atomically, the set is not a snapshot).
type Stats struct {
	// Submitted counts resource transactions offered to Submit.
	Submitted int
	// Accepted counts transactions admitted (committed).
	Accepted int
	// Rejected counts transactions refused because admission would empty
	// the set of possible worlds.
	Rejected int
	// Grounded counts transactions whose values have been fixed and whose
	// updates have been applied.
	Grounded int
	// ForcedByK counts groundings forced by the per-partition k-bound.
	ForcedByK int
	// ForcedByRead counts groundings forced by read collapse.
	ForcedByRead int
	// CacheHits counts admissions satisfied by extending a cached
	// solution; CacheMisses counts full composed-body solves.
	CacheHits   int
	CacheMisses int
	// SolutionReplays counts groundings served by replaying the
	// partition's cached solution — a cache probe, zero solver work.
	// SolutionStale counts replays whose grounding no longer applied (a
	// key collision with a commuting write) and fell back to a solve.
	SolutionReplays int
	SolutionStale   int
	// NegativeCacheHits counts unsatisfiability answers served from the
	// negative solve cache: rejected re-admissions, re-rejected writes,
	// and repeated failed reorder/coordination attempts that skipped the
	// solver entirely.
	NegativeCacheHits int
	// PrepCacheHits/PrepCacheMisses count cross-solve reuse of compiled
	// body queries (the QDB-level prepared-query cache; per-solve reuse
	// is not counted).
	PrepCacheHits   int
	PrepCacheMisses int
	// SemanticReorders counts successful move-to-front groundings;
	// SemanticFallbacks counts the times move-to-front was unsatisfiable
	// and the strict prefix path ran instead.
	SemanticReorders  int
	SemanticFallbacks int
	// Reads counts read queries; WritesAccepted/WritesRejected count
	// non-resource blind writes.
	Reads          int
	WritesAccepted int
	WritesRejected int
	// MaxPending is the high-water mark of pending transactions across
	// the whole database; MaxPartitionPending is the per-partition
	// high-water mark (Table 1's quantity).
	MaxPending          int
	MaxPartitionPending int
	// MaxComposedAtoms is the high-water mark of relational atoms in a
	// single partition's composed body (the paper's 61-join ceiling).
	MaxComposedAtoms int
	// PartitionMerges counts partition-merge events during admission.
	PartitionMerges int
	// OptimisticAdmissions counts admission outcomes (accepted or
	// rejected, Submit and SubmitBatch members alike) decided by a
	// speculative solve run outside the admission lock whose snapshot
	// then validated. AdmissionConflicts counts snapshot
	// validations that failed (the partition set or the relevant store
	// epochs advanced past the snapshot); each conflict either re-runs the
	// speculation (AdmissionRetries) or, once the per-call retry budget is
	// exhausted, falls back to serial admission under the lock
	// (SerialFallbacks) — so AdmissionConflicts equals AdmissionRetries +
	// SerialFallbacks.
	OptimisticAdmissions int
	AdmissionConflicts   int
	AdmissionRetries     int
	SerialFallbacks      int
	// BatchedSubmits counts transactions that entered through
	// SubmitBatch's amortized snapshot/speculate/validate/log cycle
	// (whatever their outcome) — the server's pipelined data plane is
	// the expected feeder.
	BatchedSubmits int
	// ParallelSolves counts partition tasks executed on the scheduler's
	// worker pool: GroundAll partition drains, read-collapse tasks,
	// blind-write validation solves, and speculative admission solves.
	ParallelSolves int
	// LockWaits counts lock-order waits: stale shard acquisitions (the
	// partition merged, drained, or re-homed its transactions between
	// lookup and lock, forcing a retry) plus GroundAll TryLock skips of
	// busy partitions.
	LockWaits int
	// SnapshotReads counts read evaluations served gate-free against a
	// copy-on-write snapshot (Read's collapse-free path plus every
	// QueryAt); such reads never block, and are never blocked by, store
	// appliers.
	SnapshotReads int
	// SnapshotsLive is a gauge: snapshots currently pinned (taken and not
	// yet released), including the transient ones reads take internally.
	SnapshotsLive int
	// CowCopies counts the row pages, key shards and index buckets store
	// writers copied because another table version — one pinned by a
	// snapshot, or left behind by one — still shared them; CowBytes is
	// the payload those copies moved. Together: the write amplification
	// snapshots cause.
	CowCopies int64
	CowBytes  int64
	// CheckpointPauseNs accumulates the time Checkpoint actually held the
	// engine's locks — the snapshot-take cut only, not serialization or
	// WAL truncation, which run with the engine fully live. The gap
	// between this and a checkpoint's wall time is the fuzziness.
	CheckpointPauseNs int64
	// ReplicaAckSeq is the highest applied WAL sequence any subscriber
	// has acknowledged (leader side; 0 until a follower connects).
	// ReplicaLag is the leader's WAL sequence minus ReplicaAckSeq at
	// snapshot time — batches shipped-but-unacked by the most caught-up
	// follower. ReplicaPulls counts shipper pulls served.
	ReplicaAckSeq int64
	ReplicaLag    int64
	ReplicaPulls  int
	// FollowerAppliedSeq and BatchesReplayed are follower-side: the
	// replica's applied watermark and cumulative replayed batches. Zero
	// on a leader; a follower server fills them from its ReplicaState.
	FollowerAppliedSeq int64
	BatchesReplayed    int64
	// ReplicaTerm is the engine's effective replication term — the
	// fencing token failover monotonically advances. ReadOnlyMode is
	// true once a newer term demoted this engine to follower mode.
	ReplicaTerm  int64
	ReadOnlyMode bool
	// Demotions counts read-only flips forced by observing a newer term
	// (at most one per demotion edge). StaleTermRefusals counts WAL
	// appends refused because the term was fenced — a deposed leader's
	// in-flight work dying at the token, not at timing.
	Demotions         int
	StaleTermRefusals int64
	// Promotions counts successful follower promotions (follower-side;
	// a follower server fills it from its replica.Follower).
	Promotions int
	// SolverSteps accumulates grounding attempts across all
	// satisfiability checks (the phase-transition experiment's effort
	// metric).
	SolverSteps int64
	// StartUnixNano is the wall-clock time the engine instance was
	// constructed. It changes on restart, so a poller comparing it across
	// samples detects that the counters reset (all counters are
	// cumulative since construction).
	StartUnixNano int64
	// UptimeNs is the monotonic-clock age of the engine instance at
	// snapshot time; pollers divide counter deltas by uptime deltas to
	// compute rates without trusting wall clocks.
	UptimeNs int64
	// StatsSeq numbers this snapshot: it increments on every Stats()
	// call, so a poller seeing a non-increasing sequence (after a restart
	// check via StartUnixNano) knows it is reading a stale or reordered
	// sample.
	StatsSeq int64
}

// counters is the engine-internal, concurrency-safe form of Stats. Every
// field is updated atomically so the hot paths never serialize on a
// statistics lock.
type counters struct {
	submitted, accepted, rejected, grounded      atomic.Int64
	forcedByK, forcedByRead                      atomic.Int64
	cacheHits, cacheMisses                       atomic.Int64
	solutionReplays, solutionStale, negHits      atomic.Int64
	semanticReorders, semanticFallbacks          atomic.Int64
	reads, writesAccepted, writesRejected        atomic.Int64
	maxPending, maxPartitionPending, maxComposed atomic.Int64
	partitionMerges, parallelSolves, lockWaits   atomic.Int64
	optimisticAdmissions, admissionConflicts     atomic.Int64
	admissionRetries, serialFallbacks            atomic.Int64
	batchedSubmits                               atomic.Int64
	snapshotReads, checkpointPauseNs             atomic.Int64
	replicaAckSeq, replicaPulls                  atomic.Int64
	demotions, staleTermRefusals                 atomic.Int64
	statsSeq                                     atomic.Int64
	// solverSteps is a plain int64 because its address is handed to the
	// chain solver (formula.ChainOptions.StepCounter), which adds to it
	// with sync/atomic.
	solverSteps int64
}

// snapshot materializes the exported counter copy.
func (c *counters) snapshot() Stats {
	return Stats{
		Submitted:            int(c.submitted.Load()),
		Accepted:             int(c.accepted.Load()),
		Rejected:             int(c.rejected.Load()),
		Grounded:             int(c.grounded.Load()),
		ForcedByK:            int(c.forcedByK.Load()),
		ForcedByRead:         int(c.forcedByRead.Load()),
		CacheHits:            int(c.cacheHits.Load()),
		CacheMisses:          int(c.cacheMisses.Load()),
		SolutionReplays:      int(c.solutionReplays.Load()),
		SolutionStale:        int(c.solutionStale.Load()),
		NegativeCacheHits:    int(c.negHits.Load()),
		SemanticReorders:     int(c.semanticReorders.Load()),
		SemanticFallbacks:    int(c.semanticFallbacks.Load()),
		Reads:                int(c.reads.Load()),
		WritesAccepted:       int(c.writesAccepted.Load()),
		WritesRejected:       int(c.writesRejected.Load()),
		MaxPending:           int(c.maxPending.Load()),
		MaxPartitionPending:  int(c.maxPartitionPending.Load()),
		MaxComposedAtoms:     int(c.maxComposed.Load()),
		PartitionMerges:      int(c.partitionMerges.Load()),
		OptimisticAdmissions: int(c.optimisticAdmissions.Load()),
		AdmissionConflicts:   int(c.admissionConflicts.Load()),
		AdmissionRetries:     int(c.admissionRetries.Load()),
		SerialFallbacks:      int(c.serialFallbacks.Load()),
		BatchedSubmits:       int(c.batchedSubmits.Load()),
		ParallelSolves:       int(c.parallelSolves.Load()),
		LockWaits:            int(c.lockWaits.Load()),
		SnapshotReads:        int(c.snapshotReads.Load()),
		CheckpointPauseNs:    c.checkpointPauseNs.Load(),
		ReplicaAckSeq:        c.replicaAckSeq.Load(),
		ReplicaPulls:         int(c.replicaPulls.Load()),
		Demotions:            int(c.demotions.Load()),
		StaleTermRefusals:    c.staleTermRefusals.Load(),
		SolverSteps:          atomic.LoadInt64(&c.solverSteps),
	}
}

// raiseMax lifts an atomic high-water mark to at least v.
func raiseMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}
