package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/formula"
	"repro/internal/telemetry"
)

// This file wires the engine into internal/telemetry: every QDB owns a
// Registry holding all former Stats counters (read straight from the
// same atomics — the registry adds a second reader, not a second source
// of truth), per-op latency tracers with stage histograms, and the WAL/
// scheduler histograms it hands down to those layers. Instrumentation
// is permanently on: a histogram record is three atomic adds and spans
// live on the stack (telemetry's TestSpanZeroAllocs and the Fig7 allocs
// ratchet both enforce it), so there is no "observability build".

// Per-op stage indices. Each op's stages must match the names passed to
// its Tracer in newEngineMetrics, in order.
const (
	// submit and write, the two ops of the admission cycle: snapshot the
	// overlap set, speculative/serial decision solves, validate critical
	// section (optimistic cycles only); wal is the batch append under the
	// admission lock plus the wait for its fsync after it, and apply the
	// carried unit (a write's facts, the k-bound evictions) applied after
	// the wait, both timed by publish.
	stageAdmitSnapshot = iota
	stageAdmitSolve
	stageAdmitValidate
	stageAdmitWAL
	stageAdmitApply
)

const (
	// ground: chain solve through a store view, write-ahead batch append
	// (+ group-commit fsync), store apply (db.mu exclusive).
	// Cache-replay groundings skip the solve stage entirely.
	stageGroundSolve = iota
	stageGroundWAL
	stageGroundApply
)

const (
	// read: collapse of affected partitions on the pool, then the final
	// evaluation (lock-free, on a pinned snapshot).
	stageReadCollapse = iota
	stageReadEval
)

const (
	// checkpoint: the locked cut, off-lock serialization, WAL truncation.
	stageCheckpointCut = iota
	stageCheckpointSerialize
	stageCheckpointTruncate
)

// slowRingSize bounds the slow-op ring buffer; at 128 records of fixed
// size the armed ring is a few KB.
const slowRingSize = 128

// engineMetrics is the QDB's registry plus the tracers and histograms
// the hot paths record into.
type engineMetrics struct {
	reg  *telemetry.Registry
	slow *telemetry.SlowLog

	submit     *telemetry.Tracer
	ground     *telemetry.Tracer
	read       *telemetry.Tracer
	write      *telemetry.Tracer
	checkpoint *telemetry.Tracer

	shardWait *telemetry.Histogram
	poolQueue *telemetry.Histogram
	walAppend *telemetry.Histogram
	walSync   *telemetry.Histogram
	walBytes  *telemetry.Histogram
}

// newEngineMetrics builds the registry over an already-constructed
// counters block. Counter series read the engine's own atomics via
// CounterFunc — the atomics remain the single source of truth and the
// hot paths are untouched by registration.
func newEngineMetrics(q *QDB) *engineMetrics {
	reg := telemetry.NewRegistry()
	m := &engineMetrics{reg: reg, slow: telemetry.NewSlowLog(slowRingSize)}
	c := &q.stats

	reg.UptimeGauges("qdb", q.start)
	reg.CounterFunc("qdb_stats_polls_total",
		"Stats() snapshots served; the monotonic StatsSeq pollers use to order samples.",
		c.statsSeq.Load)

	type cdef struct {
		name, help string
		a          *atomic.Int64
	}
	for _, d := range []cdef{
		{"qdb_submitted_total", "Resource transactions offered to Submit.", &c.submitted},
		{"qdb_accepted_total", "Transactions admitted (committed).", &c.accepted},
		{"qdb_rejected_total", "Transactions refused at admission.", &c.rejected},
		{"qdb_grounded_total", "Transactions grounded (values fixed, updates applied).", &c.grounded},
		{"qdb_ground_units_total", "Commit units groundings executed in (one WAL batch and one atomic apply each).", &c.groundUnits},
		{"qdb_forced_by_k_total", "Groundings forced by the per-partition k-bound.", &c.forcedByK},
		{"qdb_forced_by_read_total", "Groundings forced by read collapse.", &c.forcedByRead},
		{"qdb_cache_hits_total", "Admissions satisfied by extending a cached solution.", &c.cacheHits},
		{"qdb_cache_misses_total", "Full composed-body solves at admission.", &c.cacheMisses},
		{"qdb_solution_replays_total", "Groundings served by cached-solution replay.", &c.solutionReplays},
		{"qdb_solution_stale_total", "Cached-solution replays that no longer applied and fell back to a solve.", &c.solutionStale},
		{"qdb_negative_cache_hits_total", "Unsatisfiability answers served from the negative solve cache.", &c.negHits},
		{"qdb_semantic_reorders_total", "Successful move-to-front groundings.", &c.semanticReorders},
		{"qdb_semantic_fallbacks_total", "Move-to-front attempts that fell back to the strict prefix.", &c.semanticFallbacks},
		{"qdb_reads_total", "Read queries evaluated.", &c.reads},
		{"qdb_writes_accepted_total", "Blind writes accepted.", &c.writesAccepted},
		{"qdb_writes_rejected_total", "Blind writes rejected (would empty the possible worlds).", &c.writesRejected},
		{"qdb_partition_merges_total", "Partition-merge events during admission.", &c.partitionMerges},
		{"qdb_optimistic_admissions_total", "Submit outcomes decided by a validated speculative solve.", &c.optimisticAdmissions},
		{"qdb_admission_conflicts_total", "Optimistic-admission snapshot validations that failed.", &c.admissionConflicts},
		{"qdb_admission_retries_total", "Optimistic admissions re-speculated after a conflict.", &c.admissionRetries},
		{"qdb_serial_fallbacks_total", "Admissions that fell back to the serial discipline.", &c.serialFallbacks},
		{"qdb_parallel_solves_total", "Partition tasks executed on the worker pool.", &c.parallelSolves},
		{"qdb_lock_waits_total", "Partition locator retries and GroundAll TryLock skips.", &c.lockWaits},
		{"qdb_snapshot_reads_total", "Read evaluations served lock-free from a COW snapshot.", &c.snapshotReads},
		{"qdb_checkpoint_pause_ns_total", "Nanoseconds Checkpoint held the engine's locks (the cut only).", &c.checkpointPauseNs},
	} {
		reg.CounterFunc(d.name, d.help, d.a.Load)
	}
	reg.CounterFunc("qdb_solver_steps_total",
		"Grounding attempts across all satisfiability checks.",
		func() int64 { return atomic.LoadInt64(&c.solverSteps) })
	hits := func() int64 { h, _ := q.prep.Counters(); return int64(h) }
	misses := func() int64 { _, m := q.prep.Counters(); return int64(m) }
	reg.CounterFunc("qdb_prep_cache_hits_total", "Compiled bodies reused across solves by transaction shape.", hits)
	reg.CounterFunc("qdb_prep_cache_misses_total", "Compiled-body cache misses.", misses)
	reg.GaugeFunc("qdb_prep_cache_shapes",
		fmt.Sprintf("Transaction shapes (per optional-subset mask) with cached compiled bodies; all are dropped at %d.", formula.PrepCacheCap),
		func() int64 { return int64(q.prep.Len()) })

	reg.GaugeFunc("qdb_pending", "Committed-but-unground transactions right now.",
		func() int64 { return int64(q.PendingCount()) })
	reg.GaugeFunc("qdb_snapshots_live", "COW snapshots currently pinned.",
		func() int64 { return int64(q.db.SnapshotsLive()) })
	reg.CounterFunc("qdb_relstore_cow_copies_total",
		"Pages, shards and buckets writers copied because another table version shared them.",
		func() int64 { n, _ := q.db.CowStats(); return n })
	reg.CounterFunc("qdb_relstore_cow_bytes_total",
		"Payload bytes moved by copy-on-write page, shard and bucket copies.",
		func() int64 { _, n := q.db.CowStats(); return n })
	reg.GaugeFunc("qdb_max_pending", "High-water mark of pending transactions.", c.maxPending.Load)
	reg.GaugeFunc("qdb_max_partition_pending", "Per-partition pending high-water mark.", c.maxPartitionPending.Load)
	reg.GaugeFunc("qdb_max_composed_atoms", "High-water mark of atoms in one composed body.", c.maxComposed.Load)
	reg.GaugeFunc("qdb_workers", "Scheduler worker-pool width.",
		func() int64 { return int64(q.pool.Workers()) })
	reg.GaugeFunc("qdb_slow_op_threshold_ns", "Slow-op capture threshold (0 = disabled).",
		func() int64 { return int64(m.slow.Threshold()) })

	// Leader-side replication series. q.log is opened AFTER this
	// registry is built (New wires metrics before the WAL), so the
	// closures must resolve it lazily, per poll.
	reg.CounterFunc("qdb_replica_pulls_total", "Shipper pulls served to subscribers.",
		c.replicaPulls.Load)
	reg.GaugeFunc("qdb_replica_ack_seq", "Highest WAL sequence acked by any subscriber.",
		c.replicaAckSeq.Load)
	reg.GaugeFunc("qdb_replica_lag", "Leader WAL sequence minus the best subscriber ack (0 with no subscriber).",
		func() int64 {
			ack := c.replicaAckSeq.Load()
			if q.log == nil || ack == 0 {
				return 0
			}
			if seq := int64(q.log.Seq()); seq > ack {
				return seq - ack
			}
			return 0
		})

	// Failover series. The term gauge resolves through q.Term (which
	// tolerates a nil q.log — the WAL, like above, opens after this
	// registry is built).
	reg.GaugeFunc("qdb_replica_term", "Effective replication term (the failover fencing token).",
		func() int64 { return int64(q.Term()) })
	reg.GaugeFunc("qdb_read_only_mode", "1 once a newer term demoted this engine to follower mode.",
		func() int64 {
			if q.readOnly.Load() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("qdb_demotions_total", "Read-only flips forced by observing a newer replication term.",
		c.demotions.Load)
	reg.CounterFunc("qdb_stale_term_refusals_total", "WAL appends refused because the replication term was fenced.",
		c.staleTermRefusals.Load)

	const opHelp = "End-to-end engine operation latency."
	admitStages := []string{"snapshot", "solve", "validate", "wal", "apply"}
	m.submit = reg.Tracer("qdb_op_duration_seconds", "qdb_op_stage_duration_seconds",
		"submit", opHelp, admitStages, m.slow)
	m.ground = reg.Tracer("qdb_op_duration_seconds", "qdb_op_stage_duration_seconds",
		"ground", opHelp, []string{"solve", "wal", "apply"}, m.slow)
	m.read = reg.Tracer("qdb_op_duration_seconds", "qdb_op_stage_duration_seconds",
		"read", opHelp, []string{"collapse", "eval"}, m.slow)
	m.write = reg.Tracer("qdb_op_duration_seconds", "qdb_op_stage_duration_seconds",
		"write", opHelp, admitStages, m.slow)
	m.checkpoint = reg.Tracer("qdb_op_duration_seconds", "qdb_op_stage_duration_seconds",
		"checkpoint", opHelp, []string{"cut", "serialize", "truncate"}, m.slow)

	m.shardWait = reg.Seconds("qdb_shard_lock_wait_seconds", "",
		"Contended partition-shard lock waits (uncontended acquires are not sampled).")
	m.poolQueue = reg.Seconds("qdb_pool_queue_wait_seconds", "",
		"Waits for a worker-pool slot when the pool was saturated.")
	m.walAppend = reg.Seconds("qdb_wal_append_duration_seconds", "",
		"WAL batches from append to durable, including any group-commit fsync wait.")
	m.walSync = reg.Seconds("qdb_wal_sync_duration_seconds", "",
		"Individual WAL flush+fsync rounds.")
	m.walBytes = reg.Histogram("qdb_wal_batch_bytes", "",
		"Encoded size of appended WAL batches.", 1)
	// Resolved per poll, like the replication series above: q.log opens
	// after this registry is built.
	reg.CounterFunc("qdb_wal_file_scans_total",
		"Log-shipping reads the in-memory WAL tail could not answer, served by scanning the segment files.",
		func() int64 { return int64(q.LogStats().FileScans) })
	return m
}

// Metrics returns the engine's telemetry registry, for exposition
// (qdbd's -metrics-addr handler, qdbcli's metrics command) and for
// harvesting latency quantiles in benchmarks.
func (q *QDB) Metrics() *telemetry.Registry { return q.met.reg }

// SlowOps returns the engine's slow-op ring buffer. Disabled (threshold
// 0) by default; arm with SetSlowOpThreshold.
func (q *QDB) SlowOps() *telemetry.SlowLog { return q.met.slow }

// SetSlowOpThreshold arms (d > 0) or disarms (d <= 0) slow-op capture:
// any Submit/Ground/Read/Write/Checkpoint slower than d records its
// stage breakdown into the ring returned by SlowOps.
func (q *QDB) SetSlowOpThreshold(d time.Duration) { q.met.slow.SetThreshold(d) }
