package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// WALSyncConfig sizes the durable-grounding experiment: N independent
// flight pools (one partition each) loaded with pending bookings, then
// collapsed by one GroundAll with SyncWAL ON — every grounding batch
// must fsync before it applies. With one WAL segment all partitions
// serialize on a single fsync stream (the pre-sharding bottleneck); with
// partition-affine segments, groundings of partitions on different
// segments sync independently and the worker pool's parallelism reaches
// the disk.
type WALSyncConfig struct {
	// Partitions is the number of independent flight pools.
	Partitions int
	// TxnsPerPartition is the pending-chain length per partition.
	TxnsPerPartition int
	// RowsPerFlight sizes each flight (3 seats per row).
	RowsPerFlight int
	// Workers is the scheduler pool width (0 = GOMAXPROCS).
	Workers int
	// Segments is the WAL segment count under test.
	Segments int
	// Dir holds the WAL files; empty means a fresh temp directory per run
	// (removed afterwards).
	Dir string
}

// DefaultWALSync exercises 8 partitions of 6 pending bookings with an
// 8-wide pool, the shape the segment sweep varies.
func DefaultWALSync() WALSyncConfig {
	return WALSyncConfig{Partitions: 8, TxnsPerPartition: 6, RowsPerFlight: 50, Workers: 8}
}

// WALSyncResult is one measured durable GroundAll collapse.
type WALSyncResult struct {
	Config   WALSyncConfig
	Workers  int // resolved pool width
	Load     time.Duration
	Ground   time.Duration
	Grounded int
	// Log is the WAL's activity snapshot after the collapse: which
	// segments took appends, how many fsyncs ran, how many batches
	// piggybacked on another appender's fsync.
	Log wal.SegStats
}

// Throughput reports grounded-and-synced transactions per second of
// GroundAll time.
func (r *WALSyncResult) Throughput() float64 {
	if r.Ground <= 0 {
		return 0
	}
	return float64(r.Grounded) / r.Ground.Seconds()
}

// ActiveSegments counts segments that received at least one append.
func (r *WALSyncResult) ActiveSegments() int {
	n := 0
	for _, a := range r.Log.Appends {
		if a > 0 {
			n++
		}
	}
	return n
}

// RunWALSync loads the partitions and measures the final synchronous
// GroundAll, then verifies the log by recovering from it: the recovered
// instance must report everything grounded — the bench is also an
// end-to-end durability check.
func RunWALSync(cfg WALSyncConfig) (*WALSyncResult, error) {
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "qdbwalbench")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	walPath := filepath.Join(dir, "bench.wal")
	// A caller-supplied Dir may hold a previous run's segments; stale
	// batches would resume the sequence counter, pollute LogStats, and
	// break the end-of-run recovery comparison, so each run starts from
	// an empty log.
	stale, err := filepath.Glob(walPath + ".*")
	if err != nil {
		return nil, err
	}
	for _, p := range stale {
		if err := os.Remove(p); err != nil {
			return nil, fmt.Errorf("walsync: clearing stale segment: %w", err)
		}
	}
	wcfg := workload.Config{Flights: cfg.Partitions, RowsPerFlight: cfg.RowsPerFlight}
	world := workload.NewWorld(wcfg)
	opts := core.Options{
		K: -1, Workers: cfg.Workers,
		WALPath: walPath, SyncWAL: true, WALSegments: cfg.Segments,
	}
	q, err := core.New(world.DB, opts)
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
				return nil, fmt.Errorf("walsync: loading flight %d txn %d: %w", f, i, err)
			}
			total++
		}
	}
	load := time.Since(loadStart)

	groundStart := time.Now()
	if err := q.GroundAll(); err != nil {
		return nil, fmt.Errorf("walsync: GroundAll: %w", err)
	}
	res := &WALSyncResult{
		Config:   cfg,
		Workers:  q.Workers(),
		Load:     load,
		Ground:   time.Since(groundStart),
		Grounded: total,
		Log:      q.LogStats(),
	}
	if n := q.PendingCount(); n != 0 {
		return nil, fmt.Errorf("walsync: %d transactions still pending", n)
	}

	// Durability check: the log alone must reproduce the collapse.
	r, err := core.Recover(workload.NewWorld(wcfg).DB, opts)
	if err != nil {
		return nil, fmt.Errorf("walsync: recovery check: %w", err)
	}
	defer r.Close()
	if n := r.PendingCount(); n != 0 {
		return nil, fmt.Errorf("walsync: recovery resurrected %d transactions", n)
	}
	if got, want := r.Store().Len("Bookings"), q.Store().Len("Bookings"); got != want {
		return nil, fmt.Errorf("walsync: recovered %d bookings, want %d", got, want)
	}
	return res, nil
}

// RunWALSyncSweep measures the same workload at each segment count.
func RunWALSyncSweep(cfg WALSyncConfig, segments []int) ([]*WALSyncResult, error) {
	out := make([]*WALSyncResult, 0, len(segments))
	for _, s := range segments {
		c := cfg
		c.Segments = s
		r, err := RunWALSync(c)
		if err != nil {
			return nil, fmt.Errorf("segments=%d: %w", s, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderWALSync prints the sweep as a table with speedups over the first
// (baseline) row.
func RenderWALSync(w io.Writer, rs []*WALSyncResult) {
	if len(rs) == 0 {
		return
	}
	cfg := rs[0].Config
	fmt.Fprintf(w, "Durable grounding (SyncWAL): %d partitions × %d txns, %d workers\n",
		cfg.Partitions, cfg.TxnsPerPartition, rs[0].Workers)
	fmt.Fprintf(w, "%-10s%14s%14s%10s%10s%10s%8s\n",
		"segments", "groundall", "txn/s", "speedup", "active", "fsyncs", "group")
	base := rs[0].Ground.Seconds()
	for _, r := range rs {
		syncs := uint64(0)
		for _, s := range r.Log.Syncs {
			syncs += s
		}
		fmt.Fprintf(w, "%-10d%14s%14.0f%9.2fx%10d%10d%8d\n",
			r.Log.Segments, r.Ground.Round(time.Microsecond), r.Throughput(),
			base/r.Ground.Seconds(), r.ActiveSegments(), syncs, r.Log.GroupCommits)
	}
}
