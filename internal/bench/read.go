package bench

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/workload"
)

// ReadConfig sizes the snapshot read-scaling experiment: Readers
// goroutines each run ReadsPerReader collapse-free snapshot queries
// over one flight while (optionally) one applier churns blind writes.
// Every Write holds the store gate exclusively while it applies, so
// this is exactly the contention the copy-on-write snapshot path is
// built to never wait behind: readers pin a version under a brief
// shared acquisition and then evaluate entirely gate-free.
type ReadConfig struct {
	// Readers is the number of querying goroutines.
	Readers int
	// ReadsPerReader is how many snapshot queries each reader runs.
	ReadsPerReader int
	// RowsPerFlight sizes the flight being read (3 seats per row).
	RowsPerFlight int
	// Applier races a sustained blind-write churn (insert then delete of
	// a scratch seat on another flight, so read results stay stable)
	// against the readers for the whole measured window.
	Applier bool
}

// DefaultRead exercises 8 readers against a 50-row flight with the
// applier churning.
func DefaultRead() ReadConfig {
	return ReadConfig{Readers: 8, ReadsPerReader: 400, RowsPerFlight: 50, Applier: true}
}

// ReadResult is one measured read storm.
type ReadResult struct {
	Config  ReadConfig
	Elapsed time.Duration
	// Reads is the total snapshot queries completed.
	Reads int
	// ApplierWrites counts insert+delete churn rounds the racing applier
	// completed while the readers ran (0 when Applier is off). A healthy
	// run shows both sides making progress — neither starves the other.
	ApplierWrites int
	Stats         core.Stats
	// Latencies carries per-op/stage latency quantiles from the storm.
	Latencies map[string]Quantiles
}

// Throughput reports snapshot reads per second of storm time.
func (r *ReadResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Reads) / r.Elapsed.Seconds()
}

// PerRead reports the mean sequential latency of one snapshot read:
// each reader runs its reads back to back, so wall time divided by the
// per-reader count is the figure to compare across applier on/off.
func (r *ReadResult) PerRead() time.Duration {
	if r.Config.ReadsPerReader == 0 {
		return 0
	}
	return r.Elapsed / time.Duration(r.Config.ReadsPerReader)
}

// RunParallelRead drives one read storm. Every query must see exactly
// the flight's full seat set: the applier's churn targets a different
// flight, so any other row count means a snapshot caught a torn write.
func RunParallelRead(cfg ReadConfig) (*ReadResult, error) {
	world := workload.NewWorld(workload.Config{Flights: 1, RowsPerFlight: cfg.RowsPerFlight})
	q, err := core.New(world.DB, core.Options{K: -1})
	if err != nil {
		return nil, err
	}
	defer q.Close()
	query, err := txn.ParseQuery(fmt.Sprintf("%s(1, s)", workload.RelAvailable))
	if err != nil {
		return nil, err
	}
	wantRows := world.Config.Seats()

	var (
		stop          = make(chan struct{})
		applierWG     sync.WaitGroup
		applierWrites atomic.Int64
		applierErr    atomic.Value
	)
	if cfg.Applier {
		scratch := []relstore.GroundFact{{
			Rel:   workload.RelAvailable,
			Tuple: value.Tuple{value.NewInt(999), value.NewString("ZZ")},
		}}
		applierWG.Add(1)
		go func() {
			defer applierWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := q.Write(scratch, nil); err != nil {
					applierErr.Store(fmt.Errorf("read storm: applier insert: %w", err))
					return
				}
				if err := q.Write(nil, scratch); err != nil {
					applierErr.Store(fmt.Errorf("read storm: applier delete: %w", err))
					return
				}
				applierWrites.Add(1)
			}
		}()
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	start := time.Now()
	for r := 0; r < cfg.Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < cfg.ReadsPerReader; i++ {
				s := q.Snapshot()
				sols, err := q.QueryAt(s, query)
				s.Release()
				if err == nil && sols.N != wantRows {
					err = fmt.Errorf("saw %d rows, want %d", sols.N, wantRows)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("read storm: reader %d read %d: %w", r, i, err)
					}
					mu.Unlock()
					return
				}
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	applierWG.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err, _ := applierErr.Load().(error); err != nil {
		return nil, err
	}
	return &ReadResult{
		Config:        cfg,
		Elapsed:       elapsed,
		Reads:         cfg.Readers * cfg.ReadsPerReader,
		ApplierWrites: int(applierWrites.Load()),
		Stats:         q.Stats(),
		Latencies:     CollectLatencies(q),
	}, nil
}

// RunReadSweep measures the same storm at each reader count.
func RunReadSweep(cfg ReadConfig, readers []int) ([]*ReadResult, error) {
	out := make([]*ReadResult, 0, len(readers))
	for _, n := range readers {
		c := cfg
		c.Readers = n
		r, err := RunParallelRead(c)
		if err != nil {
			return nil, fmt.Errorf("readers=%d: %w", n, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderRead prints the sweep as a table. Aggregate reads/s should grow
// with the reader count (snapshot reads share nothing after the pin);
// per-read latency should hold roughly flat.
func RenderRead(w io.Writer, rs []*ReadResult) {
	if len(rs) == 0 {
		return
	}
	cfg := rs[0].Config
	churn := "applier churning"
	if !cfg.Applier {
		churn = "applier idle"
	}
	fmt.Fprintf(w, "Snapshot reads: %d reads/reader over %d rows, %s\n",
		cfg.ReadsPerReader, 3*cfg.RowsPerFlight, churn)
	fmt.Fprintf(w, "%-10s%14s%14s%12s%12s\n", "readers", "storm", "read/s", "per-read", "writes")
	for _, r := range rs {
		fmt.Fprintf(w, "%-10d%14s%14.0f%12s%12d\n",
			r.Config.Readers, r.Elapsed.Round(time.Microsecond), r.Throughput(),
			r.PerRead().Round(time.Microsecond), r.ApplierWrites)
	}
}

// ReadShape names one measured read-storm configuration; the benchmark
// (BenchmarkParallelRead) and the CI trajectory emitter (qdbbench -json,
// BENCH_read.json) share the list so the two always measure the same
// shapes.
type ReadShape struct {
	Name string
	Cfg  ReadConfig
}

// ReadShapes returns the canonical read sweep: readers 1/2/4/8 racing
// the applier, plus the applier-idle baseline at the widest shape — the
// pair whose per-read latencies must stay within ~2x of each other for
// the gate-free claim to hold.
func ReadShapes() []ReadShape {
	var shapes []ReadShape
	for _, n := range []int{1, 2, 4, 8} {
		c := DefaultRead()
		c.Readers = n
		shapes = append(shapes, ReadShape{fmt.Sprintf("BenchmarkParallelRead/readers=%d", n), c})
	}
	idle := DefaultRead()
	idle.Applier = false
	shapes = append(shapes, ReadShape{"BenchmarkParallelRead/readers=8/applier-idle", idle})
	return shapes
}
