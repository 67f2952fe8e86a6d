package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/serverload"
)

// Benchmark-trajectory emission: `qdbbench -json DIR` writes
// BENCH_fig7.json, BENCH_submit.json, BENCH_read.json, BENCH_wal.json,
// BENCH_server.json, and BENCH_rowscan.json — machine-readable ns/op,
// allocs/op, and domain throughput for the headline workloads
// (grounding-heavy Fig7, the parallel-admission submit storm, the
// snapshot read storm, durable grounding, the server data plane, and the
// row plane: a row-heavy read's round trip and a write under a pin). CI
// uploads them as artifacts on every run, so the performance trajectory
// of the repository is a downloadable series instead of numbers buried
// in logs. The shapes match the in-repo benchmarks (bench_test.go), not
// paper scale: trajectories need comparability run-to-run more than
// absolute magnitude.

// benchPoint is one measured configuration.
type benchPoint struct {
	Name        string         `json:"name"`
	NsPerOp     int64          `json:"ns_per_op"`
	AllocsPerOp int64          `json:"allocs_per_op"`
	BytesPerOp  int64          `json:"bytes_per_op"`
	Runs        int            `json:"runs"`
	Throughput  float64        `json:"throughput,omitempty"` // domain ops/s (submits/s for the storm)
	Counters    map[string]int `json:"counters,omitempty"`
	// Latencies carries the last run's per-op/stage latency quantiles
	// (nanoseconds) from the engine's telemetry registry — the tails
	// behind the mean the other fields report.
	Latencies map[string]bench.Quantiles `json:"latencies,omitempty"`
}

// benchFile is one BENCH_*.json document.
type benchFile struct {
	Workload  string       `json:"workload"`
	Generated string       `json:"generated"` // RFC3339
	Points    []benchPoint `json:"points"`
}

// emitTrajectory writes every trajectory file into dir.
func emitTrajectory(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := emitFig7(dir); err != nil {
		return err
	}
	if err := emitSubmit(dir); err != nil {
		return err
	}
	if err := emitRead(dir); err != nil {
		return err
	}
	if err := emitWALSync(dir); err != nil {
		return err
	}
	if err := emitServer(dir); err != nil {
		return err
	}
	return emitRowscan(dir)
}

func emitFig7(dir string) error {
	cfg := bench.Fig7Config{
		MinFlights: 2, MaxFlights: 6, FlightStep: 2,
		RowsPerFlight: 10, Ks: []int{4, 8, 12}, Seed: 1,
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bench.RunFig7(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc := benchFile{
		Workload:  "fig7",
		Generated: time.Now().UTC().Format(time.RFC3339),
		Points: []benchPoint{{
			Name:        "BenchmarkFig7",
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Runs:        res.N,
		}},
	}
	return writeBenchFile(filepath.Join(dir, "BENCH_fig7.json"), doc)
}

func emitSubmit(dir string) error {
	doc := benchFile{
		Workload:  "parallel-submit",
		Generated: time.Now().UTC().Format(time.RFC3339),
	}
	// The canonical shape list lives in internal/bench (SubmitShapes) and
	// is shared with BenchmarkParallelSubmit, so the emitted point names
	// always measure exactly what the in-repo benchmark measures.
	for _, s := range bench.SubmitShapes() {
		var (
			elapsed   time.Duration
			submitted int
			last      *bench.SubmitResult
		)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := bench.RunParallelSubmit(s.Cfg)
				if err != nil {
					b.Fatal(err)
				}
				elapsed += r.Elapsed
				submitted += r.Submitted
				last = r
			}
		})
		pt := benchPoint{
			Name:        s.Name,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Runs:        res.N,
		}
		if elapsed > 0 {
			pt.Throughput = float64(submitted) / elapsed.Seconds()
		}
		if last != nil {
			pt.Counters = map[string]int{
				"optimistic_admissions": last.Stats.OptimisticAdmissions,
				"admission_conflicts":   last.Stats.AdmissionConflicts,
				"admission_retries":     last.Stats.AdmissionRetries,
				"serial_fallbacks":      last.Stats.SerialFallbacks,
				"parallel_solves":       last.Stats.ParallelSolves,
			}
			pt.Latencies = last.Latencies
		}
		doc.Points = append(doc.Points, pt)
	}
	return writeBenchFile(filepath.Join(dir, "BENCH_submit.json"), doc)
}

func emitRead(dir string) error {
	doc := benchFile{
		Workload:  "parallel-read",
		Generated: time.Now().UTC().Format(time.RFC3339),
	}
	// Shapes shared with BenchmarkParallelRead (bench.ReadShapes):
	// collapse-free snapshot reads swept over reader counts while an
	// applier churns blind writes, plus the applier-idle baseline the
	// racing latencies are judged against. The counters record that every
	// read took the snapshot path and that the applier kept moving — the
	// structural half of the lock-free claim.
	for _, s := range bench.ReadShapes() {
		var (
			elapsed time.Duration
			reads   int
			last    *bench.ReadResult
		)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := bench.RunParallelRead(s.Cfg)
				if err != nil {
					b.Fatal(err)
				}
				elapsed += r.Elapsed
				reads += r.Reads
				last = r
			}
		})
		pt := benchPoint{
			Name:        s.Name,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Runs:        res.N,
		}
		if elapsed > 0 {
			pt.Throughput = float64(reads) / elapsed.Seconds()
		}
		if last != nil {
			pt.Counters = map[string]int{
				"snapshot_reads": last.Stats.SnapshotReads,
				"applier_writes": last.ApplierWrites,
			}
			pt.Latencies = last.Latencies
		}
		doc.Points = append(doc.Points, pt)
	}
	return writeBenchFile(filepath.Join(dir, "BENCH_read.json"), doc)
}

func emitWALSync(dir string) error {
	doc := benchFile{
		Workload:  "wal-sync-grounding",
		Generated: time.Now().UTC().Format(time.RFC3339),
	}
	// Shapes shared with BenchmarkGroundWALSync (bench.WALSyncShapes):
	// durable grounding throughput swept over WAL segment counts, with the
	// log's structural counters attached so the trajectory shows WHERE the
	// batches landed, not just how fast.
	for _, s := range bench.WALSyncShapes() {
		var (
			ground   time.Duration
			grounded int
			last     *bench.WALSyncResult
		)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := bench.RunWALSync(s.Cfg)
				if err != nil {
					b.Fatal(err)
				}
				ground += r.Ground
				grounded += r.Grounded
				last = r
			}
		})
		pt := benchPoint{
			Name:        s.Name,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Runs:        res.N,
		}
		if ground > 0 {
			pt.Throughput = float64(grounded) / ground.Seconds()
		}
		if last != nil {
			syncs := 0
			for _, n := range last.Log.Syncs {
				syncs += int(n)
			}
			pt.Counters = map[string]int{
				"segments":        last.Log.Segments,
				"active_segments": last.ActiveSegments(),
				"fsyncs":          syncs,
				"group_commits":   int(last.Log.GroupCommits),
			}
			pt.Latencies = last.Latencies
		}
		doc.Points = append(doc.Points, pt)
	}
	return writeBenchFile(filepath.Join(dir, "BENCH_wal.json"), doc)
}

func emitServer(dir string) error {
	doc := benchFile{
		Workload:  "server-data-plane",
		Generated: time.Now().UTC().Format(time.RFC3339),
	}
	// Shapes shared with BenchmarkServerSubmit (serverload.ServerShapes):
	// pipelined submits and pipelined batched admission, both over the
	// same many-connection submit storm. The latencies here are
	// CLIENT-observed request round trips — the number a caller feels —
	// complementing the server-side histograms the metrics endpoint
	// exports.
	for _, s := range serverload.ServerShapes() {
		var (
			elapsed time.Duration
			txns    int
			last    *serverload.ServerResult
		)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := serverload.RunServerLoad(s.Cfg)
				if err != nil {
					b.Fatal(err)
				}
				elapsed += r.Elapsed
				txns += r.Txns
				last = r
			}
		})
		pt := benchPoint{
			Name:        s.Name,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Runs:        res.N,
		}
		if elapsed > 0 {
			pt.Throughput = float64(txns) / elapsed.Seconds()
		}
		if last != nil {
			pt.Counters = map[string]int{
				"conns":    last.Config.Conns,
				"window":   last.Config.Window,
				"batch":    last.Config.Batch,
				"requests": last.Requests,
				"sheds":    last.Sheds,
			}
			pt.Latencies = map[string]bench.Quantiles{"client_request": last.Lat}
		}
		doc.Points = append(doc.Points, pt)
	}
	return writeBenchFile(filepath.Join(dir, "BENCH_server.json"), doc)
}

// emitRowscan records the row plane's two micro-costs, whose bytes/op and
// allocs/op are the point: the first write to a pinned table swept over
// table sizes (bench.ApplyPinnedShapes, shared with BenchmarkApplyPinned;
// it must stay flat), and one 150-row snapshot scan round trip over the
// binary protocol (shared with BenchmarkSnapreadWire).
func emitRowscan(dir string) error {
	doc := benchFile{
		Workload:  "row-plane",
		Generated: time.Now().UTC().Format(time.RFC3339),
	}
	point := func(name string, res testing.BenchmarkResult) benchPoint {
		pt := benchPoint{
			Name:        name,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Runs:        res.N,
		}
		if res.T > 0 {
			pt.Throughput = float64(res.N) / res.T.Seconds()
		}
		return pt
	}
	for _, s := range bench.ApplyPinnedShapes() {
		a := bench.NewApplyPinned(s.Rows)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := a.Flip(); err != nil {
					b.Fatal(err)
				}
			}
		})
		pt := point(s.Name, res)
		copies, bytes := a.CowStats()
		pt.Counters = map[string]int{"rows": s.Rows, "cow_copies": int(copies), "cow_bytes": int(bytes)}
		doc.Points = append(doc.Points, pt)
	}
	wire, err := serverload.NewSnapreadWire(serverload.SnapreadRows)
	if err != nil {
		return err
	}
	defer wire.Close()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := wire.Read(); err != nil {
				b.Fatal(err)
			}
		}
	})
	pt := point(fmt.Sprintf("BenchmarkSnapreadWire/rows=%d", serverload.SnapreadRows), res)
	pt.Counters = map[string]int{"rows": serverload.SnapreadRows}
	doc.Points = append(doc.Points, pt)
	return writeBenchFile(filepath.Join(dir, "BENCH_rowscan.json"), doc)
}

func writeBenchFile(path string, doc benchFile) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
