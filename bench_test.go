package quantumdb

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus ablation benchmarks for the design decisions called out in
// DESIGN.md. These run at a reduced scale so `go test -bench=.` finishes
// in minutes; `cmd/qdbbench` regenerates the full paper-scale series.

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/workload"
)

// benchFig56 is a reduced Figure 5/6 configuration (paper: 34 rows).
var benchFig56 = bench.Fig56Config{Rows: 10, K: 61, Seed: 1}

// benchFig7 is a reduced Figure 7 / Table 2 configuration (paper: 10-100
// flights of 50 rows).
var benchFig7 = bench.Fig7Config{
	MinFlights: 2, MaxFlights: 6, FlightStep: 2,
	RowsPerFlight: 10, Ks: []int{4, 8, 12}, Seed: 1,
}

// benchFig89 is a reduced Figure 8/9 configuration (paper: 6000 ops over
// 40 flights of 50 rows).
var benchFig89 = bench.Fig89Config{
	Flights: 4, RowsPerFlight: 10, Total: 120,
	ReadPcts: []int{0, 30, 60, 90}, Ks: []int{4, 8}, Seed: 1,
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable1(bench.Table1Config{Rows: 10, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig56(benchFig56); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig56(benchFig56)
		if err != nil {
			b.Fatal(err)
		}
		res.RenderFig6(io.Discard)
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig7(benchFig7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig7(benchFig7)
		if err != nil {
			b.Fatal(err)
		}
		res.RenderTable2(io.Discard)
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig89(benchFig89); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig89(benchFig89)
		if err != nil {
			b.Fatal(err)
		}
		res.RenderFig9(io.Discard)
	}
}

// tupleOf builds a value.Tuple from ints and strings, for benchmark
// seeding.
func tupleOf(vs ...any) value.Tuple {
	t := make(value.Tuple, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case int:
			t[i] = value.NewInt(int64(x))
		case string:
			t[i] = value.NewString(x)
		default:
			panic("tupleOf: unsupported type")
		}
	}
	return t
}

// BenchmarkRepeatedAdmission is the cross-solve caching headline: a full
// partition receives the same (rejected) booking over and over. The
// first rejection pays a full composed-body unsatisfiability proof;
// every later one is answered from the negative solve cache keyed by
// (transaction content, store epochs) — watch allocs/op collapse between
// the cache=off and cache=on variants. The acceptance bar (>=2x fewer
// allocs on the second-and-later solve of an unchanged partition) is
// asserted in internal/core's TestCacheHitPathAllocs; this benchmark
// reports the numbers.
func BenchmarkRepeatedAdmission(b *testing.B) {
	const seats = 6
	run := func(opt core.Options) func(*testing.B) {
		return func(b *testing.B) {
			db := relstore.NewDB()
			db.MustCreateTable(relstore.Schema{Name: "Available", Columns: []string{"fno", "sno"}})
			db.MustCreateTable(relstore.Schema{Name: "Bookings", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
			for i := 0; i < seats; i++ {
				db.MustInsert("Available", tupleOf(1, fmt.Sprintf("s%d", i)))
			}
			q, err := core.New(db, opt)
			if err != nil {
				b.Fatal(err)
			}
			defer q.Close()
			mk := func(user string) *txn.T {
				return txn.MustParse(fmt.Sprintf(
					"-Available(1, s), +Bookings('%s', 1, s) :-1 Available(1, s)", user))
			}
			for i := 0; i < seats; i++ {
				if _, err := q.Submit(mk(fmt.Sprintf("u%d", i))); err != nil {
					b.Fatal(err)
				}
			}
			late := mk("late")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Submit(late); err == nil {
					b.Fatal("over-full flight accepted a booking")
				}
			}
		}
	}
	b.Run("cache=on", run(core.Options{}))
	b.Run("cache=off", run(core.Options{DisableCache: true}))
}

// BenchmarkGroundReplay measures collapse of an unchanged partition: with
// the cross-solve solution cache, GroundAll replays the admission-time
// groundings (zero chain solves); without it, every grounding re-solves
// the remaining chain.
func BenchmarkGroundReplay(b *testing.B) {
	const seats = 6
	run := func(opt core.Options) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := relstore.NewDB()
				db.MustCreateTable(relstore.Schema{Name: "Available", Columns: []string{"fno", "sno"}})
				db.MustCreateTable(relstore.Schema{Name: "Bookings", Columns: []string{"name", "fno", "sno"}, Key: []int{1, 2}})
				for s := 0; s < seats; s++ {
					db.MustInsert("Available", tupleOf(1, fmt.Sprintf("s%d", s)))
				}
				q, err := core.New(db, opt)
				if err != nil {
					b.Fatal(err)
				}
				for s := 0; s < seats; s++ {
					tx := txn.MustParse(fmt.Sprintf(
						"-Available(1, s), +Bookings('u%d', 1, s) :-1 Available(1, s)", s))
					if _, err := q.Submit(tx); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := q.GroundAll(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				q.Close()
				b.StartTimer()
			}
		}
	}
	b.Run("cache=on", run(core.Options{}))
	b.Run("cache=off", run(core.Options{DisableCache: true}))
}

// BenchmarkGroundAllScaling measures partition-parallel grounding: N
// independent flight pools collapsed by one GroundAll, swept over worker
// counts. The per-op metric to watch is ns/op falling as workers rise
// (the acceptance bar for the sharded scheduler was >= 2x at 4 workers
// on 8 partitions).
func BenchmarkGroundAllScaling(b *testing.B) {
	cfg := bench.DefaultScale()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := cfg
			c.Workers = workers
			var groundTime time.Duration
			var grounded int
			for i := 0; i < b.N; i++ {
				r, err := bench.RunScale(c)
				if err != nil {
					b.Fatal(err)
				}
				groundTime += r.Ground
				grounded += r.Grounded
			}
			b.ReportMetric(groundTime.Seconds()/float64(b.N), "groundall-s/op")
			b.ReportMetric(float64(grounded)/groundTime.Seconds(), "txn/s")
		})
	}
}

// ---- Ablations (design decisions from DESIGN.md) ----

// ablationStream runs one Random-order entangled stream under the given
// options and reports coordination as a benchmark metric.
func ablationStream(b *testing.B, opt bench.StreamOptions) {
	b.Helper()
	cfg := workload.Config{Flights: 2, RowsPerFlight: 10}
	world := workload.NewWorld(cfg)
	pairs := workload.EntangledPairs(cfg, cfg.Seats()/2)
	var coord float64
	for i := 0; i < b.N; i++ {
		stream := workload.Arrival(pairs, workload.Random, bench.Rng(int64(i+1)))
		r, err := bench.RunQDBStreamOpt(world, pairs, stream, opt)
		if err != nil {
			b.Fatal(err)
		}
		coord = r.CoordinationPct
	}
	b.ReportMetric(coord, "coordination%")
}

// BenchmarkAblationSolutionCache compares admission with and without the
// solution cache (§4: the cache amortizes satisfiability checks).
func BenchmarkAblationSolutionCache(b *testing.B) {
	b.Run("cache=on", func(b *testing.B) {
		ablationStream(b, bench.StreamOptions{Core: core.Options{K: 8}})
	})
	b.Run("cache=off", func(b *testing.B) {
		ablationStream(b, bench.StreamOptions{Core: core.Options{K: 8, DisableCache: true}})
	})
}

// BenchmarkAblationPartitioning compares per-flight partitions against a
// single global composed body (§4-5 credit partitioning for Figure 7's
// linear scaling).
func BenchmarkAblationPartitioning(b *testing.B) {
	b.Run("partitioning=on", func(b *testing.B) {
		ablationStream(b, bench.StreamOptions{Core: core.Options{K: 8}})
	})
	b.Run("partitioning=off", func(b *testing.B) {
		ablationStream(b, bench.StreamOptions{Core: core.Options{K: 8, DisablePartitioning: true}})
	})
}

// BenchmarkAblationSerializability compares semantic move-to-front
// grounding against strict prefix grounding (§3.2.3) under a read-heavy
// mixed workload, where out-of-order collapse matters.
func BenchmarkAblationSerializability(b *testing.B) {
	run := func(mode core.Mode) func(*testing.B) {
		return func(b *testing.B) {
			cfg := bench.Fig89Config{
				Flights: 2, RowsPerFlight: 10, Total: 60,
				ReadPcts: []int{50}, Ks: []int{8}, Seed: 1, Mode: mode,
			}
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunFig89(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("mode=semantic", run(core.Semantic))
	b.Run("mode=strict", run(core.Strict))
}

// BenchmarkAblationChooser compares first-fit collapse against the
// flexibility-maximizing chooser (§3.2.2) and the eager-coordination
// extension, reporting achieved coordination.
func BenchmarkAblationChooser(b *testing.B) {
	k := core.Options{K: 4}
	b.Run("chooser=firstfit", func(b *testing.B) {
		ablationStream(b, bench.StreamOptions{Core: k})
	})
	b.Run("chooser=flexibility", func(b *testing.B) {
		opt := k
		opt.Chooser = workload.FlexibilityChooser
		opt.ChooserSample = 4
		ablationStream(b, bench.StreamOptions{Core: opt})
	})
	b.Run("chooser=flexibility+eager", func(b *testing.B) {
		opt := k
		opt.Chooser = workload.FlexibilityChooser
		opt.ChooserSample = 4
		ablationStream(b, bench.StreamOptions{Core: opt, Eager: true})
	})
}

// BenchmarkAblationSearchDepth compares the dynamic greedy join planner
// against the naive static order (the paper's optimizer_search_depth
// discussion).
func BenchmarkAblationSearchDepth(b *testing.B) {
	run := func(p relstore.PlannerMode) func(*testing.B) {
		return func(b *testing.B) {
			ablationStream(b, bench.StreamOptions{Core: core.Options{K: 8, Planner: p}})
		}
	}
	b.Run("planner=dynamic", run(relstore.PlanDynamic))
	b.Run("planner=static", run(relstore.PlanStatic))
}

// BenchmarkParallelSubmit measures admission throughput under a
// concurrent submit storm on disjoint partitions, swept over worker
// counts — the optimistic-admission headline. Watch submit/s rise with
// workers (solves overlap outside the admission lock); the serial
// variant is the ablation baseline at the widest pool. The shapes come
// from bench.SubmitShapes, shared with the CI trajectory artifact
// (qdbbench -json), so the two series stay comparable.
func BenchmarkParallelSubmit(b *testing.B) {
	run := func(c bench.SubmitConfig) func(*testing.B) {
		return func(b *testing.B) {
			var elapsed time.Duration
			var submitted int
			for i := 0; i < b.N; i++ {
				r, err := bench.RunParallelSubmit(c)
				if err != nil {
					b.Fatal(err)
				}
				elapsed += r.Elapsed
				submitted += r.Submitted
			}
			b.ReportMetric(elapsed.Seconds()/float64(b.N), "storm-s/op")
			b.ReportMetric(float64(submitted)/elapsed.Seconds(), "submit/s")
		}
	}
	for _, s := range bench.SubmitShapes() {
		b.Run(strings.TrimPrefix(s.Name, "BenchmarkParallelSubmit/"), run(s.Cfg))
	}
}

// BenchmarkParallelRead measures collapse-free snapshot-read throughput
// swept over reader counts while one applier churns blind writes — the
// gate-free read headline. Watch read/s rise with readers and per-read
// latency hold near the applier-idle baseline (the last variant):
// snapshot readers pin a copy-on-write version and never queue behind
// the store gate's exclusive holders. The shapes come from
// bench.ReadShapes, shared with the CI trajectory artifact (qdbbench
// -json, BENCH_read.json), so the two series stay comparable.
func BenchmarkParallelRead(b *testing.B) {
	run := func(c bench.ReadConfig) func(*testing.B) {
		return func(b *testing.B) {
			var elapsed time.Duration
			var reads int
			for i := 0; i < b.N; i++ {
				r, err := bench.RunParallelRead(c)
				if err != nil {
					b.Fatal(err)
				}
				elapsed += r.Elapsed
				reads += r.Reads
			}
			b.ReportMetric(elapsed.Seconds()/float64(b.N), "storm-s/op")
			b.ReportMetric(float64(reads)/elapsed.Seconds(), "read/s")
		}
	}
	for _, s := range bench.ReadShapes() {
		b.Run(strings.TrimPrefix(s.Name, "BenchmarkParallelRead/"), run(s.Cfg))
	}
}

// BenchmarkGroundWALSync measures durable grounding throughput — every
// grounding batch fsynced before it applies (SyncWAL) — swept over WAL
// segment counts. One segment is the pre-sharding baseline where all
// partitions serialize on a single fsync stream; watch txn/s rise with
// segments as disjoint partitions stop sharing a log. The shapes come
// from bench.WALSyncShapes, shared with the CI trajectory artifact
// (qdbbench -json, BENCH_wal.json), so the two series stay comparable.
func BenchmarkGroundWALSync(b *testing.B) {
	run := func(c bench.WALSyncConfig) func(*testing.B) {
		return func(b *testing.B) {
			var groundTime time.Duration
			var grounded int
			for i := 0; i < b.N; i++ {
				r, err := bench.RunWALSync(c)
				if err != nil {
					b.Fatal(err)
				}
				groundTime += r.Ground
				grounded += r.Grounded
			}
			b.ReportMetric(groundTime.Seconds()/float64(b.N), "groundall-s/op")
			b.ReportMetric(float64(grounded)/groundTime.Seconds(), "txn/s")
		}
	}
	for _, s := range bench.WALSyncShapes() {
		b.Run(strings.TrimPrefix(s.Name, "BenchmarkGroundWALSync/"), run(s.Cfg))
	}
}

// BenchmarkApplyPinned is one seat flipped in and out of a flight table
// that a snapshot pins, swept over table sizes (bench.ApplyPinnedShapes,
// shared with the CI trajectory, BENCH_rowscan.json). Copy-on-write is
// page-granular: ns/op and B/op must not follow the row count.
func BenchmarkApplyPinned(b *testing.B) {
	for _, s := range bench.ApplyPinnedShapes() {
		b.Run(strings.TrimPrefix(s.Name, "BenchmarkApplyPinned/"), func(b *testing.B) {
			a := bench.NewApplyPinned(s.Rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Flip(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
