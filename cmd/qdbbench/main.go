// Command qdbbench regenerates the evaluation of "Quantum Databases"
// (CIDR 2013): Table 1, Figures 5-6 (arrival orders), Figure 7 + Table 2
// (scalability vs k), and Figures 8-9 (mixed read workloads).
//
//	qdbbench -exp all            # everything at paper scale
//	qdbbench -exp fig7 -quick    # reduced scale for a fast look
//
// Absolute times depend on the host; the shapes (who wins, slopes,
// crossovers) are the reproduction target. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/serverload"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|fig5|fig6|fig7|table2|fig8|fig9|walsync|server|all")
	quick := flag.Bool("quick", false, "run at reduced scale (seconds instead of minutes)")
	seed := flag.Int64("seed", 1, "workload shuffle seed")
	jsonDir := flag.String("json", "", "emit the benchmark trajectory (BENCH_fig7.json, BENCH_submit.json, BENCH_read.json, BENCH_wal.json, BENCH_server.json) into this directory and exit")

	// -exp server external mode: drive an already-running qdbd instead
	// of an in-process sweep, optionally gating on its metrics.
	addr := flag.String("addr", "", "server experiment: drive this qdbd address instead of booting in-process")
	conns := flag.Int("conns", 8, "server experiment: connection count")
	window := flag.Int("window", 4, "server experiment: pipelined requests in flight per connection")
	batch := flag.Int("batch", 1, "server experiment: transactions per wire request (batch verb when > 1)")
	rate := flag.Float64("rate", 0, "server experiment: open-loop requests/second across all connections (0 = closed loop)")
	duration := flag.Duration("duration", 5*time.Second, "server experiment: open-loop run length")
	metricsURL := flag.String("metrics-url", "", "server experiment: qdbd /debug/vars URL for server-side gates")
	p99Max := flag.Duration("p99-max", 0, "server experiment: fail if server op p99 exceeds this (0 = no gate)")
	maxSheds := flag.Int64("max-sheds", -1, "server experiment: fail if qdb_server_shed_total exceeds this (-1 = no gate)")
	flag.Parse()

	if *jsonDir != "" {
		if err := emitTrajectory(*jsonDir); err != nil {
			fail(err)
		}
		return
	}

	want := func(name string) bool {
		return *exp == "all" || strings.Contains(*exp, name)
	}
	start := time.Now()

	if want("table1") {
		cfg := bench.DefaultTable1()
		cfg.Seed = *seed
		if *quick {
			cfg.Rows = 10
		}
		res, err := bench.RunTable1(cfg)
		fail(err)
		res.Render(os.Stdout)
		fmt.Println()
	}

	if want("fig5") || want("fig6") {
		cfg := bench.DefaultFig56()
		cfg.Seed = *seed
		if *quick {
			cfg.Rows = 10
		}
		res, err := bench.RunFig56(cfg)
		fail(err)
		if want("fig5") {
			res.RenderFig5(os.Stdout)
			fmt.Println()
		}
		if want("fig6") {
			res.RenderFig6(os.Stdout)
			fmt.Println()
		}
	}

	if want("fig7") || want("table2") {
		cfg := bench.DefaultFig7()
		cfg.Seed = *seed
		if *quick {
			cfg = bench.Fig7Config{MinFlights: 2, MaxFlights: 10, FlightStep: 2,
				RowsPerFlight: 10, Ks: []int{4, 8, 12}, Seed: *seed}
		}
		res, err := bench.RunFig7(cfg)
		fail(err)
		if want("fig7") {
			res.RenderFig7(os.Stdout)
			fmt.Println()
		}
		if want("table2") {
			res.RenderTable2(os.Stdout)
			fmt.Println()
		}
	}

	if want("fig8") || want("fig9") {
		cfg := bench.DefaultFig89()
		cfg.Seed = *seed
		if *quick {
			cfg = bench.Fig89Config{Flights: 4, RowsPerFlight: 10, Total: 120,
				ReadPcts: []int{0, 30, 60, 90}, Ks: []int{4, 8}, Seed: *seed}
		}
		res, err := bench.RunFig89(cfg)
		fail(err)
		if want("fig8") {
			res.RenderFig8(os.Stdout)
			fmt.Println()
		}
		if want("fig9") {
			res.RenderFig9(os.Stdout)
			fmt.Println()
		}
	}

	if want("walsync") {
		cfg := bench.DefaultWALSync()
		if *quick {
			cfg.Partitions, cfg.TxnsPerPartition, cfg.RowsPerFlight = 4, 3, 10
		}
		rs, err := bench.RunWALSyncSweep(cfg, []int{1, 2, 4, 8})
		fail(err)
		bench.RenderWALSync(os.Stdout, rs)
		fmt.Println()
	}

	if *exp == "server" || (want("server") && *exp != "all") {
		cfg := serverload.ServerConfig{
			Conns: *conns, Window: *window, Batch: *batch,
			Rate: *rate, Duration: *duration,
		}
		fail(runServerExp(cfg, *addr, *metricsURL, *p99Max, *maxSheds))
		fmt.Println()
	} else if want("server") { // -exp all: in-process sweep only
		fail(renderServerSweep())
		fmt.Println()
	}

	if want("phase") {
		cfg := bench.DefaultPhase()
		cfg.Seed = *seed
		if *quick {
			cfg.Rows = 10
		}
		res, err := bench.RunPhase(cfg)
		fail(err)
		res.Render(os.Stdout)
		fmt.Println()
	}

	fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "qdbbench:", err)
		os.Exit(1)
	}
}
