// Command qdbbench regenerates the evaluation of "Quantum Databases"
// (CIDR 2013): Table 1, Figures 5-6 (arrival orders), Figure 7 + Table 2
// (scalability vs k), and Figures 8-9 (mixed read workloads), plus the
// durable-grounding segment sweep and the phase sweep.
//
//	qdbbench -exp all               # everything at paper scale
//	qdbbench -exp fig7 -quick       # reduced scale for a fast look
//	qdbbench -exp fig7,fig8 -quick  # several, comma-separated
//
// Absolute times depend on the host; the shapes (who wins, slopes,
// crossovers) are the reproduction target. README's "Build, test, bench"
// section lists these runs next to the reduced-scale Go benchmarks;
// ARCHITECTURE.md describes the engine they measure.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
)

// experiments are the valid -exp names, in run order.
var experiments = []string{"table1", "fig5", "fig6", "fig7", "table2", "fig8", "fig9", "walsync", "phase", "all"}

// parseExp splits a comma-separated -exp value into the set of
// experiments to run; "all" selects every one.
func parseExp(s string) (map[string]bool, error) {
	want := make(map[string]bool)
	for _, name := range strings.Split(s, ",") {
		if !slices.Contains(experiments, name) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(experiments, "|"))
		}
		want[name] = true
	}
	if want["all"] {
		for _, name := range experiments {
			want[name] = true
		}
	}
	return want, nil
}

func main() {
	exp := flag.String("exp", "all", "experiments, comma-separated: "+strings.Join(experiments, "|"))
	quick := flag.Bool("quick", false, "run at reduced scale (seconds instead of minutes)")
	seed := flag.Int64("seed", 1, "workload shuffle seed")
	flag.Parse()

	want, err := parseExp(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qdbbench:", err)
		os.Exit(2)
	}
	start := time.Now()

	if want["table1"] {
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

	if want["fig5"] || want["fig6"] {
		cfg := bench.DefaultFig56()
		cfg.Seed = *seed
		if *quick {
			cfg.Rows = 10
		}
		res, err := bench.RunFig56(cfg)
		fail(err)
		if want["fig5"] {
			res.RenderFig5(os.Stdout)
			fmt.Println()
		}
		if want["fig6"] {
			res.RenderFig6(os.Stdout)
			fmt.Println()
		}
	}

	if want["fig7"] || want["table2"] {
		cfg := bench.DefaultFig7()
		cfg.Seed = *seed
		if *quick {
			cfg = bench.Fig7Config{MinFlights: 2, MaxFlights: 10, FlightStep: 2,
				RowsPerFlight: 10, Ks: []int{4, 8, 12}, Seed: *seed}
		}
		res, err := bench.RunFig7(cfg)
		fail(err)
		if want["fig7"] {
			res.RenderFig7(os.Stdout)
			fmt.Println()
		}
		if want["table2"] {
			res.RenderTable2(os.Stdout)
			fmt.Println()
		}
	}

	if want["fig8"] || want["fig9"] {
		cfg := bench.DefaultFig89()
		cfg.Seed = *seed
		if *quick {
			cfg = bench.Fig89Config{Flights: 4, RowsPerFlight: 10, Total: 120,
				ReadPcts: []int{0, 30, 60, 90}, Ks: []int{4, 8}, Seed: *seed}
		}
		res, err := bench.RunFig89(cfg)
		fail(err)
		if want["fig8"] {
			res.RenderFig8(os.Stdout)
			fmt.Println()
		}
		if want["fig9"] {
			res.RenderFig9(os.Stdout)
			fmt.Println()
		}
	}

	if want["walsync"] {
		cfg := bench.DefaultWALSync()
		if *quick {
			cfg.Partitions, cfg.TxnsPerPartition, cfg.RowsPerFlight = 4, 3, 10
		}
		rs, err := bench.RunWALSyncSweep(cfg, []int{1, 2, 4, 8})
		fail(err)
		bench.RenderWALSync(os.Stdout, rs)
		fmt.Println()
	}

	if want["phase"] {
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
